"""Budget allocation, greedy cluster sampling, pipeline, and baselines."""

import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from egms import (
    EmbeddingStore,
    InputError,
    InternalInvariantError,
    SampleMeta,
    SelectionConfig,
    allocate_budgets,
    augment,
    build_similarity,
    filter_extremes,
    gen_synthetic,
    greedy_sample_cluster,
    load_embedding_store,
    mmd_sample_cluster,
    resolve_ppls,
    select,
    serialize_selection_manifest,
    von_neumann_entropy,
    write_embedding_store,
    write_sample_manifest,
)
from egms.cli import main
from egms.entropy import _best_bordered, _kernel_block
from egms import clustering, entropy, sampler
from egms.sampler import _average_budgets, _ccs_rows, _greedy_batch


def _naive_trace(store, rows, sigma):
    """Entropy of each prefix of ``rows``, each from its own full kernel matrix."""
    return np.array([von_neumann_entropy(build_similarity(store, rows[: t + 1], sigma)) for t in range(len(rows))])


class TestAllocateBudgets:
    def test_exact_proportional_floors(self):
        budgets = allocate_budgets([50, 30, 20], 10)
        assert budgets.tolist() == [5, 3, 2]
        assert budgets.sum() == 10

    def test_single_cluster(self):
        assert allocate_budgets([10], 5).tolist() == [5]

    def test_overshoot_reconciled_from_smallest_fraction(self):
        # base max(1, floor) gives [1, 1, 9] summing to 11; one unit comes
        # back from the only cluster that can spare it
        budgets = allocate_budgets([1, 1, 98], 10).tolist()
        assert budgets == [1, 1, 8]
        assert sum(budgets) == 10

    def test_overshoot_example_minimizes_deviation(self):
        sizes, B = [1, 1, 98], 10
        exact = [s / sum(sizes) * B for s in sizes]
        got = allocate_budgets(sizes, B).tolist()
        best = None
        for cand in _feasible_plans(sizes, B):
            dev = sum(abs(c - e) for c, e in zip(cand, exact))
            if best is None or dev < best:
                best = dev
        assert sum(abs(g - e) for g, e in zip(got, exact)) == pytest.approx(best)

    def test_conservation_randomized(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            L = int(rng.integers(1, 30))
            sizes = rng.integers(1, 60, size=L).tolist()
            B = int(rng.integers(1, sum(sizes) + 1))
            budgets = allocate_budgets(sizes, B)
            assert budgets.sum() == B
            assert (budgets <= np.array(sizes)).all()
            if B >= L:
                assert (budgets >= 1).all()

    def test_equal_size_clusters_symmetric(self):
        budgets = allocate_budgets([7, 7, 7, 7], 9).tolist()
        assert sum(budgets) == 9
        assert max(budgets) - min(budgets) <= 1

    def test_errors(self):
        with pytest.raises(InputError):
            allocate_budgets([], 3)
        with pytest.raises(InputError):
            allocate_budgets([2, 2], 5)
        with pytest.raises(InputError):
            allocate_budgets([2, 2], 0)


def _feasible_plans(sizes, B):
    """All integer plans with sum B, 1 <= b_l <= size (brute force)."""
    ranges = [range(1, s + 1) for s in sizes]

    def rec(i, left):
        if i == len(sizes):
            if left == 0:
                yield ()
            return
        for b in ranges[i]:
            if b <= left:
                for rest in rec(i + 1, left - b):
                    yield (b,) + rest

    return rec(0, B)


def _base_budgets(sizes, B):
    """allocate_budgets' plan before reconciliation, and its fractional parts."""
    sizes = np.asarray(sizes, dtype=np.int64)
    exact = sizes / sizes.sum() * B
    return np.minimum(np.maximum(1, np.floor(exact).astype(np.int64)), sizes), exact - np.floor(exact)


def _old_fill_round_robin(alloc, sizes, order, total):
    """The deficit fill that allocate_budgets and ccs shared before the two-way round-robin."""
    deficit = total - int(alloc.sum())
    while deficit > 0:
        eligible = order[alloc[order] < sizes[order]][:deficit]
        assert eligible.size > 0
        alloc[eligible] += 1
        deficit -= eligible.size


def _reference_allocate(sizes, B):
    """allocate_budgets with the old surplus loop and the old deficit fill."""
    sizes = np.asarray(sizes, dtype=np.int64)
    alloc, frac = _base_budgets(sizes, B)
    if alloc.sum() > B:
        order = np.lexsort((np.arange(sizes.size), frac))
        surplus = int(alloc.sum() - B)
        while surplus > 0:
            eligible = order[alloc[order] > 1][:surplus]
            if eligible.size == 0:
                eligible = order[alloc[order] == 1][:surplus]
            alloc[eligible] -= 1
            surplus -= eligible.size
    else:
        _old_fill_round_robin(alloc, sizes, np.lexsort((np.arange(sizes.size), -frac)), B)
    return alloc.tolist()


def _reference_ccs_take(sizes, budget):
    """The per-bin takes of ccs with its own ``advanced`` loop, before the shared fill."""
    bins = sizes.size
    take = np.minimum(budget // bins, sizes)
    while take.sum() < budget:
        advanced = False
        for b in range(bins):
            if take.sum() >= budget:
                break
            if take[b] < sizes[b]:
                take[b] += 1
                advanced = True
        assert advanced
    return take.tolist()


def _reference_average_budgets(sizes, budget):
    """The budgets of ``exam_average_allocation`` with its unit-by-unit shortfall loop."""
    sizes = np.asarray(sizes, dtype=np.int64)
    L = sizes.size
    alloc = np.minimum(np.full(L, budget // L, dtype=np.int64), sizes)
    order = np.lexsort((np.arange(L), -sizes))  # size desc, id asc
    for idx in order[: budget % L]:
        if alloc[idx] < sizes[idx]:
            alloc[idx] += 1
    while alloc.sum() < budget:
        alloc[order[alloc[order] < sizes[order]][0]] += 1
    return alloc.tolist()


@st.composite
def _plans(draw):
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=25))
    return sizes, draw(st.integers(1, sum(sizes)))


@st.composite
def _plans_in(draw, regime):
    """A plan whose base allocation falls short of B, overshoots it with B >= L, or has B < L."""
    if regime == "b_below_l":
        sizes = draw(st.lists(st.integers(1, 40), min_size=2, max_size=25))
        return sizes, draw(st.integers(1, len(sizes) - 1))
    if regime == "surplus":
        # many small clusters rounded up to a budget of 1, a few large ones
        sizes = draw(st.permutations(draw(st.lists(st.integers(1, 4), min_size=2, max_size=20))
                                     + draw(st.lists(st.integers(10, 300), min_size=1, max_size=4))))
        B = draw(st.integers(len(sizes), len(sizes) + 30))
        assume(_base_budgets(sizes, B)[0].sum() > B)
        return sizes, B
    sizes, B = draw(_plans())
    assume(_base_budgets(sizes, B)[0].sum() < B)
    return sizes, B


@st.composite
def _ccs_inputs(draw):
    # few distinct integer scores over many bins: empty and small bins
    scores = draw(st.lists(st.integers(0, 12), min_size=1, max_size=60))
    bins = draw(st.integers(1, 20))
    return scores, bins, draw(st.integers(1, len(scores)))


class TestRoundRobinFill:
    @settings(max_examples=300, deadline=None)
    @given(_plans())
    @example(([50, 30, 20], 7))  # deficit: floors [3, 2, 1]
    @example(([1, 1, 98], 10))  # surplus: base [1, 1, 9]
    @example(([5, 5, 5, 5, 5], 2))  # B < L: forced zeros
    @example(([3, 1, 1, 40], 30))  # deficit capped by a full cluster
    def test_allocate_budgets_matches_its_own_deficit_loop(self, plan):
        sizes, B = plan
        assert allocate_budgets(sizes, B).tolist() == _reference_allocate(sizes, B)

    @pytest.mark.parametrize("regime", ["deficit", "surplus", "b_below_l"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_allocate_budgets_matches_the_old_loops_in_each_regime(self, regime, data):
        sizes, B = data.draw(_plans_in(regime))
        assert allocate_budgets(sizes, B).tolist() == _reference_allocate(sizes, B)

    @settings(max_examples=300, deadline=None)
    @given(_ccs_inputs())
    @example(([0, 12], 5, 2))  # three empty bins
    @example(([0, 0, 0, 1, 12], 4, 5))  # bins of 4, 0, 0 and 1 rows: three rounds
    @example(([3, 3, 3], 50, 3))  # one score: a single bin
    def test_ccs_takes_match_its_own_advanced_loop(self, inputs):
        raw, bins, budget = inputs
        scores = np.asarray(raw, dtype=np.float64)
        lo, hi = scores.min(), scores.max()
        bin_of = np.zeros(scores.size, dtype=np.int64)
        if hi > lo:
            bin_of = np.minimum(((scores - lo) / (hi - lo) * bins).astype(np.int64), bins - 1)
        sizes = np.bincount(bin_of, minlength=bins)
        metas = [SampleMeta(id=f"r{i}", score=v) for i, v in enumerate(raw)]
        rows = _ccs_rows(metas, SelectionConfig(budget=budget, seed=4), bins)
        got = np.bincount(bin_of[rows], minlength=bins).tolist()
        assert got == _reference_ccs_take(sizes, budget)
        take = np.minimum(budget // bins, sizes)
        _old_fill_round_robin(take, sizes, np.arange(bins), budget)
        assert got == take.tolist()

    def test_average_allocation_gives_a_clamped_shortfall_to_the_largest_cluster(self):
        # base 12 // 4 = 3 clamps the last cluster to 1; the 2 missing units
        # both go to cluster 0, the largest with the lowest id
        assert _average_budgets([10, 10, 10, 1], 12).tolist() == [5, 3, 3, 1]

    @settings(max_examples=300, deadline=None)
    @given(_plans())
    @example(([1, 1, 40, 40, 3], 80))  # three clamped clusters: the shortfall spills past the largest
    def test_average_allocation_matches_the_unit_loop(self, plan):
        sizes, budget = plan
        assert _average_budgets(sizes, budget).tolist() == _reference_average_budgets(sizes, budget)

    def test_average_allocation_past_the_population_is_an_internal_error(self):
        # select rejects such a budget before k-means, so only a bug gets here
        with pytest.raises(InternalInvariantError):
            _average_budgets([2, 2], 5)


def naive_greedy_oracle(store, members, seeds, budget, sigma):
    """Recompute from-scratch entropies for every unselected member."""
    selected = list(seeds)
    while len(selected) < budget:
        base = von_neumann_entropy(build_similarity(store, selected, sigma))
        best_gain, best_row = None, None
        for cand in members:
            if cand in selected:
                continue
            e = von_neumann_entropy(build_similarity(store, selected + [cand], sigma))
            gain = e - base
            if best_gain is None or gain > best_gain or (gain == best_gain and cand < best_row):
                best_gain, best_row = gain, cand
        selected.append(best_row)
    return selected


class TestGreedySampleCluster:
    def test_exhaustion_returns_all_members_in_index_order(self):
        store, _ = gen_synthetic(30, 4, 2, 0.5, seed=1)
        members = np.array([9, 3, 17, 25])
        rng = np.random.default_rng(0)
        res = greedy_sample_cluster(store, members, 10, 5, 0.5, rng)
        assert res.selected.tolist() == [3, 9, 17, 25]
        assert res.entropy_trace.size == 4
        assert res.entropy_trace[0] == 0.0

    def test_returns_exactly_budget_rows(self):
        store, _ = gen_synthetic(60, 4, 3, 0.6, seed=2)
        rng = np.random.default_rng(1)
        res = greedy_sample_cluster(store, np.arange(60), 12, 7, 0.5, rng)
        assert res.selected.size == 12
        assert len(np.unique(res.selected)) == 12
        assert res.entropy_trace.size == 12

    def test_budget_one_single_seed(self):
        store, _ = gen_synthetic(20, 3, 2, 0.5, seed=3)
        rng = np.random.default_rng(2)
        res = greedy_sample_cluster(store, np.arange(20), 1, 5, 0.5, rng)
        assert res.selected.size == 1
        assert res.entropy_trace.tolist() == [0.0]

    def test_never_prefers_coincident_duplicate(self):
        # 3 coincident points + 2 distant points: with every candidate
        # visible, the third pick is never a duplicate of a selected
        # coincident point while a distinct point remains
        pts = np.vstack([np.zeros((3, 2)), [[10.0, 0.0]], [[0.0, 10.0]]])
        store = EmbeddingStore(pts)
        members = np.arange(5)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            res = greedy_sample_cluster(store, members, 3, 5, 0.5, rng)
            seeds, third = res.selected.tolist()[:2], int(res.selected[2])
            # the greedy pick never duplicates a selected coincident point
            # while a distinct point is still available (the seed pair is
            # random and may itself be coincident)
            if any(s < 3 for s in seeds):
                assert third >= 3, (seed, res.selected)

    def test_matches_naive_oracle_with_full_candidates(self):
        store, _ = gen_synthetic(120, 5, 4, 0.8, seed=4)
        for seed in range(8):
            members = np.sort(
                np.random.default_rng(100 + seed).choice(120, size=40, replace=False)
            )
            rng = np.random.default_rng(seed)
            res = greedy_sample_cluster(store, members, 9, members.size, 0.5, rng)
            want = naive_greedy_oracle(
                store, members.tolist(), res.selected[:2].tolist(), 9, 0.5
            )
            assert res.selected.tolist() == want

    def test_trace_matches_from_scratch_entropy(self):
        store, _ = gen_synthetic(50, 4, 2, 0.5, seed=5)
        rng = np.random.default_rng(3)
        res = greedy_sample_cluster(store, np.arange(50), 8, 10, 0.5, rng)
        for t in range(8):
            scratch = von_neumann_entropy(
                build_similarity(store, res.selected[: t + 1], 0.5)
            )
            assert res.entropy_trace[t] == pytest.approx(scratch, abs=1e-9)

    def test_entropy_trace_equals_augment_chain(self):
        store, _ = gen_synthetic(200, 6, 3, 0.7, seed=6)
        rng = np.random.default_rng(4)
        for size in (1, 2, 5, 17, 40):
            # a budget covering the cluster takes its members in index order
            order = np.sort(rng.choice(store.count, size=size, replace=False))
            # reference: grow the state one row at a time
            state = build_similarity(store, order[:1], 0.5)
            chain = [von_neumann_entropy(state)]
            for row in order[1:]:
                state = augment(state, store, int(row), 0.5)
                chain.append(von_neumann_entropy(state))
            got = greedy_sample_cluster(store, order, size, 5, 0.5, rng)
            assert got.selected.tolist() == order.tolist()
            assert got.entropy_trace.tobytes() == np.array(chain).tobytes()

    def test_errors(self):
        store, _ = gen_synthetic(10, 2, 1, 0.5, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            greedy_sample_cluster(store, np.array([], dtype=int), 2, 5, 0.5, rng)
        with pytest.raises(InputError):
            greedy_sample_cluster(store, np.arange(5), 0, 5, 0.5, rng)

    @pytest.mark.parametrize("sigma", [1e-150, 0.05, 0.5, 4.0, 1e150])
    def test_fixed_order_traces_equal_the_full_kernel_trace(self, sigma):
        store, _ = gen_synthetic(120, 5, 3, 0.6, seed=12)
        rng = np.random.default_rng(7)
        for size in (1, 2, 9, 40):
            members = rng.choice(store.count, size=size, replace=False)
            runs = [
                greedy_sample_cluster(store, members, size + 1, 5, sigma, rng),  # covers the cluster
                mmd_sample_cluster(store, members, size, sigma),  # covers the cluster
                mmd_sample_cluster(store, members, max(1, size // 2), sigma),
            ]
            for res in runs:
                want = _naive_trace(store, res.selected, sigma)
                assert res.entropy_trace.tobytes() == want.tobytes()


def _per_step_reference(store, members, budget, m, sigma, rng):
    """The greedy loop with a fresh state per step: kernel rows recomputed against the state, then augment."""
    members = np.sort(members)
    seeds = rng.choice(members, size=1 if budget == 1 else 2, replace=False)
    selected = [int(s) for s in seeds]
    trace = [von_neumann_entropy(build_similarity(store, seeds[: k + 1], sigma)) for k in range(seeds.size)]
    state = build_similarity(store, seeds, sigma)
    mask = np.isin(members, seeds)
    while len(selected) < budget:
        unselected = members[~mask]
        candidates = rng.choice(unselected, size=m, replace=False) if unselected.size > m else unselected
        kern = _kernel_block(store.data[candidates], store.data[state.member_rows], sigma)
        [pos], [entropy] = _best_bordered(
            state.matrix[None], kern, np.zeros(len(candidates), dtype=np.int64), candidates, np.array([trace[-1]])
        )
        chosen = int(candidates[pos])
        state = augment(state, store, chosen, sigma)
        selected.append(chosen)
        trace.append(entropy)
        mask[np.searchsorted(members, chosen)] = True
    return np.asarray(selected, dtype=np.int64), np.asarray(trace, dtype=np.float64)


@st.composite
def _cluster_runs(draw):
    """A store, a member subset, a budget below its size, a pool size, sigma and a seed.

    Rows are blobs or blobs with exact duplicates, shifted by ±2^k. Budgets
    include 1, 2 and n_c - 1; pool sizes above the unselected count make
    the whole remainder the pool.
    """
    n = draw(st.integers(2, 50))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.normal(size=(draw(st.integers(1, 4)), d)) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    data = centres[rng.integers(len(centres), size=n)]
    if draw(st.booleans()):
        data = data + draw(st.sampled_from([0.01, 0.1, 0.5])) * rng.normal(size=(n, d))
    data = data + draw(st.sampled_from([-1.0, 0.0, 1.0])) * 2.0 ** draw(st.integers(0, 30))
    members = rng.choice(n, size=draw(st.integers(2, n)), replace=False)
    budget = draw(st.one_of(st.sampled_from([1, 2, members.size - 1]), st.integers(1, members.size - 1)))
    budget = min(budget, members.size - 1)
    sigma = draw(st.one_of(st.sampled_from([1e-150, 1e-3, 1e3, 1e150]), st.floats(0.02, 8.0)))
    m = draw(st.integers(1, members.size + 5))
    return EmbeddingStore(data), members, budget, m, sigma, draw(st.integers(0, 2**32 - 1))


class TestKernelColumns:
    @settings(max_examples=80, deadline=None)
    @given(_cluster_runs())
    def test_equals_the_per_step_reference_bit_for_bit(self, run):
        store, members, budget, m, sigma, seed = run
        res = greedy_sample_cluster(store, members, budget, m, sigma, np.random.default_rng(seed))
        selected, trace = _per_step_reference(store, members, budget, m, sigma, np.random.default_rng(seed))
        assert res.selected.tolist() == selected.tolist()
        assert res.entropy_trace.tobytes() == trace.tobytes()


@st.composite
def _cluster_batches(draw):
    """Clusters of one store for one lock-step batch, a pool size, sigma and a seed per cluster.

    Near-identity clusters (distinct lattice rows 10 sigma apart, every
    kernel entry below e^-50) share the batch with bounded ones (rows
    within about sigma of a centre, some exact duplicates). Sizes include
    singletons; budgets include 1, 2, n_c - 1 and budgets at or above n_c;
    pools may exceed the unselected count. About one cluster in four comes
    with given picks that cover it in a random order, as an MMD selection
    does.
    """
    sigma = draw(st.sampled_from([0.05, 0.5, 3.0]))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, clusters, start = [], [], 0
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 24))
        if draw(st.booleans()):  # near-identity
            lattice = np.stack(np.unravel_index(rng.choice(30**d, size=n, replace=False), (30,) * d), axis=1)
            block = 10.0 * sigma * lattice
        else:
            block = rng.normal(size=d) + sigma * draw(st.sampled_from([0.05, 0.3, 1.0])) * rng.normal(size=(n, d))
            dup = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))
            block[dup] = block[0]
        blocks.append(block)
        budget = draw(st.one_of(st.sampled_from([1, 2, max(1, n - 1), n, n + 3]), st.integers(1, n)))
        first = rng.permutation(n) if draw(st.integers(0, 3)) == 0 else None
        clusters.append((start + rng.permutation(n), n if first is not None else budget, first))
        start += n
    seeds = [draw(st.integers(0, 2**32 - 1)) for _ in clusters]
    return EmbeddingStore(np.concatenate(blocks)), clusters, draw(st.integers(1, 30)), sigma, seeds


class TestLockStep:
    @settings(max_examples=60, deadline=None)
    @given(_cluster_batches())
    def test_each_cluster_equals_the_per_step_reference(self, batch):
        store, clusters, m, sigma, seeds = batch
        results = _greedy_batch(store, clusters, m, sigma, [np.random.default_rng(s) for s in seeds])
        for (members, budget, first), seed, res in zip(clusters, seeds, results):
            if first is None and budget < members.size:
                selected, trace = _per_step_reference(store, members, budget, m, sigma, np.random.default_rng(seed))
            else:  # the given picks, or all members in index order
                selected = np.sort(members)[np.arange(members.size) if first is None else first]
                trace = _naive_trace(store, selected, sigma)
            assert res.selected.tolist() == selected.tolist()
            assert res.entropy_trace.tobytes() == trace.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(_cluster_batches())
    def test_a_cluster_gets_the_same_bytes_alone_in_a_batch_and_in_reverse(self, batch):
        store, clusters, m, sigma, seeds = batch

        def run(order):
            res = _greedy_batch(store, [clusters[i] for i in order], m, sigma, [np.random.default_rng(seeds[i]) for i in order])
            return {i: (r.selected.tobytes(), r.entropy_trace.tobytes()) for i, r in zip(order, res)}

        together = run(list(range(len(clusters))))
        assert run(list(reversed(range(len(clusters))))) == together
        for i in range(len(clusters)):
            assert run([i]) == {i: together[i]}

    def test_clusters_that_finish_early_match_solo_runs(self):
        """Budgets n_c - 1, 1 and 2 finish at different steps; the pool of the first never reaches the others' rows."""
        store, _ = gen_synthetic(90, 4, 3, 0.7, seed=12)
        clusters = [(np.arange(0, 30), 29, None), (np.arange(30, 60), 1, None), (np.arange(60, 90), 2, None)]
        batch = _greedy_batch(store, clusters, 6, 0.5, [np.random.default_rng(s) for s in (3, 4, 5)])
        for (members, budget, _), s, res in zip(clusters, (3, 4, 5), batch):
            solo = greedy_sample_cluster(store, members, budget, 6, 0.5, np.random.default_rng(s))
            assert res.selected.tolist() == solo.selected.tolist()
            assert res.entropy_trace.tobytes() == solo.entropy_trace.tobytes()

    def test_select_does_not_depend_on_batching_or_workers(self, pipeline_data, monkeypatch):
        store, metas = pipeline_data
        runs = []
        # every cluster alone, the default, one batch: the caps cut greedy and
        # MMD runs alike, and only set the pool task size for MMD
        for cap in (1, sampler._BATCH_ELEMENTS, 1 << 40):
            monkeypatch.setattr(sampler, "_BATCH_ELEMENTS", cap)
            for strategy in ("exam", "exam_average_allocation", "mmd_minimize"):
                for workers in (1, 2, 3, 8):  # 3: an odd number of threads share the runs
                    events = []
                    cfg = SelectionConfig(budget=90, clusters=12, candidate_size=15, seed=4, workers=workers)
                    manifest, _ = select(store, metas, strategy, cfg, progress=lambda c, s, e: events.append((c, s, e)))
                    runs.append((cap, strategy, workers, serialize_selection_manifest(manifest), events))
        for strategy in ("exam", "exam_average_allocation", "mmd_minimize"):
            same = [(text, events) for _, s, _, text, events in runs if s == strategy]
            assert all(run == same[0] for run in same), strategy


@st.composite
def _run_plans(draw):
    """Cluster sizes and budgets (1 <= budget <= size), a cluster order and a run memory cap."""
    sizes, budgets = [], []
    for _ in range(draw(st.integers(0, 40))):
        sizes.append(draw(st.integers(1, 400)))
        budgets.append(draw(st.integers(1, sizes[-1])))
    order = draw(st.permutations(range(len(sizes))))
    return order, sizes, budgets, draw(st.sampled_from([1, 500, 1 << 12, 1 << 17, 1 << 40]))


class TestRuns:
    """``_batches`` cuts the cluster order into runs; ``select`` hands them to its threads."""

    @settings(max_examples=300, deadline=None)
    @given(_run_plans())
    def test_runs_cover_the_order_within_the_cap(self, plan):
        order, sizes, budgets, cap = plan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_BATCH_ELEMENTS", cap)
            runs = sampler._batches(order, sizes, budgets)

        def columns(run):
            return sum(sizes[cid] for cid in run) * max(budgets[cid] for cid in run)

        assert all(runs) and [cid for run in runs for cid in run] == order
        # a cluster above the cap runs alone, and a run ends only where the next cluster would pass it
        assert all(len(run) == 1 or columns(run) <= cap for run in runs)
        assert all(columns(run + nxt[:1]) > cap for run, nxt in zip(runs, runs[1:]))

    def test_the_calling_thread_samples_runs_with_the_pool(self, pipeline_data, monkeypatch):
        store, metas = pipeline_data
        threads = []

        def recording(*args):
            threads.append(threading.get_ident())
            return _greedy_batch(*args)

        monkeypatch.setattr(sampler, "_greedy_batch", recording)
        monkeypatch.setattr(sampler, "_BATCH_ELEMENTS", 1)  # one run per cluster
        caller = threading.get_ident()
        for workers in (1, 2, 3):
            threads.clear()
            cfg = SelectionConfig(budget=90, clusters=12, candidate_size=15, seed=4, workers=workers)
            select(store, metas, "exam", cfg)
            # the calling thread samples run 0 and pool thread j run j + 1, then each takes the next run left
            assert len(threads) == 12 and caller in threads
            assert len(set(threads)) == workers


class TestBoundTiers:
    """The g-pole tiers of ``_BOUND_POLES`` choose which candidates get solved, never the result."""

    def test_tiers_change_the_work_not_the_bytes(self, monkeypatch):
        # L2-normalized, so the bounds prune; per-cluster budgets of 90 take
        # the greedy past t = 64, where every tier runs
        store, metas = gen_synthetic(600, 16, 2, 1.0, seed=1)
        members = np.flatnonzero(np.linalg.norm(store.data, axis=1) < 30.0)  # blob 0: its shell has radius 20
        cfg = SelectionConfig(budget=180, clusters=2, seed=3, normalize=True)
        pole_bounds, beaten, bordered = entropy._pole_bounds, entropy._beaten, entropy._bordered_entropies
        default, runs, solves = entropy._BOUND_POLES, {}, {}
        for tiers in ((4,), default):
            monkeypatch.setattr(entropy, "_BOUND_POLES", tiers)
            tier, ruled_out, solved = [None], dict.fromkeys(tiers, 0), [0]

            def counted_bounds(lam, total, z, state, g):
                tier[0] = g
                return pole_bounds(lam, total, z, state, g)

            def counted_beaten(*args):
                out = beaten(*args)
                if tier[0] in ruled_out:  # the first _beaten after a tier's bounds is its prune
                    ruled_out[tier[0]] += int(out.sum())
                tier[0] = None
                return out

            def counted_solves(mats, kern, owner):
                solved[0] += kern.shape[0]
                return bordered(mats, kern, owner)

            monkeypatch.setattr(entropy, "_pole_bounds", counted_bounds)
            monkeypatch.setattr(entropy, "_beaten", counted_beaten)
            monkeypatch.setattr(entropy, "_bordered_entropies", counted_solves)
            res = greedy_sample_cluster(store.l2_normalized(), members, 90, 100, 0.5, np.random.default_rng(1))
            manifest, _ = select(store, metas, "exam", cfg)
            assert max(rec.budget for rec in manifest.per_cluster) > 65
            traces = np.concatenate([rec.entropy_trace for rec in manifest.per_cluster])
            runs[tiers] = (res.selected.tolist(), res.entropy_trace.tobytes(), serialize_selection_manifest(manifest), traces.tobytes())
            solves[tiers] = solved[0]
            assert all(count >= 1 for count in ruled_out.values()), ruled_out  # no tier is dead code
        assert runs[default] == runs[(4,)]
        assert solves[default] < solves[(4,)]


class TestDirectSolve:
    """A state whose candidates all fit in the first exact batch is solved with no ``eigh``: no bound could rule one out."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @pytest.fixture
    def store(self):
        return gen_synthetic(60, 4, 2, 0.5, seed=3)[0]

    def test_best_bordered_solves_states_of_one_or_two_candidates_directly(self, store, eigh_calls):
        rng = np.random.default_rng(14)
        states = [build_similarity(store, rng.choice(60, size=5, replace=False), 0.5) for _ in range(3)]
        mats = np.stack([state.matrix for state in states])
        base = np.array([von_neumann_entropy(state) for state in states])

        def best(counts):
            cands = [rng.choice(np.setdiff1d(np.arange(60), s.member_rows), size=c, replace=False) for s, c in zip(states, counts)]
            kern = np.concatenate([_kernel_block(store.data[c], store.data[s.member_rows], 0.5) for s, c in zip(states, cands)])
            owner = np.repeat(np.arange(3), counts)
            pos, entropies = _best_bordered(mats, kern, owner, np.concatenate(cands), base)
            want = entropy._bordered_entropies(mats, kern, owner)  # every candidate solved
            gains = want - base[owner]
            assert (owner[pos] == np.arange(3)).all()
            assert entropies.tobytes() == want[pos].tobytes()
            assert all(gains[pos[s]] == gains[owner == s].max() for s in range(3))

        best([1, 2, 1])
        assert eigh_calls == []
        best([1, 3, 2])  # a state of three candidates is bounded: the states are not near-identity
        assert eigh_calls == [(1, 5, 5)]

    @pytest.mark.parametrize("m", [1, 2])
    def test_greedy_at_one_or_two_candidates_runs_no_eigh(self, store, eigh_calls, m):
        rng = np.random.default_rng(9)
        res = greedy_sample_cluster(store, np.arange(60), 12, m, 0.5, rng)
        assert eigh_calls == []
        assert res.entropy_trace.tobytes() == _naive_trace(store, res.selected, 0.5).tobytes()
        greedy_sample_cluster(store, np.arange(60), 12, 3, 0.5, rng)
        assert eigh_calls  # at m = 3 the bounds run: the cluster is not near-identity


def _manifest_records(manifest):
    """(cluster, step, entropy) of each selected sample."""
    return [(rec.cluster_id, step, e) for rec in manifest.per_cluster for step, e in enumerate(rec.entropy_trace or ())]


@pytest.fixture(scope="module")
def pipeline_data():
    store, metas = gen_synthetic(600, 6, 5, 0.3, seed=20)
    return store, metas


class TestExamSelect:
    def test_budget_equals_postfilter_selects_everything(self, pipeline_data):
        store, metas = pipeline_data
        kept_size = 600 - 2 * int(600 * 0.05)
        cfg = SelectionConfig(budget=kept_size, clusters=5, candidate_size=10, seed=1, workers=2)
        manifest = select(store, metas, "exam", cfg)[0]
        assert len(manifest.selected) == kept_size
        assert set(manifest.selected) | set(manifest.filtered_out) == {m.id for m in metas}

    def test_deterministic_and_worker_invariant(self, pipeline_data):
        store, metas = pipeline_data
        texts = []
        for workers in (1, 2, 8):
            cfg = SelectionConfig(budget=60, clusters=5, candidate_size=15, seed=9, workers=workers)
            texts.append(serialize_selection_manifest(select(store, metas, "exam", cfg)[0]))
        assert texts[0] == texts[1] == texts[2]
        cfg = SelectionConfig(budget=60, clusters=5, candidate_size=15, seed=9, workers=2)
        again = serialize_selection_manifest(select(store, metas, "exam", cfg)[0])
        assert again == texts[0]

    def test_budget_exceeding_postfilter_rejected(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=600, clusters=5, seed=0)
        with pytest.raises(InputError, match="post-filter"):
            select(store, metas, "exam", cfg)

    def test_selected_are_kept_and_unique(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=80, clusters=6, candidate_size=20, seed=3, workers=2)
        manifest = select(store, metas, "exam", cfg)[0]
        assert len(manifest.selected) == 80
        assert len(set(manifest.selected)) == 80
        assert not set(manifest.selected) & set(manifest.filtered_out)
        spent = sum(len(r.selected_ids) for r in manifest.per_cluster)
        assert spent == 80

    def test_entropy_trace_alignment(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=40, clusters=4, candidate_size=10, seed=7)
        manifest = select(store, metas, "exam", cfg)[0]
        traces = [rec.entropy_trace for rec in manifest.per_cluster if rec.selected_ids]
        assert all(trace is not None for trace in traces)
        assert sum(len(trace) for trace in traces) == 40
        # per-cluster final entropy equals the last trace entry of the cluster
        for rec in manifest.per_cluster:
            if rec.selected_ids:
                assert rec.entropy_trace[-1] == rec.final_entropy

    def test_normalize_flag_changes_result(self, pipeline_data):
        store, metas = pipeline_data
        a = select(store, metas, "exam", SelectionConfig(budget=30, clusters=4, seed=5))[0]
        b = select(store, metas, "exam", SelectionConfig(budget=30, clusters=4, seed=5, normalize=True))[0]
        assert a.selected != b.selected

    def test_progress_events_emitted(self, pipeline_data):
        store, metas = pipeline_data
        for strategy in ("exam", "exam_average_allocation"):
            runs = []
            for workers in (1, 2, 8):
                events = []
                cfg = SelectionConfig(budget=20, clusters=3, candidate_size=10, seed=2, workers=workers)
                progress = lambda c, s, e: events.append((c, s, e))
                manifest, _ = select(store, metas, strategy, cfg, progress=progress)
                assert len(events) == 20
                assert {c for c, _, _ in events} == {0, 1, 2}
                assert sorted(events) == sorted(_manifest_records(manifest))
                runs.append(events)
            # one cluster's events at a time, in submission order, whatever the thread count
            assert runs[0] == runs[1] == runs[2], strategy

    def test_singleton_cluster_entropy_is_positive_zero(self):
        # an outlier forms its own cluster, which is exhausted at budget 1
        rng = np.random.default_rng(12)
        store = EmbeddingStore(np.vstack([rng.normal(size=(30, 3)), [[100.0, 0.0, 0.0]]]))
        metas = [SampleMeta(id=f"p{i}", ppl=1.0 + i) for i in range(31)]
        cfg = SelectionConfig(budget=5, clusters=2, candidate_size=10, tail_low=0.0, tail_high=0.0)
        manifest = select(store, metas, "exam", cfg)[0]
        assert any(len(r.selected_ids) == 1 and r.budget == 1 for r in manifest.per_cluster)
        tokens = serialize_selection_manifest(manifest).split()
        assert "0.0" in tokens
        assert "-0.0" not in tokens


class TestBaselineSelect:
    def test_random_exhaustion(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=600, clusters=5, seed=0)
        manifest = select(store, metas, "random", cfg)[0]
        assert sorted(manifest.selected) == sorted(m.id for m in metas)

    def test_budget_over_dataset_size_rejected(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=601, clusters=5, seed=0)
        for strategy in ("random", "mid_score", "ccs"):  # ahead of the ccs bin check
            with pytest.raises(InputError, match="budget 601 exceeds dataset size 600"):
                select(store, metas, strategy, cfg, bins=0)

    def test_mid_score_picks_rank_median(self):
        store = EmbeddingStore(np.random.default_rng(0).normal(size=(100, 3)))
        metas = [SampleMeta(id=f"r{i:03d}", score=float(i + 1)) for i in range(100)]
        cfg = SelectionConfig(budget=2, clusters=5, seed=0)
        manifest = select(store, metas, "mid_score", cfg)[0]
        assert sorted(manifest.selected) == ["r049", "r050"]  # scores 50 and 51

    def test_ccs_uniform_scores_one_per_bin(self):
        rng = np.random.default_rng(1)
        store = EmbeddingStore(rng.normal(size=(2000, 3)))
        metas = [SampleMeta(id=f"c{i:04d}", score=float(s)) for i, s in enumerate(rng.uniform(0, 1, 2000))]
        cfg = SelectionConfig(budget=50, clusters=5, seed=3)
        manifest = select(store, metas, "ccs", cfg, bins=50)[0]
        assert len(manifest.selected) == 50
        # brute-force bin assignment: every nonempty bin contributes exactly one
        scores = np.array([m.score for m in metas])
        lo, hi = scores.min(), scores.max()
        bins = np.minimum(((scores - lo) / (hi - lo) * 50).astype(int), 49)
        row_of = {m.id: i for i, m in enumerate(metas)}
        got_bins = sorted(bins[row_of[sid]] for sid in manifest.selected)
        nonempty = sorted(set(bins.tolist()))
        assert got_bins == nonempty

    def test_ccs_deficit_redistributed(self):
        # all scores identical: a single populated bin absorbs the budget
        store = EmbeddingStore(np.random.default_rng(2).normal(size=(30, 2)))
        metas = [SampleMeta(id=f"d{i}", score=1.0) for i in range(30)]
        cfg = SelectionConfig(budget=12, clusters=3, seed=1)
        manifest = select(store, metas, "ccs", cfg, bins=50)[0]
        assert len(manifest.selected) == 12

    def test_exam_average_allocation_budgets(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=23, clusters=5, candidate_size=10, seed=11)
        manifest = select(store, metas, "exam_average_allocation", cfg)[0]
        budgets = sorted(r.budget for r in manifest.per_cluster)
        # equal split of 23 over 5 clusters: remainder 3 goes to the largest
        assert budgets == [4, 4, 5, 5, 5]
        assert len(manifest.selected) == 23

    def test_mmd_first_pick_is_most_central(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(40, 2))
        store = EmbeddingStore(pts)
        res = mmd_sample_cluster(store, np.arange(40), 5, 1.0)
        from egms.entropy import _kernel_block

        mu = _kernel_block(pts, pts, 1.0).mean(axis=1)
        assert res.selected[0] == np.argmax(mu)
        assert res.selected.size == 5

    def test_mmd_progress_matches_manifest(self, pipeline_data):
        store, metas = pipeline_data
        for workers in (1, 3):
            events = []
            cfg = SelectionConfig(budget=25, clusters=4, seed=21, workers=workers)
            manifest = select(
                store, metas, "mmd_minimize", cfg, progress=lambda c, s, e: events.append((c, s, e))
            )[0]
            assert sorted(events) == sorted(_manifest_records(manifest))
            assert len(events) == 25

    def test_mmd_objective_decreases_vs_random(self):
        # greedy MMD^2 should not exceed the mean random-subset MMD^2
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(60, 3))
        store = EmbeddingStore(pts)
        from egms.entropy import _kernel_block

        kern = _kernel_block(pts, pts, 1.0)

        def mmd2(rows):
            rows = np.asarray(rows)
            return kern[np.ix_(rows, rows)].mean() - 2 * kern[rows].mean() + kern.mean()

        res = mmd_sample_cluster(store, np.arange(60), 8, 1.0)
        rand_vals = [
            mmd2(rng.choice(60, size=8, replace=False)) for _ in range(50)
        ]
        assert mmd2(res.selected) <= np.mean(rand_vals)

    def test_every_strategy_selects_exactly_budget(self, pipeline_data):
        store, metas = pipeline_data
        from egms import STRATEGIES

        for strategy in STRATEGIES:
            cfg = SelectionConfig(budget=37, clusters=5, candidate_size=10, seed=13, workers=2)
            manifest = select(store, metas, strategy, cfg)[0]
            assert len(manifest.selected) == 37, strategy
            assert len(set(manifest.selected)) == 37, strategy

    def test_missing_scores_rejected(self):
        store = EmbeddingStore(np.random.default_rng(6).normal(size=(10, 2)))
        metas = [SampleMeta(id=f"m{i}") for i in range(10)]
        cfg = SelectionConfig(budget=4, clusters=2, seed=0)
        with pytest.raises(InputError):
            select(store, metas, "mid_score", cfg)

    def test_unknown_strategy_rejected(self, pipeline_data):
        store, metas = pipeline_data
        with pytest.raises(InputError, match="unknown strategy"):
            select(store, metas, "coinflip", SelectionConfig(budget=5))

    @pytest.mark.parametrize("budget", [2, 3])
    def test_duplicate_members_rejected_by_both_cluster_samplers(self, budget):
        store = EmbeddingStore(np.random.default_rng(7).normal(size=(10, 2)))
        with pytest.raises(InputError, match="cluster members must be distinct"):
            mmd_sample_cluster(store, [5, 5, 6], budget, 0.5)
        with pytest.raises(InputError, match="cluster members must be distinct"):
            greedy_sample_cluster(store, [5, 5, 6], budget, 4, 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("budget", [2, 3])
    def test_members_out_of_range_or_bad_sigma_rejected_by_both_cluster_samplers(self, budget):
        store = EmbeddingStore(np.random.default_rng(7).normal(size=(10, 2)))
        for members, sigma, match in [
            ([-1, 5, 6], 0.5, r"cluster member out of range \[0, 10\)"),
            ([5, 6, 10], 0.5, r"cluster member out of range \[0, 10\)"),
            ([4, 5, 6], 0.0, "sigma must be finite and > 0"),
            ([4, 5, 6], float("nan"), "sigma must be finite and > 0"),
            ([4, 5, 6], 1e-200, "underflows"),
        ]:
            with pytest.raises(InputError, match=match):
                mmd_sample_cluster(store, members, budget, sigma)
            with pytest.raises(InputError, match=match):
                greedy_sample_cluster(store, members, budget, 4, sigma, np.random.default_rng(0))

    def test_baselines_deterministic(self, pipeline_data):
        store, metas = pipeline_data
        from egms import STRATEGIES

        for strategy in STRATEGIES:
            texts = []
            for workers in (1, 3, 3):  # worker invariance and repeat determinism
                cfg = SelectionConfig(budget=25, clusters=4, candidate_size=10, seed=21, workers=workers)
                texts.append(serialize_selection_manifest(select(store, metas, strategy, cfg)[0]))
            assert texts[0] == texts[1] == texts[2], strategy


def test_mmd_memory_bounded_on_a_large_cluster():
    import tracemalloc

    store = EmbeddingStore(np.random.default_rng(8).normal(size=(1600, 16)))
    tracemalloc.start()
    try:
        res = mmd_sample_cluster(store, np.arange(1600), 4, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.selected.size == 4
    assert peak < 64 * 2**20


@st.composite
def _grid_corpora(draw, max_k):
    """Rows on a 2^-10 grid in [-4, 4), ppl per row, a config, and a shift ±2^k.

    Shifted values are exact in float64 for k <= 30 and in float32 for
    k <= 12 (at most 23 significant bits), so the data moves without rounding.
    """
    n = draw(st.integers(20, 80))
    d = draw(st.integers(1, 4))
    grid = draw(st.lists(st.integers(-4096, 4095), min_size=n * d, max_size=n * d))
    ppls = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    kept = n - 2 * int(n * 0.05)
    cfg = SelectionConfig(
        budget=draw(st.integers(1, kept)),
        clusters=draw(st.integers(1, 6)),
        candidate_size=draw(st.integers(1, 12)),
        sigma=draw(st.sampled_from([0.05, 0.5, 4.0])),
        seed=draw(st.integers(0, 2**32)),
        workers=2,
    )
    shift = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(0, max_k))
    data = np.asarray(grid, dtype=np.float64).reshape(n, d) / 1024.0
    metas = [SampleMeta(id=f"g{i}", ppl=float(p)) for i, p in enumerate(ppls)]
    return data, metas, cfg, shift


class TestShiftInvariance:
    @settings(max_examples=30, deadline=None)
    @given(_grid_corpora(max_k=30))
    def test_exam_select_ignores_a_constant_shift(self, corpus):
        data, metas, cfg, shift = corpus
        base = select(EmbeddingStore(data), metas, "exam", cfg)[0]
        moved = select(EmbeddingStore(data + shift), metas, "exam", cfg)[0]
        assert moved.selected == base.selected
        assert serialize_selection_manifest(moved) == serialize_selection_manifest(base)

    @settings(max_examples=15, deadline=None)
    @given(_grid_corpora(max_k=12))
    def test_shift_survives_the_embedding_file(self, tmp_path_factory, corpus):
        data, metas, cfg, shift = corpus
        folder = tmp_path_factory.mktemp("shift")
        selections = []
        for name, values in (("base", data), ("moved", data + shift)):
            write_embedding_store(folder / f"{name}.bin", EmbeddingStore(values))
            loaded = load_embedding_store(folder / f"{name}.bin")
            assert np.array_equal(loaded.data, values)
            selections.append(select(loaded, metas, "exam", cfg)[0].selected)
        assert selections[0] == selections[1]


def _all_ties_order(members, budget, m, rng):
    """Greedy order when every gain ties: random seeds, then the lowest-index candidate."""
    if budget >= members.size:
        return members.tolist()
    seeds = rng.choice(members, size=1 if budget == 1 else 2, replace=False)
    selected = [int(s) for s in seeds]
    mask = np.isin(members, seeds)
    while len(selected) < budget:
        unselected = members[~mask]
        candidates = rng.choice(unselected, size=m, replace=False) if unselected.size > m else unselected
        chosen = int(candidates.min())
        selected.append(chosen)
        mask[np.searchsorted(members, chosen)] = True
    return selected


@st.composite
def _identical_rows(draw):
    """n copies of one row on a 2^-10 grid (constant or not), a shift ±2^k, L up to |kept|."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        row = [draw(st.integers(-4096, 4095))] * d
    else:
        row = draw(st.lists(st.integers(-4096, 4095), min_size=d, max_size=d))
    shift = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 2.0 ** draw(st.integers(0, 12))
    data = np.tile(np.asarray(row, dtype=np.float64) / 1024.0 + shift, (n, 1))
    ppls = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    kept = n - 2 * int(n * 0.05)
    cfg = SelectionConfig(
        budget=draw(st.integers(1, kept)),
        clusters=draw(st.integers(1, kept)),
        candidate_size=draw(st.integers(1, 12)),
        sigma=draw(st.sampled_from([0.05, 0.5, 4.0])),
        seed=draw(st.integers(0, 2**32)),
        workers=2,
    )
    metas = [SampleMeta(id=f"r{i}", ppl=float(p)) for i, p in enumerate(ppls)]
    return data, metas, cfg


def _assert_all_ties_replay(tmp_path_factory, store, metas, cfg):
    """``select`` and ``egms select`` agree, exit 0, and every cluster follows the all-ties replay."""
    manifest, assignment = select(store, metas, "exam", cfg)
    assert all(m.size > 0 for m in assignment.members)
    ids = [m.id for m in metas]
    for rec in manifest.per_cluster:
        if rec.budget == 0:
            continue
        members = assignment.members[rec.cluster_id]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[cfg.seed, 2, rec.cluster_id]))  # stream tag 2
        expected = _all_ties_order(members, rec.budget, cfg.candidate_size, rng)
        assert rec.selected_ids == tuple(ids[r] for r in expected)

    folder = tmp_path_factory.mktemp("ties")
    write_embedding_store(folder / "e.bin", store)
    write_sample_manifest(folder / "m.jsonl", metas)
    rc = main(
        [
            "select",
            "--embeddings", str(folder / "e.bin"), "--manifest", str(folder / "m.jsonl"),
            "--budget", str(cfg.budget), "--clusters", str(cfg.clusters),
            "--candidates", str(cfg.candidate_size), "--sigma", str(cfg.sigma),
            "--seed", str(cfg.seed), "--workers", "2", "--out", str(folder / "sel.txt"), "--quiet",
        ]
    )
    assert rc == 0
    assert (folder / "sel.txt").read_text() == serialize_selection_manifest(manifest)
    return assignment


class TestIdenticalRows:
    @settings(max_examples=40, deadline=None)
    @given(_identical_rows())
    def test_every_gain_ties_to_the_lowest_index(self, tmp_path_factory, corpus):
        data, metas, cfg = corpus
        assignment = _assert_all_ties_replay(tmp_path_factory, EmbeddingStore(data), metas, cfg)
        assert assignment.inertia == 0.0


@st.composite
def _distinct_rows(draw, sigmas):
    """n distinct rows on a 2^-10 grid in [-4, 4), a shift ±2^k, and a sigma from ``sigmas``.

    Distinct grid rows are at least 2^-10 apart and at most 2^4 sqrt(d)
    apart, so every sigma in ``_SIGMA_TO_ZERO`` makes every off-diagonal
    kernel entry exactly 0 and every one in ``_SIGMA_TO_INFINITY`` makes it
    exactly 1.
    """
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(-4096, 4095)] * d), min_size=n, max_size=n, unique=True
        )
    )
    shift = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 2.0 ** draw(st.integers(0, 12))
    data = np.asarray(rows, dtype=np.float64) / 1024.0 + shift
    ppls = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    kept = n - 2 * int(n * 0.05)
    cfg = SelectionConfig(
        budget=draw(st.integers(1, kept)),
        clusters=draw(st.integers(1, kept)),
        candidate_size=draw(st.integers(1, 12)),
        sigma=draw(st.sampled_from(sigmas)),
        seed=draw(st.integers(0, 2**32)),
        workers=2,
    )
    metas = [SampleMeta(id=f"r{i}", ppl=float(p)) for i, p in enumerate(ppls)]
    return data, metas, cfg


_SIGMA_TO_ZERO = (1e-150, 1e-60, 1e-20, 1e-6)  # 2 sigma^2 stays above 0, as _check_sigma requires
_SIGMA_TO_INFINITY = (1e10, 1e50, 1e150, 1e300)  # finite; 2 sigma^2 may overflow to inf


class TestExtremeSigma:
    """Every candidate's bordered matrix is the same, so every gain ties and every bound ties with the best."""

    @settings(max_examples=30, deadline=None)
    @given(_distinct_rows(_SIGMA_TO_ZERO))
    def test_sigma_to_zero_ties_to_the_lowest_index(self, tmp_path_factory, corpus):
        data, metas, cfg = corpus
        store = EmbeddingStore(data)
        kernel = build_similarity(store, np.arange(store.count), cfg.sigma).matrix
        assert np.array_equal(kernel, np.eye(store.count))
        _assert_all_ties_replay(tmp_path_factory, store, metas, cfg)

    @settings(max_examples=30, deadline=None)
    @given(_distinct_rows(_SIGMA_TO_INFINITY))
    def test_sigma_to_infinity_ties_to_the_lowest_index(self, tmp_path_factory, corpus):
        data, metas, cfg = corpus
        store = EmbeddingStore(data)
        kernel = build_similarity(store, np.arange(store.count), cfg.sigma).matrix
        assert np.array_equal(kernel, np.ones((store.count, store.count)))
        _assert_all_ties_replay(tmp_path_factory, store, metas, cfg)


def test_far_apart_tight_blobs_select_without_an_internal_error():
    # 3e7 separation/spread: expanded-form distances |x|^2 - 2x.c + |c|^2
    # cancel here, so the assignment's labels and distances must come from
    # explicit differences for the inertia to stay non-increasing
    rng = np.random.default_rng(0)
    centres = np.zeros((2, 8))
    centres[1, 0] = 3e4
    data = centres[np.repeat([0, 1], 1000)] + 1e-3 * rng.normal(size=(2000, 8))
    store = EmbeddingStore(data.astype(np.float32).astype(np.float64))
    metas = [SampleMeta(id=f"b{i}", ppl=float(p)) for i, p in enumerate(rng.uniform(1.0, 50.0, 2000))]
    manifest, _ = select(store, metas, "exam", SelectionConfig(budget=100, clusters=10, seed=0))
    assert len(manifest.selected) == 100


@st.composite
def _far_blobs(draw):
    """2-4 tight blobs about 2^k spreads apart (k up to 30), exact in float32, L at least the blob count."""
    blobs = draw(st.integers(2, 4))
    d = draw(st.integers(1, 8))
    n = blobs * draw(st.integers(4, 50))
    spread = 10.0 ** draw(st.integers(-4, 0))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = gen.normal(size=(blobs, d)) * spread * 2.0 ** draw(st.integers(0, 30))
    data = centres[np.arange(n) % blobs] + spread * gen.normal(size=(n, d))
    data = data.astype(np.float32).astype(np.float64)
    ppls = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    kept = n - 2 * int(n * 0.05)
    cfg = SelectionConfig(
        budget=draw(st.integers(1, min(kept, 20))),
        clusters=draw(st.integers(blobs, min(kept, 12))),
        candidate_size=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32)),
        workers=2,
    )
    metas = [SampleMeta(id=f"r{i}", ppl=float(p)) for i, p in enumerate(ppls)]
    return data, metas, cfg


@settings(max_examples=25, deadline=None)
@given(_far_blobs())
def test_far_apart_blobs_select_with_nearest_centroid_labels(tmp_path_factory, corpus):
    data, metas, cfg = corpus
    store = EmbeddingStore(data)
    manifest, assignment = select(store, metas, "exam", cfg)
    if assignment.inertia_history.size < clustering.MAX_ITER:
        # converged: the centroids moved less than SHIFT_TOL since the labels
        # were taken as the nearest ones, so each row's own centroid is
        # within 2 SHIFT_TOL of its nearest (plus the rounding of translating back)
        kept = filter_extremes(resolve_ppls(metas), 0.05, 0.05).kept
        diff = data[kept][:, None, :] - assignment.centroids[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        own = dist[np.arange(kept.size), assignment.labels]
        slack = 2.0 * clustering.SHIFT_TOL + 1e-12 * (1.0 + np.abs(data).max())
        assert np.all(own <= dist.min(axis=1) + slack)

    folder = tmp_path_factory.mktemp("far")
    write_embedding_store(folder / "e.bin", store)
    write_sample_manifest(folder / "m.jsonl", metas)
    rc = main(
        [
            "select",
            "--embeddings", str(folder / "e.bin"), "--manifest", str(folder / "m.jsonl"),
            "--budget", str(cfg.budget), "--clusters", str(cfg.clusters),
            "--candidates", str(cfg.candidate_size), "--seed", str(cfg.seed),
            "--workers", "2", "--out", str(folder / "sel.txt"), "--quiet",
        ]
    )
    assert rc == 0
    assert (folder / "sel.txt").read_text() == serialize_selection_manifest(manifest)

"""Budget allocation, greedy cluster sampling, pipeline, and baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egms import (
    EmbeddingStore,
    InputError,
    InternalInvariantError,
    SampleMeta,
    SelectionConfig,
    allocate_budgets,
    augment,
    baseline_select,
    build_similarity,
    exam_select,
    gen_synthetic,
    greedy_sample_cluster,
    load_embedding_store,
    mmd_sample_cluster,
    serialize_selection_manifest,
    von_neumann_entropy,
    write_embedding_store,
    write_sample_manifest,
)
from egms.cli import main
from egms.entropy import _best_bordered, _kernel_block
from egms.sampler import _cluster_rng, _exam_select


class TestAllocateBudgets:
    def test_exact_proportional_floors(self):
        plan = allocate_budgets([50, 30, 20], 10)
        assert [b for _, b in plan.per_cluster] == [5, 3, 2]
        assert plan.total_allocated == 10

    def test_single_cluster(self):
        plan = allocate_budgets([10], 5)
        assert plan.per_cluster == ((0, 5),)

    def test_overshoot_reconciled_from_smallest_fraction(self):
        # base max(1, floor) gives [1, 1, 9] summing to 11; one unit comes
        # back from the only cluster that can spare it
        plan = allocate_budgets([1, 1, 98], 10)
        budgets = [b for _, b in plan.per_cluster]
        assert budgets == [1, 1, 8]
        assert sum(budgets) == 10

    def test_overshoot_example_minimizes_deviation(self):
        sizes, B = [1, 1, 98], 10
        exact = [s / sum(sizes) * B for s in sizes]
        got = [b for _, b in allocate_budgets(sizes, B).per_cluster]
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
            plan = allocate_budgets(sizes, B)
            budgets = np.array([b for _, b in plan.per_cluster])
            assert budgets.sum() == B
            assert (budgets <= np.array(sizes)).all()
            if B >= L:
                assert (budgets >= 1).all()

    def test_equal_size_clusters_symmetric(self):
        plan = allocate_budgets([7, 7, 7, 7], 9)
        budgets = [b for _, b in plan.per_cluster]
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
        assert res.initial_pair == tuple(res.selected[:2])

    def test_budget_one_single_seed(self):
        store, _ = gen_synthetic(20, 3, 2, 0.5, seed=3)
        rng = np.random.default_rng(2)
        res = greedy_sample_cluster(store, np.arange(20), 1, 5, 0.5, rng)
        assert res.selected.size == 1
        assert res.entropy_trace.tolist() == [0.0]
        assert len(res.initial_pair) == 1

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
                store, members.tolist(), list(res.initial_pair), 9, 0.5
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
        from egms.sampler import _entropy_trace

        store, _ = gen_synthetic(200, 6, 3, 0.7, seed=6)
        rng = np.random.default_rng(4)
        for size in (1, 2, 5, 17, 40):
            order = rng.choice(store.count, size=size, replace=False)
            # reference: grow the state one row at a time
            state = build_similarity(store, order[:1], 0.5)
            chain = [von_neumann_entropy(state)]
            for row in order[1:]:
                state = augment(state, store, int(row), 0.5)
                chain.append(von_neumann_entropy(state))
            got = _entropy_trace(build_similarity(store, order, 0.5).matrix)
            assert got.tobytes() == np.array(chain).tobytes()

    def test_errors(self):
        store, _ = gen_synthetic(10, 2, 1, 0.5, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            greedy_sample_cluster(store, np.array([], dtype=int), 2, 5, 0.5, rng)
        with pytest.raises(InputError):
            greedy_sample_cluster(store, np.arange(5), 0, 5, 0.5, rng)


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
        pos, entropy = _best_bordered(state.matrix, kern, candidates, trace[-1])
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


def _manifest_records(manifest):
    """(cluster, step, entropy) of each selected sample."""
    return list(zip(manifest.selected_clusters, manifest.selected_steps, manifest.pipeline_entropy_trace))


@pytest.fixture(scope="module")
def pipeline_data():
    store, metas = gen_synthetic(600, 6, 5, 0.3, seed=20)
    return store, metas


class TestExamSelect:
    def test_budget_equals_postfilter_selects_everything(self, pipeline_data):
        store, metas = pipeline_data
        kept_size = 600 - 2 * int(600 * 0.05)
        cfg = SelectionConfig(budget=kept_size, clusters=5, candidate_size=10, seed=1, workers=2)
        manifest = exam_select(store, metas, cfg)
        assert len(manifest.selected) == kept_size
        assert set(manifest.selected) | set(manifest.filtered_out) == {m.id for m in metas}

    def test_deterministic_and_worker_invariant(self, pipeline_data):
        store, metas = pipeline_data
        texts = []
        for workers in (1, 2, 8):
            cfg = SelectionConfig(budget=60, clusters=5, candidate_size=15, seed=9, workers=workers)
            texts.append(serialize_selection_manifest(exam_select(store, metas, cfg)))
        assert texts[0] == texts[1] == texts[2]
        again = serialize_selection_manifest(
            exam_select(store, metas, SelectionConfig(budget=60, clusters=5, candidate_size=15, seed=9, workers=2))
        )
        assert again == texts[0]

    def test_budget_exceeding_postfilter_rejected(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=600, clusters=5, seed=0)
        with pytest.raises(InputError, match="post-filter"):
            exam_select(store, metas, cfg)

    def test_selected_are_kept_and_unique(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=80, clusters=6, candidate_size=20, seed=3, workers=2)
        manifest = exam_select(store, metas, cfg)
        assert len(manifest.selected) == 80
        assert len(set(manifest.selected)) == 80
        assert not set(manifest.selected) & set(manifest.filtered_out)
        spent = sum(len(r.selected_ids) for r in manifest.per_cluster)
        assert spent == 80

    def test_entropy_trace_alignment(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=40, clusters=4, candidate_size=10, seed=7)
        manifest = exam_select(store, metas, cfg)
        assert manifest.pipeline_entropy_trace is not None
        assert len(manifest.pipeline_entropy_trace) == 40
        # per-cluster final entropy equals the last trace entry of the cluster
        for rec in manifest.per_cluster:
            if not rec.selected_ids:
                continue
            idx = [i for i, c in enumerate(manifest.selected_clusters) if c == rec.cluster_id]
            assert manifest.pipeline_entropy_trace[idx[-1]] == rec.final_entropy

    def test_normalize_flag_changes_result(self, pipeline_data):
        store, metas = pipeline_data
        a = exam_select(store, metas, SelectionConfig(budget=30, clusters=4, seed=5))
        b = exam_select(store, metas, SelectionConfig(budget=30, clusters=4, seed=5, normalize=True))
        assert a.selected != b.selected

    def test_progress_events_emitted(self, pipeline_data):
        store, metas = pipeline_data
        for strategy in ("exam", "exam_average_allocation"):
            runs = []
            for workers in (1, 2, 8):
                events = []
                cfg = SelectionConfig(budget=20, clusters=3, candidate_size=10, seed=2, workers=workers)
                progress = lambda c, s, e: events.append((c, s, e))
                if strategy == "exam":
                    manifest = exam_select(store, metas, cfg, progress=progress)
                else:
                    manifest = baseline_select(store, metas, strategy, cfg, progress=progress)
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
        manifest = exam_select(store, metas, cfg)
        assert any(len(r.selected_ids) == 1 and r.budget == 1 for r in manifest.per_cluster)
        tokens = serialize_selection_manifest(manifest).split()
        assert "0.0" in tokens
        assert "-0.0" not in tokens


class TestBaselineSelect:
    def test_random_exhaustion(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=600, clusters=5, seed=0)
        manifest = baseline_select(store, metas, "random", cfg)
        assert sorted(manifest.selected) == sorted(m.id for m in metas)

    def test_budget_over_dataset_size_rejected(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=601, clusters=5, seed=0)
        for strategy in ("random", "mid_score", "ccs"):  # ahead of the ccs bin check
            with pytest.raises(InputError, match="budget 601 exceeds dataset size 600"):
                baseline_select(store, metas, strategy, cfg, bins=0)

    def test_mid_score_picks_rank_median(self):
        store = EmbeddingStore(np.random.default_rng(0).normal(size=(100, 3)))
        metas = [SampleMeta(id=f"r{i:03d}", score=float(i + 1)) for i in range(100)]
        cfg = SelectionConfig(budget=2, clusters=5, seed=0)
        manifest = baseline_select(store, metas, "mid_score", cfg)
        assert sorted(manifest.selected) == ["r049", "r050"]  # scores 50 and 51

    def test_ccs_uniform_scores_one_per_bin(self):
        rng = np.random.default_rng(1)
        store = EmbeddingStore(rng.normal(size=(2000, 3)))
        metas = [SampleMeta(id=f"c{i:04d}", score=float(s)) for i, s in enumerate(rng.uniform(0, 1, 2000))]
        cfg = SelectionConfig(budget=50, clusters=5, seed=3)
        manifest = baseline_select(store, metas, "ccs", cfg, bins=50)
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
        manifest = baseline_select(store, metas, "ccs", cfg, bins=50)
        assert len(manifest.selected) == 12

    def test_exam_average_allocation_budgets(self, pipeline_data):
        store, metas = pipeline_data
        cfg = SelectionConfig(budget=23, clusters=5, candidate_size=10, seed=11)
        manifest = baseline_select(store, metas, "exam_average_allocation", cfg)
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
            manifest = baseline_select(
                store, metas, "mmd_minimize", cfg, progress=lambda c, s, e: events.append((c, s, e))
            )
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
            manifest = baseline_select(store, metas, strategy, cfg)
            assert len(manifest.selected) == 37, strategy
            assert len(set(manifest.selected)) == 37, strategy

    def test_missing_scores_rejected(self):
        store = EmbeddingStore(np.random.default_rng(6).normal(size=(10, 2)))
        metas = [SampleMeta(id=f"m{i}") for i in range(10)]
        cfg = SelectionConfig(budget=4, clusters=2, seed=0)
        with pytest.raises(InputError):
            baseline_select(store, metas, "mid_score", cfg)

    def test_unknown_strategy_rejected(self, pipeline_data):
        store, metas = pipeline_data
        with pytest.raises(InputError, match="unknown strategy"):
            baseline_select(store, metas, "coinflip", SelectionConfig(budget=5))

    def test_baselines_deterministic(self, pipeline_data):
        store, metas = pipeline_data
        from egms import STRATEGIES

        for strategy in STRATEGIES:
            texts = []
            for workers in (1, 3, 3):  # worker invariance and repeat determinism
                cfg = SelectionConfig(budget=25, clusters=4, candidate_size=10, seed=21, workers=workers)
                texts.append(serialize_selection_manifest(baseline_select(store, metas, strategy, cfg)))
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
        base = exam_select(EmbeddingStore(data), metas, cfg)
        moved = exam_select(EmbeddingStore(data + shift), metas, cfg)
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
            selections.append(exam_select(loaded, metas, cfg).selected)
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
    """``_exam_select`` and ``egms select`` agree, exit 0, and every cluster follows the all-ties replay."""
    manifest, assignment = _exam_select(store, metas, cfg, None)
    assert all(m.size > 0 for m in assignment.members)
    ids = [m.id for m in metas]
    for rec in manifest.per_cluster:
        if rec.budget == 0:
            continue
        members = assignment.members[rec.cluster_id]
        expected = _all_ties_order(members, rec.budget, cfg.candidate_size, _cluster_rng(cfg.seed, rec.cluster_id))
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


@pytest.mark.xfail(strict=True, raises=InternalInvariantError, reason="k-means inertia rises on far-apart tight blobs")
def test_far_apart_tight_blobs_select_without_an_internal_error():
    # 3e7 separation/spread: the expanded-form distances of k-means
    # assignment cancel, and a Lloyd step reads as raising the inertia
    rng = np.random.default_rng(0)
    centres = np.zeros((2, 8))
    centres[1, 0] = 3e4
    data = centres[np.repeat([0, 1], 1000)] + 1e-3 * rng.normal(size=(2000, 8))
    store = EmbeddingStore(data.astype(np.float32).astype(np.float64))
    metas = [SampleMeta(id=f"b{i}", ppl=float(p)) for i, p in enumerate(rng.uniform(1.0, 50.0, 2000))]
    manifest, _ = _exam_select(store, metas, SelectionConfig(budget=100, clusters=10, seed=0), None)
    assert len(manifest.selected) == 100

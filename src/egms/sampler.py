"""Budget allocation, intra-cluster greedy sampling, and the full pipeline.

The pipeline: perplexity-tail filtering, K-means partitioning, cluster
budgets proportional to cluster size, then independent greedy sampling
inside each cluster. Each greedy step draws a fresh random candidate set
and accepts the candidate with the largest entropy gain against the
current selection (ties to the lowest row index). Negative gains are
accepted when they are the argmax; the rule is the maximum gain, not only
positive gains. The argmax is exact, but candidates that an entropy upper
bound proves cannot win are never solved exactly (see
:func:`egms.entropy._best_bordered`). Each kernel entry is computed
once per cluster, in n_c x budget x 8 bytes of kernel columns.

Per-cluster generators are seeded from (global seed, cluster id), so the
result is byte-identical regardless of how clusters are spread over
worker threads. The cluster samplers are pure functions of their inputs:
each returns its selection and the entropy after every accepted sample.
The threads share the immutable embedding store and touch only their own
cluster's state. The pipeline collects results in submission order and is
the only place that reports progress, replaying each finished cluster's
entropy trace from the calling thread, so the progress stream is the same
for every worker count.

Baseline strategies for comparison live in :func:`baseline_select`.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clustering import ClusterAssignment, kmeans
from .datamodel import (
    ClusterRecord,
    EmbeddingStore,
    SampleMeta,
    SelectionConfig,
    SelectionManifest,
    check_aligned,
)
from .entropy import _best_bordered, _kernel_block, _matrix_entropy, build_similarity
from .errors import InputError, InternalInvariantError
from .filtering import filter_extremes, resolve_ppls

STRATEGIES = ("random", "mid_score", "ccs", "exam_average_allocation", "mmd_minimize")

# SeedSequence stream tags; tag 1 belongs to kmeans (see clustering.py).
# Keeps per-cluster and global-draw generators independent for one run seed.
_CLUSTER_STREAM = 2
_GLOBAL_STREAM = 3

ProgressFn = Callable[[int, int, float], None]


@dataclass(frozen=True)
class BudgetPlan:
    """Per-cluster budgets summing exactly to the requested total."""

    per_cluster: tuple[tuple[int, int], ...]
    total_requested: int
    total_allocated: int


@dataclass(frozen=True, eq=False)
class ClusterSampleResult:
    """Selection produced inside one cluster, in acceptance order.

    ``entropy_trace[t]`` is the entropy of ``selected[: t + 1]``. The
    cluster id is not stored: the pipeline keys results by it.
    """

    selected: np.ndarray
    entropy_trace: np.ndarray

    @property
    def initial_pair(self) -> tuple[int, ...]:
        """The seed rows: the first two selected (one when budget is 1)."""
        return tuple(int(r) for r in self.selected[:2])


# (store, cluster id, sorted member rows, budget) -> the cluster's selection
SampleOneFn = Callable[[EmbeddingStore, int, np.ndarray, int], ClusterSampleResult]


def allocate_budgets(cluster_sizes, B: int) -> BudgetPlan:
    """Cluster budgets proportional to cluster size, reconciled to sum B.

    Base allocation is ``max(1, floor(size/total * B))`` clamped to the
    cluster size. Largest-remainder reconciliation then hits the exact
    total: surplus is removed from the smallest fractional parts (keeping
    budgets >= 1 while possible), deficit is added to the largest
    fractional parts with remaining capacity. Ties break on the lower
    cluster id.
    """
    sizes = np.asarray(cluster_sizes, dtype=np.int64)
    if sizes.size == 0:
        raise InputError("cluster size list is empty")
    if (sizes < 1).any():
        raise InputError("cluster sizes must be >= 1")
    if B < 1:
        raise InputError("budget must be >= 1")
    total = int(sizes.sum())
    if B > total:
        raise InputError(f"budget {B} exceeds population {total}")

    exact = sizes / total * B
    frac = exact - np.floor(exact)
    alloc = np.maximum(1, np.floor(exact).astype(np.int64))
    np.minimum(alloc, sizes, out=alloc)

    if alloc.sum() > B:
        # one unit per cluster per round, smallest fractional parts first;
        # budgets stay >= 1 until no cluster has more than one, then forced
        # zeros apply in the same order
        order = np.lexsort((np.arange(sizes.size), frac))
        surplus = int(alloc.sum() - B)
        while surplus > 0:
            eligible = order[alloc[order] > 1][:surplus]
            if eligible.size == 0:
                eligible = order[alloc[order] == 1][:surplus]
            if eligible.size == 0:
                raise InternalInvariantError("budget reconciliation cannot reach the total")
            alloc[eligible] -= 1
            surplus -= eligible.size
    elif alloc.sum() < B:
        # one unit per cluster per round, largest fractional parts first,
        # capped by remaining capacity
        order = np.lexsort((np.arange(sizes.size), -frac))
        deficit = int(B - alloc.sum())
        while deficit > 0:
            eligible = order[alloc[order] < sizes[order]][:deficit]
            if eligible.size == 0:
                raise InternalInvariantError("budget reconciliation cannot reach the total")
            alloc[eligible] += 1
            deficit -= eligible.size

    if alloc.sum() != B or (alloc > sizes).any() or (alloc < 0).any():
        raise InternalInvariantError("budget plan violates its invariants")
    return BudgetPlan(
        per_cluster=tuple((int(c), int(b)) for c, b in enumerate(alloc)),
        total_requested=int(B),
        total_allocated=int(alloc.sum()),
    )


def greedy_sample_cluster(
    store: EmbeddingStore,
    members,
    budget: int,
    m: int,
    sigma: float,
    rng: np.random.Generator,
) -> ClusterSampleResult:
    """Greedy entropy-gain selection of ``budget`` rows inside one cluster.

    Seeds with two random distinct members (one when budget is 1), then
    fills each remaining slot with the best of up to ``m`` randomly drawn
    unselected candidates: the largest entropy gain, ties to the lowest
    row, found by :func:`egms.entropy._best_bordered`, which solves exactly
    only the candidates its upper bound cannot rule out. A budget covering
    the whole cluster returns all members in index order.

    Each kernel entry is computed once: an accepted sample fills one column
    of an (n_c, budget) array against all n_c members, a candidate's kernel
    row is a gather from it, and the state grows in a budget x budget
    buffer: (n_c + budget) * budget * 8 bytes per live cluster.
    """
    members = np.asarray(members, dtype=np.int64).ravel()
    if members.size == 0:
        raise InputError("cluster members list is empty")
    if len(np.unique(members)) != members.size:
        raise InputError("cluster members must be distinct")
    if budget < 1:
        raise InputError("cluster budget must be >= 1")
    members = np.sort(members)

    if budget >= members.size:
        return _traced_result(store, members, sigma)

    # positions into the sorted members: the same draws as from the rows,
    # and the lowest position is the lowest row
    positions = np.arange(members.size)
    seeds = rng.choice(positions, size=1 if budget == 1 else 2, replace=False)
    pts = store.data[members]
    cols = np.empty((members.size, budget), dtype=np.float64)
    state = np.empty((budget, budget), dtype=np.float64)
    cols[:, : seeds.size] = _kernel_block(pts, pts[seeds], sigma)
    state[: seeds.size, : seeds.size] = cols[seeds, : seeds.size]
    trace = _entropy_trace(state[: seeds.size, : seeds.size]).tolist()

    picks = seeds.tolist()
    mask = np.zeros(members.size, dtype=bool)
    mask[seeds] = True
    for t in range(seeds.size, budget):
        unselected = positions[~mask]
        cands = rng.choice(unselected, size=m, replace=False) if unselected.size > m else unselected
        kern = cols[cands, :t]
        pos, entropy = _best_bordered(state[:t, :t], kern, cands, trace[-1])
        p = int(cands[pos])
        state[t, :t] = state[:t, t] = kern[pos]
        state[t, t] = 1.0
        cols[:, t] = _kernel_block(pts, pts[p][None, :], sigma)[:, 0]
        mask[p] = True
        picks.append(p)
        trace.append(entropy)

    return ClusterSampleResult(selected=members[picks], entropy_trace=np.asarray(trace, dtype=np.float64))


def _entropy_trace(matrix: np.ndarray) -> np.ndarray:
    """Entropy of each leading principal block of a kernel matrix.

    Entry t is the entropy of the set of the first t + 1 rows; the blocks
    equal the matrices an augment chain over the same order would build.
    """
    return np.array([_matrix_entropy(matrix[:t, :t]) for t in range(1, matrix.shape[0] + 1)], dtype=np.float64)


def _traced_result(store: EmbeddingStore, order: np.ndarray, sigma: float) -> ClusterSampleResult:
    """A cluster's result for a fixed acceptance order."""
    order = np.asarray(order, dtype=np.int64)
    return ClusterSampleResult(
        selected=order, entropy_trace=_entropy_trace(build_similarity(store, order, sigma).matrix)
    )


def _cluster_rng(seed: int, cluster_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), _CLUSTER_STREAM, int(cluster_id)]))


def stderr_progress(cluster_id: int, step: int, entropy: float) -> None:
    """Machine-parsable progress line, one per accepted sample."""
    sys.stderr.write(f"progress cluster={cluster_id} step={step} entropy={entropy!r}\n")


def _prepare(store: EmbeddingStore, metas: list[SampleMeta], config: SelectionConfig) -> EmbeddingStore:
    check_aligned(store, metas)
    if config.normalize:
        store = store.l2_normalized()
    return store


def _manifest_from_cluster_results(
    config: SelectionConfig,
    strategy: str,
    metas: list[SampleMeta],
    plan: BudgetPlan,
    results: dict[int, ClusterSampleResult],
    filtered_out_rows: np.ndarray,
) -> SelectionManifest:
    ids = [m.id for m in metas]
    selected, clusters_col, steps_col, trace = [], [], [], []
    per_cluster = []
    for cid, budget in plan.per_cluster:
        if cid not in results:
            per_cluster.append(ClusterRecord(cluster_id=cid, budget=budget, selected_ids=(), final_entropy=None))
            continue
        res = results[cid]
        rec_ids = tuple(ids[r] for r in res.selected)
        per_cluster.append(
            ClusterRecord(
                cluster_id=cid,
                budget=budget,
                selected_ids=rec_ids,
                final_entropy=float(res.entropy_trace[-1]),
            )
        )
        for step, row in enumerate(res.selected):
            selected.append(ids[row])
            clusters_col.append(cid)
            steps_col.append(step)
            trace.append(float(res.entropy_trace[step]))
    return SelectionManifest(
        config=config,
        strategy=strategy,
        selected=tuple(selected),
        selected_clusters=tuple(clusters_col),
        selected_steps=tuple(steps_col),
        per_cluster=tuple(per_cluster),
        filtered_out=tuple(ids[r] for r in filtered_out_rows),
        pipeline_entropy_trace=tuple(trace),
    )


def _select_clustered(
    store: EmbeddingStore,
    metas: list[SampleMeta],
    config: SelectionConfig,
    strategy: str,
    allocate: Callable[[list[int], int], BudgetPlan],
    sample_one: SampleOneFn,
    filtered: bool,
    progress: ProgressFn | None,
) -> tuple[SelectionManifest, ClusterAssignment]:
    """Filter (when ``filtered``), cluster, allocate, sample per cluster, merge.

    Clusters with a budget are submitted largest first (then lowest id) to
    ``config.workers`` threads. Results are collected in that order, and
    each cluster's entropy trace goes to ``progress`` as
    ``(cluster id, step, entropy)`` once its result is in; the manifest
    and the progress stream do not depend on scheduling.
    """
    store = _prepare(store, metas, config)
    if filtered:
        fs = filter_extremes(resolve_ppls(metas), config.tail_low, config.tail_high)
        rows, population = fs.kept, "post-filter size"
        filtered_out = np.concatenate([fs.removed_low, fs.removed_high])
    else:
        rows, population = np.arange(store.count, dtype=np.int64), "dataset size"
        filtered_out = np.empty(0, dtype=np.int64)
    if config.budget > rows.size:
        raise InputError(f"budget {config.budget} exceeds {population} {rows.size}")
    assignment = kmeans(store, rows, config.clusters, config.seed)
    plan = allocate([m.size for m in assignment.members], config.budget)
    budgets = dict(plan.per_cluster)
    order = sorted(
        (cid for cid, budget in budgets.items() if budget >= 1),
        key=lambda cid: (-assignment.members[cid].size, cid),
    )
    results = {}
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        futures = {cid: pool.submit(sample_one, store, cid, assignment.members[cid], budgets[cid]) for cid in order}
        for cid, fut in futures.items():
            results[cid] = fut.result()
            if progress is not None:
                for step, entropy in enumerate(results[cid].entropy_trace):
                    progress(cid, step, float(entropy))
    manifest = _manifest_from_cluster_results(config, strategy, metas, plan, results, filtered_out)
    return manifest, assignment


def _greedy_sampler(config: SelectionConfig) -> SampleOneFn:
    return lambda store, cid, members, budget: greedy_sample_cluster(
        store, members, budget, config.candidate_size, config.sigma, _cluster_rng(config.seed, cid)
    )


def _exam_select(
    store: EmbeddingStore, metas: list[SampleMeta], config: SelectionConfig, progress: ProgressFn | None
) -> tuple[SelectionManifest, ClusterAssignment]:
    """:func:`exam_select` that also returns the k-means assignment it used."""
    return _select_clustered(
        store, metas, config, "exam", allocate_budgets, _greedy_sampler(config), filtered=True, progress=progress
    )


def exam_select(
    store: EmbeddingStore,
    metas: list[SampleMeta],
    config: SelectionConfig,
    progress: ProgressFn | None = None,
) -> SelectionManifest:
    """Full pipeline: filter, cluster, allocate, greedy-sample, merge."""
    return _exam_select(store, metas, config, progress)[0]


# ---------------------------------------------------------------------------
# Baseline strategies
# ---------------------------------------------------------------------------


def _score_vector(metas: list[SampleMeta]) -> np.ndarray:
    """Difficulty scores for score-based baselines: score field, else ppl."""
    if all(m.score is not None for m in metas):
        return np.array([m.score for m in metas], dtype=np.float64)
    try:
        return resolve_ppls(metas)
    except InputError as exc:
        raise InputError(f"strategy needs a score or ppl for every sample: {exc}") from exc


def _global_manifest(
    config: SelectionConfig,
    strategy: str,
    metas: list[SampleMeta],
    selected_rows: np.ndarray,
    bins: int | None = None,
) -> SelectionManifest:
    ids = [m.id for m in metas]
    selected = tuple(ids[r] for r in selected_rows)
    return SelectionManifest(
        config=config,
        strategy=strategy,
        selected=selected,
        selected_clusters=(-1,) * len(selected),
        selected_steps=tuple(range(len(selected))),
        per_cluster=(
            ClusterRecord(cluster_id=-1, budget=config.budget, selected_ids=selected, final_entropy=None),
        ),
        filtered_out=(),
        pipeline_entropy_trace=None,
        bins=bins,
    )


def _select_random(store: EmbeddingStore, metas, config: SelectionConfig) -> SelectionManifest:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.seed, _GLOBAL_STREAM]))
    rows = rng.choice(store.count, size=config.budget, replace=False)
    return _global_manifest(config, "random", metas, rows)


def _select_mid_score(store: EmbeddingStore, metas, config: SelectionConfig) -> SelectionManifest:
    n = store.count
    scores = _score_vector(metas)
    ranks_of_rows = np.lexsort((np.arange(n), scores))  # row index per ascending rank
    median_rank = (n - 1) / 2.0
    rank_order = np.lexsort((np.arange(n), np.abs(np.arange(n) - median_rank)))
    rows = ranks_of_rows[rank_order[: config.budget]]
    return _global_manifest(config, "mid_score", metas, rows)


def _select_ccs(store: EmbeddingStore, metas, config: SelectionConfig, bins: int) -> SelectionManifest:
    n = store.count
    if bins < 1:
        raise InputError("ccs bin count must be >= 1")
    scores = _score_vector(metas)
    lo, hi = float(scores.min()), float(scores.max())
    if hi > lo:
        bin_of = np.minimum((((scores - lo) / (hi - lo)) * bins).astype(np.int64), bins - 1)
    else:
        bin_of = np.zeros(n, dtype=np.int64)
    members = [np.flatnonzero(bin_of == b) for b in range(bins)]
    sizes = np.array([m.size for m in members], dtype=np.int64)
    take = np.minimum(config.budget // bins, sizes)
    # deficit from empty or small bins goes round-robin to bins with capacity
    while take.sum() < config.budget:
        advanced = False
        for b in range(bins):
            if take.sum() >= config.budget:
                break
            if take[b] < sizes[b]:
                take[b] += 1
                advanced = True
        if not advanced:
            raise InternalInvariantError("ccs cannot fill the budget")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.seed, _GLOBAL_STREAM]))
    rows = []
    for b in range(bins):
        if take[b] > 0:
            rows.extend(int(r) for r in rng.choice(members[b], size=int(take[b]), replace=False))
    return _global_manifest(config, "ccs", metas, np.asarray(rows, dtype=np.int64), bins=bins)


def _average_budgets(cluster_sizes, B: int) -> BudgetPlan:
    """Equal split B/L with the remainder going to the largest clusters."""
    sizes = np.asarray(cluster_sizes, dtype=np.int64)
    L = sizes.size
    base = B // L
    alloc = np.minimum(np.full(L, base, dtype=np.int64), sizes)
    order = np.lexsort((np.arange(L), -sizes))  # size desc, id asc
    remainder = B % L
    for idx in order[:remainder]:
        if alloc[idx] < sizes[idx]:
            alloc[idx] += 1
    while alloc.sum() < B:
        moved = False
        for idx in order:
            if alloc[idx] < sizes[idx]:
                alloc[idx] += 1
                moved = True
                break
        if not moved:
            raise InputError(f"budget {B} exceeds population {int(sizes.sum())}")
    return BudgetPlan(
        per_cluster=tuple((int(c), int(b)) for c, b in enumerate(alloc)),
        total_requested=int(B),
        total_allocated=int(alloc.sum()),
    )


def mmd_sample_cluster(
    store: EmbeddingStore,
    members,
    budget: int,
    sigma: float,
) -> ClusterSampleResult:
    """Greedy subset minimizing the squared MMD between subset and cluster.

    The objective per candidate drops the subset-independent cluster term:
    ``mean(k within S) - 2 * mean(k between S and the cluster)``. The
    entropy trace is recorded for provenance just like the other
    cluster samplers.
    """
    members = np.sort(np.asarray(members, dtype=np.int64).ravel())
    if members.size == 0:
        raise InputError("cluster members list is empty")
    if budget < 1:
        raise InputError("cluster budget must be >= 1")
    if budget >= members.size:
        return _traced_result(store, members, sigma)
    pts = store.data[members]
    mu = np.zeros(members.size, dtype=np.float64)
    # rows per chunk bound the (rows, n, d) difference tensor of _sq_dists
    chunk = max(1, 2_000_000 // (members.size * pts.shape[1]))
    for start in range(0, members.size, chunk):
        mu[start : start + chunk] = _kernel_block(pts[start : start + chunk], pts, sigma).mean(axis=1)
    s = np.zeros(members.size, dtype=np.float64)  # kernel sum to selected
    chosen_mask = np.zeros(members.size, dtype=bool)
    k_ss = 0.0  # kernel sum over selected x selected
    mu_s = 0.0  # sum of mu over selected
    order_list = []
    for t in range(budget):
        obj = (k_ss + 2.0 * s + 1.0) / (t + 1) ** 2 - 2.0 * (mu_s + mu) / (t + 1)
        obj[chosen_mask] = np.inf
        best = obj.min()
        pick = int(np.flatnonzero(obj == best).min())
        chosen_mask[pick] = True
        k_vec = _kernel_block(pts[pick][None, :], pts, sigma)[0]
        k_ss += 2.0 * s[pick] + 1.0
        mu_s += mu[pick]
        s += k_vec
        order_list.append(pick)
    return _traced_result(store, members[np.asarray(order_list, dtype=np.int64)], sigma)


def baseline_select(
    store: EmbeddingStore,
    metas: list[SampleMeta],
    strategy: str,
    config: SelectionConfig,
    bins: int = 50,
    progress: ProgressFn | None = None,
) -> SelectionManifest:
    """Comparison strategies sharing the manifest contract of exam_select.

    ``random`` draws uniformly without replacement; ``mid_score`` keeps
    the samples rank-closest to the median score; ``ccs`` spreads a
    uniform budget over equal-width score bins; ``exam_average_allocation``
    is the full pipeline with an equal per-cluster split; ``mmd_minimize``
    replaces the entropy objective with squared-MMD minimization inside
    each cluster. Score-free strategies run without perplexity filtering.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    check_aligned(store, metas)
    if strategy in ("random", "mid_score", "ccs") and config.budget > store.count:
        raise InputError(f"budget {config.budget} exceeds dataset size {store.count}")
    if strategy == "random":
        return _select_random(store, metas, config)
    if strategy == "mid_score":
        return _select_mid_score(store, metas, config)
    if strategy == "ccs":
        return _select_ccs(store, metas, config, bins)
    if strategy == "exam_average_allocation":
        return _select_clustered(
            store, metas, config, strategy, _average_budgets, _greedy_sampler(config),
            filtered=True, progress=progress,
        )[0]
    return _select_clustered(
        store,
        metas,
        config,
        strategy,
        allocate_budgets,
        lambda store, cid, members, budget: mmd_sample_cluster(store, members, budget, config.sigma),
        filtered=False,
        progress=progress,
    )[0]

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
once per cluster.

Every pick is an argmax winner, and every entropy trace comes from one
kernel store and one exact solve. A given pick (a seed, a member of a
cluster whose budget covers it, or a pick of the MMD baseline) is the
winner of a candidate set of one, which the argmax solves directly; a
drawn pick wins among its step's candidates. Either way the pick fills
one column of the batch's kernel store, and its entropy is the exact
solve of a matrix gathered from that store.

Clusters are sampled in lock step (:func:`_greedy_batch`): one iteration
moves every cluster of a run one step on, with one argmax call for all
of them, so the per-step Python and numpy call overhead is paid once per
run, not once per cluster. Per-cluster generators are seeded from
(global seed, cluster id), each cluster draws only from its own, and no
stage mixes values of two clusters, so a cluster's result is
byte-identical alone, in any run and on any worker thread. The cluster
samplers are pure functions of their inputs: each returns its selection
and the entropy after every accepted sample. The threads share the
immutable embedding store and touch only their own run's state.

Runs are few and large (:func:`_batches`), for two reasons. Each step's
numpy overhead is paid once for all clusters of a run. And the threads
only run in parallel inside numpy calls that release the GIL: a stack of
k symmetric matrices of order n goes through ``np.linalg.eigvalsh``
without the GIL only when k * n > 500, so a run must hold enough
clusters for its solve stacks to pass that. On 2 threads (2 vCPUs) a
(7, 71, 71) stack (497) ran 0.8-1.1x as fast as serial and an (8, 71, 71)
stack (568) 1.25-1.43x; runs of one or two clusters made the two workers
slower than one.

One driver, :func:`select`, runs every strategy: the pipeline's ``exam``
and the comparison baselines of :data:`STRATEGIES`. It collects cluster
results in run order and is the only place that reports progress,
replaying each finished cluster's entropy trace from the calling thread,
so the progress stream is the same for every worker count.
"""

from __future__ import annotations

import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clustering import ClusterAssignment, kmeans
from .datamodel import (
    _CLUSTER_STREAM,
    _GLOBAL_STREAM,
    STRATEGIES,
    ClusterRecord,
    EmbeddingStore,
    SampleMeta,
    SelectionConfig,
    SelectionManifest,
    _SampleTable,
    _as_int,
    _check_sigma,
    _check_strategy,
    _store_rows,
    _stream_rng,
)
from .entropy import _best_bordered, _kernel_block, _paired_kernel
from .errors import InputError, InternalInvariantError
from .filtering import filter_extremes, resolve_ppls

# cap on the kernel columns of one run of lock-step greedy clusters (1 MiB)
_BATCH_ELEMENTS = 1 << 17

ProgressFn = Callable[[int, int, float], None]
# (members, budget, first) of one cluster of _greedy_batch; first: its given picks or None
_Cluster = tuple[np.ndarray, int, np.ndarray | None]


@dataclass(frozen=True, eq=False)
class ClusterSampleResult:
    """Selection produced inside one cluster, in acceptance order.

    ``entropy_trace[t]`` is the entropy of ``selected[: t + 1]``. The
    cluster id is not stored: the pipeline keys results by it.
    """

    selected: np.ndarray
    entropy_trace: np.ndarray


def allocate_budgets(cluster_sizes, B: int) -> np.ndarray:
    """Cluster budgets proportional to cluster size, reconciled to sum B.

    Returns one int64 budget per cluster, in cluster-id order; the budgets
    sum exactly to B and never exceed a cluster's size.

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
    if _as_int(B, "budget") < 1:
        raise InputError("budget must be >= 1")
    total = int(sizes.sum())
    if B > total:
        raise InputError(f"budget {B} exceeds population {total}")

    exact = sizes / total * B
    frac = exact - np.floor(exact)
    alloc = np.maximum(1, np.floor(exact).astype(np.int64))
    np.minimum(alloc, sizes, out=alloc)

    if alloc.sum() > B:
        # surplus: smallest fractional parts first; budgets stay >= 1 until
        # no cluster has more than one, then forced zeros apply in the same order
        order = np.lexsort((np.arange(sizes.size), frac))
        _round_robin(alloc, 1, order, B)
        _round_robin(alloc, 0, order, B)
    else:
        # deficit: largest fractional parts first
        _round_robin(alloc, sizes, np.lexsort((np.arange(sizes.size), -frac)), B)

    if alloc.sum() != B or (alloc > sizes).any() or (alloc < 0).any():
        raise InternalInvariantError("budget plan violates its invariants")
    return alloc


def _round_robin(alloc: np.ndarray, limit, order: np.ndarray, total: int) -> None:
    """Move ``alloc`` in place toward the sum ``total``, one unit per group per round.

    Each round steps each group of ``order`` that has not reached its
    ``limit`` (one for all groups, or one per group) one unit toward it, in
    that order, and stops once the sum is ``total``. It stops short when no
    group can move; the caller checks the sum.
    """
    while (gap := total - int(alloc.sum())) != 0:
        step = 1 if gap > 0 else -1
        movable = order[((limit - alloc) * step)[order] > 0][: abs(gap)]
        if movable.size == 0:
            return
        alloc[movable] += step


def _cluster_members(store: EmbeddingStore, members, budget: int, sigma: float) -> np.ndarray:
    """The sorted member rows, after the checks both cluster samplers share."""
    _check_sigma(sigma)
    rows = np.sort(_store_rows(store, members, "cluster member"))
    if _as_int(budget, "cluster budget") < 1:
        raise InputError("cluster budget must be >= 1")
    return rows


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
    fills each remaining slot with the best of up to ``m`` >= 1 randomly
    drawn unselected candidates: the largest entropy gain, ties to the
    lowest row, found by :func:`egms.entropy._best_bordered`, which solves
    exactly only the candidates its upper bound cannot rule out. A budget
    covering the whole cluster returns all members in index order. A seed
    or a member so taken is the argmax winner of a candidate set of one, so
    its entropy comes from the same kernel columns and exact solve as that
    of a drawn pick.

    This is :func:`_greedy_batch` on a batch of one, so a cluster gets the
    same result alone or sampled together with others, and takes the
    memory of a batch of one: n_c * budget * 8 bytes of kernel columns.
    """
    return _greedy_batch(store, [(members, budget, None)], m, sigma, [rng])[0]


def _greedy_batch(
    store: EmbeddingStore,
    clusters: list[_Cluster],
    m: int,
    sigma: float,
    rngs: list[np.random.Generator],
) -> list[ClusterSampleResult]:
    """Sample each ``(members, budget, first)`` greedily, all in lock step.

    ``first`` holds a cluster's given picks in acceptance order, as
    positions into its sorted members; the greedy picks the rest of its
    budget. With ``first=None`` they are :func:`greedy_sample_cluster`'s:
    all members in index order when the budget covers the cluster, else
    one or two seeds from the cluster's own generator.

    Each iteration, from t = 0, moves every cluster still short of its
    budget one step on. A cluster's candidates are its next given pick, a
    set of one, or up to ``m`` >= 1 rows drawn from its own generator, and
    one :func:`egms.entropy._best_bordered` call picks the sample of every
    cluster of the step. It solves a set of one directly, so every entropy
    of a trace comes from the same kernel columns and the same exact
    solve. The clusters share no values, so each result is the same in any
    batch.

    Each kernel entry is computed once: a pick fills one column of the
    batch's (sum n_c, max budget) array against its cluster's members, and
    both a candidate's kernel row and a selection's kernel matrix are
    gathers from it. That array, 8 bytes per entry, is the batch's lasting
    memory, which :func:`_batches` caps at ``_BATCH_ELEMENTS`` entries;
    member rows are gathered from the store for each step, not kept, and
    the exact solves go in stacks of at most ``egms.entropy._STACK_ELEMENTS``
    values.
    """
    if _as_int(m, "candidate count m") < 1:
        raise InputError("candidate count m must be >= 1")
    members = [_cluster_members(store, mem, budget, sigma) for mem, budget, _ in clusters]
    rows = np.concatenate(members)  # cluster c owns positions offs[c]:offs[c + 1]
    sizes = np.array([mem.size for mem in members])
    offs = np.concatenate([[0], np.cumsum(sizes)])
    budgets = np.minimum([budget for _, budget, _ in clusters], sizes)
    cols = np.empty((rows.size, budgets.max()), dtype=np.float64)
    picks = np.empty((len(clusters), budgets.max()), dtype=np.int64)  # positions into rows
    # trace[c, t] is the entropy of cluster c's first t picks, +0.0 for none
    trace = np.zeros((len(clusters), budgets.max() + 1), dtype=np.float64)
    given = np.empty(len(clusters), dtype=np.int64)  # number of given picks of each cluster
    taken = np.zeros(rows.size, dtype=bool)  # selected rows; each pool is cut at both ends of its cluster
    for c, (_, budget, first) in enumerate(clusters):
        if first is None and budget >= sizes[c]:
            first = np.arange(sizes[c])
        elif first is None:
            # positions into the sorted members: the same draws as from the rows,
            # and the lowest position is the lowest row
            first = rngs[c].choice(np.arange(sizes[c]), size=1 if budget == 1 else 2, replace=False)
        given[c] = len(first)
        picks[c, : given[c]] = first + offs[c]
        taken[picks[c, : given[c]]] = True
    cluster_of = np.repeat(np.arange(len(clusters)), sizes)

    for t in range(budgets.max()):
        step = np.flatnonzero(budgets > t)
        unselected = np.flatnonzero(~taken)
        lo = np.searchsorted(unselected, offs[step]).tolist()
        hi = np.searchsorted(unselected, offs[step + 1]).tolist()
        cands = []
        for c, a, b in zip(step, lo, hi):
            # a given pick is the one candidate of its step; m >= 1 never draws from it
            pool = picks[c, t : t + 1] if given[c] > t else unselected[a:b]
            cands.append(rngs[c].choice(pool, size=m, replace=False) if pool.size > m else pool)
        owner = np.repeat(np.arange(step.size), [pool.size for pool in cands])
        cands = np.concatenate(cands)
        # cols[picks, :t] is the selection's kernel matrix: (a - b)^2 and
        # (b - a)^2 have the same bits, and a diagonal entry is exp(-0.0) = 1.0
        pos, trace[step, t + 1] = _best_bordered(cols[picks[step, :t], :t], cols[cands, :t], owner, cands, trace[step, t])
        picks[step, t] = cands[pos]
        taken[cands[pos]] = True
        grow = np.flatnonzero((budgets > t + 1)[cluster_of])
        cols[grow, t] = _paired_kernel(store.data, store.data, rows[grow], rows[picks[cluster_of[grow], t]], sigma)

    return [ClusterSampleResult(rows[picks[c, :budget]], trace[c, 1 : budget + 1].copy()) for c, budget in enumerate(budgets)]


def stderr_progress(cluster_id: int, step: int, entropy: float) -> None:
    """Machine-parsable progress line, one per accepted sample."""
    sys.stderr.write(f"progress cluster={cluster_id} step={step} entropy={entropy!r}\n")


# ---------------------------------------------------------------------------
# Baseline strategies
# ---------------------------------------------------------------------------


def _score_vector(table: _SampleTable) -> np.ndarray:
    """Difficulty scores for score-based baselines: the score column when full, else ppl."""
    if not np.isnan(table.score).any():
        return table.score
    try:
        return resolve_ppls(table)
    except InputError as exc:
        raise InputError(f"strategy needs a score or ppl for every sample: {exc}") from exc


def _random_rows(table: _SampleTable, config: SelectionConfig, bins: int) -> np.ndarray:
    return _stream_rng(config.seed, _GLOBAL_STREAM).choice(len(table), size=config.budget, replace=False)


def _mid_score_rows(table: _SampleTable, config: SelectionConfig, bins: int) -> np.ndarray:
    n = len(table)
    scores = _score_vector(table)
    ranks_of_rows = np.lexsort((np.arange(n), scores))  # row index per ascending rank
    median_rank = (n - 1) / 2.0
    rank_order = np.lexsort((np.arange(n), np.abs(np.arange(n) - median_rank)))
    return ranks_of_rows[rank_order[: config.budget]]


def _ccs_rows(table: _SampleTable, config: SelectionConfig, bins: int) -> np.ndarray:
    n = len(table)
    if bins < 1:
        raise InputError("ccs bin count must be >= 1")
    scores = _score_vector(table)
    lo, hi = float(scores.min()), float(scores.max())
    if hi > lo:
        bin_of = np.minimum((((scores - lo) / (hi - lo)) * bins).astype(np.int64), bins - 1)
    else:
        bin_of = np.zeros(n, dtype=np.int64)
    members = [np.flatnonzero(bin_of == b) for b in range(bins)]
    sizes = np.array([m.size for m in members], dtype=np.int64)
    take = np.minimum(config.budget // bins, sizes)
    # deficit from empty or small bins goes round-robin to bins with capacity;
    # select keeps the budget within the population, so the fill reaches it
    _round_robin(take, sizes, np.arange(bins), config.budget)
    rng = _stream_rng(config.seed, _GLOBAL_STREAM)
    rows = []
    for b in range(bins):
        if take[b] > 0:
            rows.extend(int(r) for r in rng.choice(members[b], size=int(take[b]), replace=False))
    return np.asarray(rows, dtype=np.int64)


def _average_budgets(cluster_sizes, B: int) -> np.ndarray:
    """Equal split B/L with the remainder going to the largest clusters."""
    sizes = np.asarray(cluster_sizes, dtype=np.int64)
    L = sizes.size
    base = B // L
    alloc = np.minimum(np.full(L, base, dtype=np.int64), sizes)
    order = np.lexsort((np.arange(L), -sizes))  # size desc, id asc
    head = order[: B % L]
    alloc[head] += alloc[head] < sizes[head]
    # a clamped shortfall fills the largest clusters with room, in order
    room = sizes[order] - alloc[order]
    short = B - alloc.sum()
    if room.sum() < short:
        raise InternalInvariantError("average allocation cannot reach the total")
    alloc[order] += np.clip(short - (np.cumsum(room) - room), 0, room)
    return alloc


def mmd_sample_cluster(store: EmbeddingStore, members, budget: int, sigma: float) -> ClusterSampleResult:
    """Greedy subset minimizing the squared MMD between subset and cluster.

    The objective per candidate drops the subset-independent cluster term:
    ``mean(k within S) - 2 * mean(k between S and the cluster)``. The
    entropy trace of the acceptance order is recorded for provenance, like
    the other cluster samplers', by :func:`_greedy_batch` with the picks
    given: each is the argmax winner of a candidate set of one. This is a
    batch of one; :func:`select` traces a run's MMD clusters in lock step.
    """
    # every pick is given, a set of one that m = 1 never draws from: the generator goes unused
    return _greedy_batch(store, [_mmd_cluster(store, members, budget, sigma)], 1, sigma, [None])[0]


def _mmd_cluster(store: EmbeddingStore, members, budget: int, sigma: float) -> _Cluster:
    """The squared-MMD selection of one cluster, as a :func:`_greedy_batch` cluster it covers.

    The cluster is the selected rows in index order, with the acceptance
    order as its given picks, so its trace takes budget^2 kernel entries.
    A budget covering the cluster takes all members in index order.
    """
    members = _cluster_members(store, members, budget, sigma)
    if budget >= members.size:
        return members, budget, None
    pts = store.data[members].astype(np.float64, copy=False)  # widened once for every kernel block below
    mu = np.zeros(members.size, dtype=np.float64)
    # rows per chunk bound each (rows, n_c) kernel block to 2e6 / d values;
    # _sq_dist bounds its own difference blocks
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
    order = np.asarray(order_list, dtype=np.int64)
    return members[np.sort(order)], budget, np.argsort(np.argsort(order))


def _batches(order: list[int], sizes: list[int], budgets: list[int]) -> list[list[int]]:
    """Split ``order`` into runs of consecutive clusters, one task each.

    A run grows while its greedy kernel columns, (sum n_c) x (max budget)
    values, stay within ``_BATCH_ELEMENTS``; a cluster above it runs alone.
    The cap alone cuts the runs, whatever the worker count.

    Larger runs pay each step's numpy overhead once for more clusters, and
    their eigensolve stacks pass the k * n > 500 rule under which
    ``np.linalg.eigvalsh`` releases the GIL (see the module docstring); do
    not cut runs smaller for the sake of more of them. On the 24 clusters
    of perfbench's ``select_few_clusters`` (2 vCPUs, 1 BLAS thread), 2
    threads did the greedy 0.81x as fast as 1 thread with one cluster per
    run, 1.17x with three and 1.45x with twelve.

    MMD runs are cut by the same rule. Each MMD cluster's objective loop
    runs on its own; the run's traces then go in lock step through one
    :func:`_greedy_batch` call, whose kernel columns cover only the
    selected rows, (sum budget) x (max budget) values.
    """
    batches, rows, width = [], 0, 0
    for cid in order:
        rows, width = rows + sizes[cid], max(width, budgets[cid])
        if not batches or rows * width > _BATCH_ELEMENTS:
            batches.append([])
            rows, width = sizes[cid], budgets[cid]
        batches[-1].append(cid)
    return batches


# strategies that draw from the whole dataset: (table, config, bins) -> selected rows
_GLOBAL_ROWS = {"random": _random_rows, "mid_score": _mid_score_rows, "ccs": _ccs_rows}


def select(
    store: EmbeddingStore,
    metas: list[SampleMeta],
    strategy: str,
    config: SelectionConfig,
    bins: int = 50,
    progress: ProgressFn | None = None,
) -> tuple[SelectionManifest, ClusterAssignment | None]:
    """The one pipeline driver: ``"exam"`` or a baseline of :data:`STRATEGIES`.

    ``exam`` is the full pipeline: filter the perplexity tails, run k-means
    on the kept rows, allocate budgets proportional to cluster size and
    sample each cluster greedily by entropy gain. The baselines share its
    manifest contract. ``random`` draws uniformly without replacement;
    ``mid_score`` keeps the samples rank-closest to the median score;
    ``ccs`` spreads a uniform budget over ``bins`` equal-width score bins.
    These three draw from the whole dataset into one record with cluster
    id -1. ``exam_average_allocation`` is the full pipeline with an equal
    per-cluster split; ``mmd_minimize`` is the pipeline without filtering,
    with squared-MMD minimization in place of the entropy objective.

    Clusters are ordered largest first (then lowest id) and cut into runs
    of consecutive clusters (:func:`_batches`), each sampled in lock step
    (for MMD, the traces of its clusters' selections). The calling thread
    is one of w = min(``config.workers``, runs) threads, and a pool of
    w - 1 threads the others, so at w = 1 no thread starts. The calling
    thread samples run 0, the largest, and pool thread j run j + 1; then
    each thread that is done takes the next run not yet taken, so no
    thread waits on another while runs are left. Results are replayed in
    run order by the calling thread: each cluster's entropy trace goes to
    ``progress`` as ``(cluster id, step, entropy)`` once its run and every
    run before it are in, so the manifest and the progress stream depend
    neither on the runs nor on scheduling.

    ``metas`` may also be the CLI's sample table, which the driver runs on;
    a list of records is converted to one first. Returns the manifest and
    the k-means assignment of a clustered strategy (None for the others).
    """
    return _select(store, _SampleTable.of(metas), strategy, config, bins, progress)[:2]


def _select(
    store: EmbeddingStore,
    table: _SampleTable,
    strategy: str,
    config: SelectionConfig,
    bins: int = 50,
    progress: ProgressFn | None = None,
) -> tuple[SelectionManifest, ClusterAssignment | None, np.ndarray]:
    """:func:`select` on a sample table; also returns the selected rows in manifest order.

    Ids are read from the table only for the selected and filtered-out rows.
    """
    _check_strategy(strategy)
    bins = _as_int(bins, "bins")
    if store.count != len(table):
        raise InputError(f"embedding store has {store.count} rows but sample manifest has {len(table)}")
    if strategy in _GLOBAL_ROWS:
        if config.budget > store.count:
            raise InputError(f"budget {config.budget} exceeds dataset size {store.count}")
        rows = _GLOBAL_ROWS[strategy](table, config, bins)
        record = ClusterRecord(-1, config.budget, table.ids_of(rows))
        return SelectionManifest(config, strategy, (record,), (), bins if strategy == "ccs" else None), None, rows

    if config.normalize:
        store = store.l2_normalized()
    if strategy == "mmd_minimize":
        rows, population = np.arange(store.count, dtype=np.int64), "dataset size"
        filtered_out = np.empty(0, dtype=np.int64)
    else:
        fs = filter_extremes(resolve_ppls(table), config.tail_low, config.tail_high)
        rows, population = fs.kept, "post-filter size"
        filtered_out = np.concatenate([fs.removed_low, fs.removed_high])
    if config.budget > rows.size:
        raise InputError(f"budget {config.budget} exceeds {population} {rows.size}")
    assignment = kmeans(store, rows, config.clusters, config.seed)
    sizes = [m.size for m in assignment.members]
    allocate = _average_budgets if strategy == "exam_average_allocation" else allocate_budgets
    budgets = allocate(sizes, config.budget).tolist()

    def sample(batch: list[int]) -> list[ClusterSampleResult]:
        clusters = [(assignment.members[cid], budgets[cid], None) for cid in batch]
        if strategy == "mmd_minimize":
            clusters = [_mmd_cluster(store, members, budget, config.sigma) for members, budget, _ in clusters]
        rngs = [_stream_rng(config.seed, _CLUSTER_STREAM, cid) for cid in batch]
        return _greedy_batch(store, clusters, config.candidate_size, config.sigma, rngs)

    records = [ClusterRecord(cid, budget, ()) for cid, budget in enumerate(budgets)]
    chosen = [np.empty(0, dtype=np.int64)] * len(budgets)  # each cluster's selected rows
    order = sorted((cid for cid, budget in enumerate(budgets) if budget >= 1), key=lambda cid: (-sizes[cid], cid))
    batches = _batches(order, sizes, budgets)
    results: list[list[ClusterSampleResult] | None] = [None] * len(batches)
    replayed = 0  # runs whose records and progress are in

    def replay() -> None:
        nonlocal replayed
        while replayed < len(batches) and results[replayed] is not None:
            for cid, res in zip(batches[replayed], results[replayed]):
                trace = res.entropy_trace.tolist()
                chosen[cid] = res.selected
                records[cid] = ClusterRecord(cid, budgets[cid], table.ids_of(res.selected), tuple(trace))
                if progress is not None:
                    for step, entropy in enumerate(trace):
                        progress(cid, step, entropy)
            results[replayed] = None  # its records hold it now
            replayed += 1

    # no more threads than runs: runs 1, 2, ... in order, then one end mark per thread
    threads = min(config.workers, len(batches))
    todo = queue.SimpleQueue()
    for i in [*range(1, len(batches)), *[None] * threads]:
        todo.put(i)

    def work(i: int | None, after_run: Callable[[], None]) -> None:
        while i is not None:
            results[i] = sample(batches[i])
            after_run()
            i = todo.get()

    # the pool starts its threads on submit, so with one thread it starts none;
    # glibc gives pool threads malloc arenas of their own, while the calling
    # thread reuses the heap k-means freed, so its runs add less to the peak
    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        helpers = [pool.submit(work, todo.get(), lambda: None) for _ in range(threads - 1)]
        work(0, replay)
        for helper in helpers:
            helper.result()
    replay()
    manifest = SelectionManifest(config, strategy, tuple(records), table.ids_of(filtered_out))
    return manifest, assignment, np.concatenate(chosen)

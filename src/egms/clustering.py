"""K-means partitioning of the filtered set.

Lloyd iterations start from k-means++ seeding and stop when the largest
centroid displacement falls below 1e-6 or after 100 iterations. Empty
clusters are repaired by reseeding the centroid onto the point currently
farthest from its assigned centroid (never stealing the last member of
another cluster). Inertia is asserted non-increasing across iterations.

The kept rows are translated so that the first of them sits at the origin
before seeding and Lloyd. Subtracting a data row (rather than the mean)
gives bitwise-identical translated data for any shift the input holds
exactly, so the clustering ignores it. No translated copy is kept: every
pass gathers its block of rows from the store, widens float32 rows exactly
to float64 (:func:`_rows64`), and subtracts the origin there, the same
subtraction for every pass, so each translated value has one set of bits,
the same for a float32 store as for a float64 store of its values. Beyond
the store, k-means holds per-row vectors and blocks of about 1 MiB, no
n x d array.

Label contract: :func:`_sq_dist` is the one routine that computes an
explicit squared distance sum_k (x_k - c_k)^2, here and in the Gaussian
kernel of :mod:`egms.entropy`. Each row's label is the lowest-index argmin
of its distances to the centroids, and every squared distance this module
reports (the seeding weights, the inertia history, the order of
empty-cluster repair) is that value for the winner. So labels and distances
depend neither on the GEMM block shape nor on the BLAS thread count. The
first Lloyd step takes the labels k-means++ already holds; later steps use
the shortlist below.

Certified shortlist. A GEMM of each translated block of rows against -2c,
with |c|^2 added after it, ranks the centroids by v_j = |c_j|^2 - 2 x.c_j,
which differs from the squared distance by |x|^2 only. A dot product of
length n has an error of at most gamma_n times the dot product of the
absolute values (Higham 2002, "Accuracy and Stability of Numerical
Algorithms", section 3.1, gamma_n = n u / (1 - n u)). That bound holds for
a sum of n terms in any order, so it covers the d products and the added
|c|^2 as one sum of d + 1 terms, whatever order the GEMM's blocking and
threads take. So each computed v_j is within 2 gamma_{d+1} S of the exact
one, with S = (|x| + max_j |c_j|)^2, and each explicit distance is within
gamma_{d+2} S of the exact one. So if the runner-up value exceeds the
smallest by more than 6 gamma_{d+2} S, the smallest one's explicit distance
is strictly the least and it is the label; the test uses 8 gamma_{d+2} S,
which also covers the rounding of S. Rows that fail it are re-ranked by
explicit distances over every centroid whose value lies within that slack
of the smallest; the others cannot win or tie.

Component pruning (Elkan 2003, "Using the triangle inequality to accelerate
k-means"). After a step, every row of cluster a lies within
R_a = sqrt(max d^2 of its rows) + |shift of c_a| of the moved centroid. If
|c_j - c_a| > 2 R_a then |x - c_j| > |x - c_a| for each such row, so c_j
cannot be its nearest centroid. The gaps come from one L x L GEMM, shaded by
the same kind of bound into a lower bound, and the test keeps a 1e-9
relative margin, far above the rounding of R_a and of the explicit
distances, so a pruned centroid's explicit distance is strictly larger too.
The centroids that may compete form a graph; each connected component's
rows are assigned against that component's centroids only, in ascending
index order, so the lowest-index tie-break is the global one. Continuous
data forms one component, which is a full pass.

Incremental steps. A cluster whose member set did not change keeps its
centroid's bits: :func:`_means_by_label` recomputes only the clusters that
gained or lost a row, empty-cluster repairs included. It adds each block of
their rows, in ascending row order, into flat (cluster, feature) sums with
one ``np.add.at``, which adds in index order; so each sum takes its rows in
ascending row order from 0.0, as a full pass's per-feature ``bincount``
does, and blocks chain with no sort. Every other centroid counts as moved;
in the first step all do, since the seeds are no member means. A row's
previous label is the lowest-index explicit argmin over all the previous
centroids, and a static centroid's explicit distance keeps its bits, so
that label still beats every other static centroid. A row whose own
centroid is static is therefore ranked against the moved centroids of its
component only, and takes their winner only when it is strictly closer, or
equally close at a lower index. A row whose component
holds no moved centroid keeps its label and distance. A row whose own
centroid moved is ranked against its whole component; a repaired row is no
argmin of its new cluster, which is why a repair marks both clusters as
moved. So every label, distance and inertia keeps the bits of a full step.
Elkan (2003) skips distances by per-row bounds; here whole centroids are
skipped, and no bound is needed.

Seeding skips the distance pass for rows that the triangle inequality
proves cannot move closer to a new centre (Elkan 2003; Raff 2021, "Exact
Acceleration of K-Means++ and K-Means||"), so every random draw and every
seed centroid is bit-identical to a full pass. Assignment blocks hold
about 1 MiB of values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import _KMEANS_STREAM, EmbeddingStore, _as_int, _store_rows, _stream_rng
from .errors import InputError, InternalInvariantError

MAX_ITER = 100
SHIFT_TOL = 1e-6
# float64 elements in one assignment block (1 MiB)
_BLOCK_ELEMENTS = 1 << 17
# relative slack on the pruning bounds: it covers the rounding of each
# squared distance (about d * 1.1e-16 relative) for d up to about 1e6
_PRUNE_MARGIN = 1e-9
# absolute slack: far above the error of products that underflow (at most
# d * 2^-1074) and far below any distance these bounds decide
_FLOOR = 2.0**-900


def _slack(d: int) -> float:
    """8 gamma_{d+2} with float64 unit roundoff: the relative rounding slack of the shortlist."""
    nu = (d + 2) * 2.0**-53
    return 8.0 * nu / (1.0 - nu)


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Result of K-means over the kept rows.

    ``labels`` give the cluster of each kept row, in the order the rows
    were passed to :func:`kmeans`. ``members`` holds, per cluster, the
    sorted store rows; no cluster is empty. ``inertia_history`` records the
    objective after each assignment step.
    """

    labels: np.ndarray
    centroids: np.ndarray
    members: tuple[np.ndarray, ...]
    inertia: float
    inertia_history: np.ndarray


def _stage(x: np.ndarray, size: int) -> np.ndarray | None:
    """Staging buffer of ``size`` values of ``x``'s dtype for :func:`_rows64`, or None for float64 ``x``."""
    return None if x.dtype == np.float64 else np.empty(size, dtype=x.dtype)


def _rows64(x: np.ndarray, at, buf: np.ndarray, stage: np.ndarray | None) -> np.ndarray:
    """The rows ``x[at]`` (an index array or a slice) as float64, widened exactly.

    Every block of store rows that :func:`_sq_dist` and the k-means passes
    read comes through here. The rows land in the front of the flat float64
    buffer ``buf``, except that a slice of a float64 ``x`` is returned as a
    view of it, never to be written. ``np.take`` writes into a buffer
    directly only with mode="clip" (the indices are valid) and only into
    one of ``x``'s dtype, so rows of a float32 ``x`` are gathered into
    ``stage`` (from :func:`_stage`) and then widened into ``buf`` with one
    copy. Widening float32 to float64 is exact, so every value keeps the
    bits a float64 store of it would give.
    """
    d = x.shape[1]
    if isinstance(at, slice):
        block = x[at]
        if x.dtype == np.float64:
            return block
    elif stage is None:
        return np.take(x, at, axis=0, out=buf[: at.size * d].reshape(at.size, d), mode="clip")
    else:
        block = np.take(x, at, axis=0, out=stage[: at.size * d].reshape(at.size, d), mode="clip")
    out = buf[: block.size].reshape(block.shape)
    np.copyto(out, block)
    return out


def _sq_dist(
    x: np.ndarray,
    c: np.ndarray,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
    origin: np.ndarray | None = None,
) -> np.ndarray:
    """Explicit squared distance sum_k (x_k - c_k)^2 of each pair (``x[rows[i]]``, ``c[cols[i]]``).

    Without ``rows`` the pairs take the rows of ``x`` in order. Without
    ``cols``, a 1-D ``c`` is one centre for every row, and a 2-D ``c`` pairs
    each row with every row of ``c``: the result is then the (rows, len(c))
    grid, with no index arrays. With ``rows``, ``origin`` translates each
    gathered row first, so the pair takes ``x[rows[i]] - origin``: the bits
    of a translated copy, with none made. This is the one routine behind
    every squared distance of egms: each k-means label and distance and each
    Gaussian kernel entry. A pair's bits depend on its two rows alone, not
    on the other pairs. Every call goes in blocks of ``_BLOCK_ELEMENTS``
    values, or of one row's grid of pairs where that is larger, so no
    temporary grows with the rows.

    ``x`` and ``c`` may be float32 (a store's rows): each block of rows and
    of gathered centres widens exactly to float64 through :func:`_rows64`,
    and a centre set without ``cols`` widens once, so every value, and with
    it every distance, has the bits of the same call on float64 copies.
    """
    n, d = x.shape[0] if rows is None else rows.size, x.shape[1]
    grid = cols is None and c.ndim == 2
    if cols is None:
        c = c.astype(np.float64, copy=False)  # the centre set: a float32 one widens once
    out = np.empty((n, c.shape[0]) if grid else n, dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // max(1, d * c.shape[0] if grid else d))  # rows per block
    # one float64 buffer for every block of x and one for every block of
    # gathered centres, each with its staging buffer for float32 rows
    # (np.take reads x in place only when x is C-contiguous, as every
    # caller's is; else it copies x)
    size = min(step, n) * d
    xbuf, xstage = np.empty(size), _stage(x, size)
    if cols is not None:
        cbuf, cstage = np.empty(size), _stage(c, size)
    for start in range(0, n, step):
        part = slice(start, start + step)
        xs = _rows64(x, part if rows is None else rows[part], xbuf, xstage)
        if rows is not None and origin is not None:
            xs -= origin
        if grid:
            # a fresh (block rows * len(c), d) array: one pair's differences a row, as below
            diff = (xs[:, None, :] - c).reshape(-1, d)
        elif cols is not None:
            diff = _rows64(c, cols[part], cbuf, cstage)  # overwritten by the differences
            np.subtract(xs, diff, out=diff)
        elif rows is None:
            diff = xs - c  # a fresh array: x is never written
        else:
            diff = xs  # the gather buffer, overwritten by the differences
            diff -= c
        np.einsum("ij,ij->i", diff, diff, out=out[part].reshape(-1))
    return out


def _rerank(x, centroids, values, best, tol, tight, lab, dist) -> None:
    """Lowest-index explicit argmin for the ``tight`` rows, written into ``lab`` and ``dist``.

    ``values`` holds each row's shortlist values with its winner's set to
    inf; a centroid is a contender when its value is within ``tol`` of the
    row's ``best``, and every other centroid's explicit distance is larger.
    """
    band = values[tight] <= (best[tight] + tol[tight])[:, None]
    band[np.arange(tight.size), lab[tight]] = True
    row, cid = np.nonzero(band)  # row-major: each row's contenders in ascending order
    exact = _sq_dist(x, centroids, tight[row], cid)
    lowest = np.minimum.reduceat(exact, np.flatnonzero(np.diff(row, prepend=-1)))
    hits = np.flatnonzero(exact == lowest[row])
    first = hits[np.flatnonzero(np.diff(row[hits], prepend=-1))]
    lab[tight] = cid[first]
    dist[tight] = exact[first]


def _assign_chunked(
    data: np.ndarray,
    kept: np.ndarray,
    origin: np.ndarray,
    centroids: np.ndarray,
    xnorm: np.ndarray,
    comp: np.ndarray,
    moved: np.ndarray,
    labels: np.ndarray,
    d2: np.ndarray,
) -> np.ndarray:
    """Re-rank the rows a moved centroid can reach, updating ``labels`` and ``d2`` in place.

    Row i is ``data[kept[i]] - origin``; each block of rows is gathered,
    widened and translated into one buffer, which the GEMM against -2c
    reads, and ``xnorm`` holds their norms. ``moved`` marks the clusters
    whose member set, and so possibly centroid, changed since the previous
    step. On entry, each row of any other cluster holds in ``labels`` and
    ``d2`` its lowest-index explicit argmin over the previous centroids and
    its distance. A row whose own centroid moved is ranked against every
    centroid of its component (``comp``, one id per centroid, from
    :func:`_components`); any other row only against the moved centroids of
    its component, whose winner it takes on a smaller distance or on an
    equal one at a lower index; a row whose component holds no moved
    centroid keeps its label. Centroids go in ascending order, so the lowest
    local index is the lowest global one. Returns the mask of the clusters
    that gained or lost a row.
    """
    d = data.shape[1]
    L = centroids.shape[0]
    K = int(comp.max()) + 1
    reach = np.bincount(comp, weights=moved, minlength=K) > 0
    # group 2k + 1: rows of a moved centroid of component k; group 2k: the
    # other rows of component k; group 2K: rows of components where nothing moved
    key = np.where(reach[comp], 2 * comp + moved, 2 * K).astype(np.min_scalar_type(2 * K))
    row_key = key[labels]  # small keys take numpy's radix sort
    order = np.argsort(row_key, kind="stable")  # rows grouped, ascending within each
    sizes = np.bincount(row_key, minlength=2 * K + 1)
    stops = np.cumsum(sizes)
    changed = np.zeros(L, dtype=bool)
    slack = _slack(d)
    # one set of block buffers for every group, so their pages fault in
    # once: the rows, their GEMM values, and the staging of float32 rows
    scratch = np.empty((2, max(_BLOCK_ELEMENTS, L, d)), dtype=np.float64)
    stage = _stage(data, scratch.shape[1])
    # blocks are sized for all L centroids even where a group ranks fewer,
    # which keeps the temporaries of _sq_dist as small as in a full step
    block = max(1, _BLOCK_ELEMENTS // max(L, d))
    for g in np.flatnonzero(sizes[:-1]):
        k, own_moved = divmod(int(g), 2)
        cids = np.flatnonzero(comp == k if own_moved else (comp == k) & moved)
        cents = centroids[cids]
        keys = cents * -2.0  # exact
        cnorm = np.einsum("ij,ij->i", cents, cents)
        cmax = float(np.sqrt(cnorm.max()))
        rows = order[stops[g] - sizes[g] : stops[g]]
        for start in range(0, sizes[g], block):
            at = rows[start : start + block]
            m = at.size
            x = _rows64(data, kept[at], scratch[0], stage)
            x -= origin
            values = np.matmul(x, keys.T, out=scratch[1, : m * cids.size].reshape(m, cids.size))
            values += cnorm  # |c|^2 - 2 x.c
            r = np.arange(m)
            lab = np.argmin(values, axis=1)
            best = values[r, lab]
            values[r, lab] = np.inf
            gap = values[r, np.argmin(values, axis=1)] - best
            tol = xnorm[at] + cmax
            tol *= tol
            tol *= slack
            tol += _FLOOR
            dist = _sq_dist(x, cents, cols=lab)
            tight = np.flatnonzero(~(gap > tol))
            if tight.size:
                _rerank(x, cents, values, best, tol, tight, lab, dist)
            new = cids[lab]
            old = labels[at]
            if not own_moved:
                # the own centroid is static: its distance keeps its bits and
                # it beat every other static centroid, at a lower index on a tie
                prev = d2[at]
                keep = (prev < dist) | ((prev == dist) & (old < new))
                new[keep] = old[keep]
                dist[keep] = prev[keep]
            switched = new != old
            changed[old[switched]] = True
            changed[new[switched]] = True
            labels[at] = new
            d2[at] = dist
    return changed


def _components(centroids: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Component id per centroid of the graph of centroids that may compete for a row.

    Rows of cluster a lie within ``radius[a]`` of its centroid; c_j may
    win one of them unless |c_j - c_a| > 2 radius[a]. The squared gaps come
    from one GEMM, less a bound on their rounding, so they are lower bounds.
    Components are numbered in the order of their lowest centroid.
    """
    L, d = centroids.shape
    norms = np.einsum("ij,ij->i", centroids, centroids)
    gap2 = centroids @ centroids.T
    gap2 *= -2.0
    shaded = norms * (1.0 - _slack(d))
    gap2 += shaded[:, None]
    gap2 += shaded
    reach = gap2 <= np.maximum(4.0 * (1.0 + _PRUNE_MARGIN) * radius * radius, _FLOOR)[:, None]
    reach |= reach.T
    comp = np.full(L, -1, dtype=np.int64)
    k = 0
    for seed in range(L):
        if comp[seed] >= 0:
            continue
        comp[seed] = k
        front = np.array([seed])
        while front.size:
            front = np.flatnonzero(reach[front].any(axis=0) & (comp < 0))
            comp[front] = k
        k += 1
    return comp


def _means_by_label(
    data: np.ndarray, kept: np.ndarray, origin: np.ndarray, labels: np.ndarray, centroids: np.ndarray, changed: np.ndarray
) -> np.ndarray:
    """Member means of the ``changed`` clusters; every other centroid keeps its bits.

    Row i is ``data[kept[i]] - origin``. The rows of the changed clusters
    are gathered and translated in blocks, in ascending row order, and each
    block goes into the flat (cluster, feature) sums in one ``np.add.at``,
    which adds in index order. So each sum takes its cluster's rows in
    ascending row order from 0.0, as a per-feature ``bincount`` over every
    row does, and a mean taken over the changed clusters alone has the bits
    of a full pass.
    """
    L, d = centroids.shape
    sub = np.flatnonzero(changed[labels])
    lab = labels[sub]
    sums = np.zeros(L * d, dtype=np.float64)
    feature = np.arange(d)
    step = max(1, _BLOCK_ELEMENTS // d)
    size = min(step, sub.size) * d
    buf, stage = np.empty(size), _stage(data, size)
    for start in range(0, sub.size, step):
        part = slice(start, start + step)
        x = _rows64(data, kept[sub[part]], buf, stage)
        x -= origin
        np.add.at(sums, np.add.outer(lab[part] * d, feature).ravel(), x.ravel())
    out = centroids.copy()
    out[changed] = sums.reshape(L, d)[changed] / np.bincount(lab, minlength=L)[changed, None].astype(np.float64)
    return out


def _kmeanspp(
    data: np.ndarray, kept: np.ndarray, origin: np.ndarray, L: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ seeds of the rows ``data[kept] - origin``, bit-identical to recomputing every row each round.

    Returns the seeds, ``near`` and ``d2``: each row's nearest seed and its
    squared distance to it. Each round replaces ``near`` only on a strictly
    smaller ``d2``, so ``near`` is the lowest-index argmin of the explicit
    distances to the seeds, the first Lloyd step's labels.

    If |c_j - c_near|^2 / 4 >= d2, the triangle inequality gives
    |x - c_j| >= |c_j - c_near| - |x - c_near| >= |x - c_near|, so the new
    centre c_j cannot lower the row's ``d2`` and the row is skipped. The
    test keeps a row unless the bound holds with a 1e-9 relative margin.
    The computed ``d2`` and centre gaps are sums of non-negative terms with
    relative rounding errors near 1e-14, so for a skipped row the computed
    distance to c_j still exceeds the stored ``d2`` and a full pass would
    have kept ``d2`` and ``near`` as well. Recomputed rows use the same
    :func:`_sq_dist` as a full pass, so ``d2`` and with it every draw of
    ``rng.choice(n, p=d2 / total)`` keep their bits.
    """
    n = kept.size
    centroids = np.empty((L, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    np.subtract(data[kept[first]], origin, out=centroids[0])
    d2 = _sq_dist(data, centroids[0], rows=kept, origin=origin)
    near = np.zeros(n, dtype=np.int64)
    for j in range(1, L):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        np.subtract(data[kept[idx]], origin, out=centroids[j])
        half2 = _sq_dist(centroids[:j], centroids[j]) * 0.25
        rows = np.flatnonzero(half2[near] < d2 * (1.0 + _PRUNE_MARGIN))
        new = _sq_dist(data, centroids[j], rows=kept[rows], origin=origin)
        closer = new < d2[rows]
        rows = rows[closer]
        d2[rows] = new[closer]
        near[rows] = j
    return centroids, near, d2


def _repair_empty(labels: np.ndarray, d2: np.ndarray, changed: np.ndarray) -> None:
    """Reseed each empty cluster with the globally worst-fit point.

    Mutates ``labels``/``d2`` in place; a stolen point's distance becomes 0
    because the reseeded centroid will land exactly on it. Both clusters a
    stolen point joins and leaves are marked in ``changed``.
    """
    counts = np.bincount(labels, minlength=changed.size)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return
    order = np.argsort(-d2, kind="stable")
    cursor = 0
    for cid in empties:
        while cursor < order.size and counts[labels[order[cursor]]] <= 1:
            cursor += 1
        if cursor >= order.size:
            raise InternalInvariantError("cannot repair empty cluster: no donor point")
        p = order[cursor]
        counts[labels[p]] -= 1
        changed[labels[p]] = changed[cid] = True
        labels[p] = cid
        counts[cid] = 1
        d2[p] = 0.0
        cursor += 1


def kmeans(store: EmbeddingStore, kept, L: int, seed: int) -> ClusterAssignment:
    """Lloyd K-means over ``store.data[kept]``, deterministic given seed."""
    rows = _store_rows(store, kept, "kept row")
    L, seed = _as_int(L, "cluster count L"), _as_int(seed, "seed")
    if L < 1 or L > rows.size:
        raise InputError(f"need 1 <= L <= |kept|, got L={L}, |kept|={rows.size}")
    data = store.data
    # every pass reads row i as data[rows[i]] - origin, widened and
    # translated per block; a float64 origin also widens the single rows
    # that k-means++ subtracts it from
    origin = data[rows[0]].astype(np.float64)
    xnorm = np.sqrt(_sq_dist(data, np.zeros(store.dim), rows=rows, origin=origin))
    centroids, labels, d2 = _kmeanspp(data, rows, origin, L, _stream_rng(seed, _KMEANS_STREAM))

    history = []
    prev = np.inf
    # the seeds are no member means, so the first step moves every centroid
    changed = np.ones(L, dtype=bool)
    for it in range(MAX_ITER):
        if it:
            changed = _assign_chunked(data, rows, origin, centroids, xnorm, comp, changed, labels, d2)
        _repair_empty(labels, d2, changed)
        inertia = float(d2.sum())
        if inertia > prev * (1.0 + 1e-12) + 1e-12:
            raise InternalInvariantError(f"inertia increased: {prev} -> {inertia}")
        prev = inertia
        history.append(inertia)
        new_centroids = _means_by_label(data, rows, origin, labels, centroids, changed)
        shifts = np.sqrt(_sq_dist(new_centroids, centroids, cols=np.arange(L)))
        centroids = new_centroids
        if float(shifts.max()) < SHIFT_TOL:
            break
        # every row of cluster a now lies within sqrt(max d2) + shift of c_a
        worst = np.zeros(L)
        np.maximum.at(worst, labels, d2)
        comp = _components(centroids, np.sqrt(worst) + shifts)

    # final labels were computed against the previous centroids; the final
    # centroids are exactly the member means of those labels
    inertia = float(_sq_dist(data, centroids, rows=rows, cols=labels, origin=origin).sum())
    counts = np.bincount(labels, minlength=L)
    if not counts.all():
        raise InternalInvariantError("empty cluster at convergence")
    # one radix sort by label, then each cluster's rows sorted in place
    by_label = np.argsort(labels.astype(np.min_scalar_type(L)), kind="stable")
    members = tuple(np.split(rows[by_label], np.cumsum(counts)[:-1]))
    for m in members:
        m.sort()
    return ClusterAssignment(
        labels=labels,
        centroids=centroids + origin,
        members=members,
        inertia=inertia,
        inertia_history=np.asarray(history),
    )

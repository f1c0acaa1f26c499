"""K-means partitioning of the filtered set.

Lloyd iterations start from k-means++ seeding and stop when the largest
centroid displacement falls below 1e-6 or after 100 iterations. Empty
clusters are repaired by reseeding the centroid onto the point currently
farthest from its assigned centroid (never stealing the last member of
another cluster). Inertia is asserted non-increasing across iterations.

The kept rows are translated so that the first of them sits at the origin
before seeding and Lloyd. Subtracting a data row (rather than the mean)
gives bitwise-identical translated data for any shift the input holds
exactly, so the clustering ignores it.

Label contract: :func:`_sq_dist` is the one routine that computes an
explicit squared distance sum_k (x_k - c_k)^2, here and in the Gaussian
kernel of :mod:`egms.entropy`. Each row's label is the lowest-index argmin
of its distances to the centroids, and every squared distance this module
reports (the seeding weights, the inertia history, the order of
empty-cluster repair) is that value for the winner. So labels and distances
depend neither on the GEMM block shape nor on the BLAS thread count. The
first Lloyd step takes the labels k-means++ already holds; later steps use
the shortlist below.

Certified shortlist. A GEMM against [-2c, |c|^2] (one column of ones on
the rows) ranks the centroids by v_j = |c_j|^2 - 2 x.c_j, which differs
from the squared distance by |x|^2 only. A dot product of length n has an
error of at most gamma_n times the dot product of the absolute values
(Higham 2002, "Accuracy and Stability of Numerical Algorithms", section 3.1,
gamma_n = n u / (1 - n u)), so each computed v_j is within 2 gamma_{d+1} S
of the exact one, with S = (|x| + max_j |c_j|)^2, and each explicit
distance is within gamma_{d+2} S of the exact one. So if the runner-up
value exceeds the smallest by more than 6 gamma_{d+2} S, the smallest one's
explicit distance is strictly the least and it is the label; the test uses
8 gamma_{d+2} S, which also covers the rounding of S. Rows that fail it are
re-ranked by explicit distances over every centroid whose value lies within
that slack of the smallest; the others cannot win or tie.

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
gained or lost a row, empty-cluster repairs included, and ``bincount`` sums
each of them in ascending row order, as a full pass does. Every other
centroid counts as moved; in the first step all do, since the seeds are no
member means. A row's previous label is the lowest-index explicit argmin
over all the previous centroids, and a static centroid's explicit distance
keeps its bits, so that label still beats every other static centroid. A
row whose own centroid is static is therefore ranked against the moved
centroids of its component only, and takes their winner only when it is
strictly closer, or equally close at a lower index. A row whose component
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

from .datamodel import EmbeddingStore, _store_rows
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


def _sq_dist(x: np.ndarray, c: np.ndarray, rows: np.ndarray | None = None, cols: np.ndarray | None = None) -> np.ndarray:
    """Explicit squared distance sum_k (x_k - c_k)^2 of each pair (``x[rows[i]]``, ``c[cols[i]]``).

    Without ``rows`` the pairs take the rows of ``x`` in order; without
    ``cols``, ``c`` is one centre for every row. This is the one routine
    behind every squared distance of egms: each k-means label and distance
    and each Gaussian kernel entry. A pair's bits depend on its two rows
    alone, not on the other pairs. Calls that gather one centre per pair go
    in blocks of ``_BLOCK_ELEMENTS`` values; one-centre calls take one pass.
    """
    if cols is None:
        if rows is None:
            diff = x - c
        else:
            diff = x[rows]  # fancy indexing copies; subtracting in place keeps one temporary
            diff -= c
        return np.einsum("ij,ij->i", diff, diff)
    out = np.empty(cols.size, dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // x.shape[1])
    for start in range(0, cols.size, step):
        part = slice(start, start + step)
        diff = c[cols[part]]  # a gathered copy, which the differences overwrite
        np.subtract(x[part] if rows is None else x[rows[part]], diff, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=out[part])
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
    xa: np.ndarray,
    centroids: np.ndarray,
    xnorm: np.ndarray,
    comp: np.ndarray,
    moved: np.ndarray,
    labels: np.ndarray,
    d2: np.ndarray,
) -> np.ndarray:
    """Re-rank the rows a moved centroid can reach, updating ``labels`` and ``d2`` in place.

    ``xa`` holds the rows with a column of ones appended, which the GEMM
    against [-2c, |c|^2] reads, and ``xnorm`` their norms. ``moved`` marks
    the clusters whose member set, and so possibly centroid, changed since
    the previous step. On entry, each row of any other cluster holds in
    ``labels`` and ``d2`` its lowest-index explicit argmin over the previous
    centroids and its distance. A row whose own centroid moved is ranked
    against every centroid of its component (``comp``, one id per centroid,
    from :func:`_components`); any other row only against the moved
    centroids of its component, whose winner it takes on a smaller distance
    or on an equal one at a lower index; a row whose component holds no
    moved centroid keeps its label. Centroids go in ascending order, so the
    lowest local index is the lowest global one. Returns the mask of the
    clusters that gained or lost a row.
    """
    n, d = xa.shape[0], xa.shape[1] - 1
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
    # once; np.take writes into them directly only with mode="clip" (the
    # indices are valid), while the default mode buffers a copy
    scratch = np.empty((2, max(_BLOCK_ELEMENTS, L, d + 1)), dtype=np.float64)
    # blocks are sized for all L centroids even where a group ranks fewer,
    # which keeps the temporaries of _sq_dist as small as in a full step
    block = max(1, _BLOCK_ELEMENTS // max(L, d + 1))
    for g in np.flatnonzero(sizes[:-1]):
        k, own_moved = divmod(int(g), 2)
        cids = np.flatnonzero(comp == k if own_moved else (comp == k) & moved)
        whole = cids.size == L
        cents = centroids if whole else centroids[cids]
        keys = np.empty((cids.size, d + 1), dtype=np.float64)
        np.multiply(cents, -2.0, out=keys[:, :d])  # exact
        keys[:, d] = np.einsum("ij,ij->i", cents, cents)
        cmax = float(np.sqrt(keys[:, d].max()))
        rows = None if sizes[g] == n else order[stops[g] - sizes[g] : stops[g]]
        for start in range(0, sizes[g], block):
            stop = min(start + block, sizes[g])
            m = stop - start
            if rows is None:
                at = slice(start, stop)
                xb = xa[at]
            else:
                at = rows[start:stop]
                xb = np.take(xa, at, axis=0, out=scratch[0, : m * (d + 1)].reshape(m, d + 1), mode="clip")
            values = np.matmul(xb, keys.T, out=scratch[1, : m * cids.size].reshape(m, cids.size))  # |c|^2 - 2 x.c
            r = np.arange(m)
            lab = np.argmin(values, axis=1)
            best = values[r, lab]
            values[r, lab] = np.inf
            gap = values[r, np.argmin(values, axis=1)] - best
            tol = xnorm[at] + cmax
            tol *= tol
            tol *= slack
            tol += _FLOOR
            x = xb[:, :d]
            dist = _sq_dist(x, cents, cols=lab)
            tight = np.flatnonzero(~(gap > tol))
            if tight.size:
                _rerank(x, cents, values, best, tol, tight, lab, dist)
            new = lab if whole else cids[lab]
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


def _means_by_label(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray, changed: np.ndarray) -> np.ndarray:
    """Member means of the ``changed`` clusters; every other centroid keeps its bits.

    ``bincount`` adds each cluster's rows in ascending row order, and the
    rows of other clusters do not enter its sum, so a mean taken over the
    rows of the changed clusters alone has the bits of a full pass.
    """
    L = centroids.shape[0]
    sub = np.flatnonzero(changed[labels])
    lab = labels[sub]
    sums = np.empty((L, x.shape[1]), dtype=np.float64)
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(lab, weights=x[sub, j], minlength=L)
    out = centroids.copy()
    out[changed] = sums[changed] / np.bincount(lab, minlength=L)[changed, None].astype(np.float64)
    return out


def _kmeanspp(x: np.ndarray, L: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ seeds, bit-identical to recomputing every row each round.

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
    n = x.shape[0]
    centroids = np.empty((L, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    d2 = _sq_dist(x, centroids[0])
    near = np.zeros(n, dtype=np.int64)
    for j in range(1, L):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centroids[j] = x[idx]
        half2 = _sq_dist(centroids[:j], centroids[j]) * 0.25
        rows = np.flatnonzero(half2[near] < d2 * (1.0 + _PRUNE_MARGIN))
        new = _sq_dist(x, centroids[j], rows=rows)
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
    if L < 1 or L > rows.size:
        raise InputError(f"need 1 <= L <= |kept|, got L={L}, |kept|={rows.size}")
    d = store.dim
    origin = store.data[rows[0]].copy()
    # the translated rows with a column of ones (the layout the assignment
    # GEMM reads), filled in blocks so no second n x d array is made
    xa = np.empty((rows.size, d + 1), dtype=np.float64)
    xa[:, d] = 1.0
    x = xa[:, :d]
    step = max(1, _BLOCK_ELEMENTS // d)
    for start in range(0, rows.size, step):
        np.subtract(store.data[rows[start : start + step]], origin, out=x[start : start + step])
    xnorm = np.sqrt(np.einsum("ij,ij->i", x, x))
    # stream tag 1 reserves this generator lineage for kmeans; the sampler
    # derives its per-cluster generators under other tags from the same seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 1]))
    centroids, labels, d2 = _kmeanspp(x, L, rng)

    history = []
    prev = np.inf
    # the seeds are no member means, so the first step moves every centroid
    changed = np.ones(L, dtype=bool)
    for it in range(MAX_ITER):
        if it:
            changed = _assign_chunked(xa, centroids, xnorm, comp, changed, labels, d2)
        _repair_empty(labels, d2, changed)
        inertia = float(d2.sum())
        if inertia > prev * (1.0 + 1e-12) + 1e-12:
            raise InternalInvariantError(f"inertia increased: {prev} -> {inertia}")
        prev = inertia
        history.append(inertia)
        new_centroids = _means_by_label(x, labels, centroids, changed)
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
    inertia = float(_sq_dist(x, centroids, cols=labels).sum())
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

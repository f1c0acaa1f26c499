"""K-means partitioning of the filtered set.

Lloyd iterations start from k-means++ seeding and stop when the largest
centroid displacement falls below 1e-6 or after 100 iterations. Empty
clusters are repaired by reseeding the centroid onto the point currently
farthest from its assigned centroid (never stealing the last member of
another cluster). Inertia is asserted non-increasing across iterations.

The kept rows are translated so that the first of them sits at the origin
before seeding and Lloyd. Assignment ranks centroids by the expanded form
|x|^2 - 2x.c + |c|^2, which cancels badly far from the origin; subtracting
a data row (rather than the mean) gives bitwise-identical translated data
for any shift the input holds exactly, so the clustering ignores it.

Both hot loops are exact. Seeding skips the distance pass for rows that
the triangle inequality proves cannot move closer to a new centre (Elkan
2003, "Using the triangle inequality to accelerate k-means"; Raff 2021,
"Exact Acceleration of K-Means++ and K-Means||"), so every random draw and
every seed centroid is bit-identical to a full pass. Assignment works in
blocks of about 1 MiB: one GEMM into a preallocated buffer, finished in
place with the same operations in the same order as the expression above,
and |x|^2 is computed once per :func:`kmeans` call.

Rounding caveat: OpenBLAS ``dgemm`` (measured on 0.3.31) can round a row's
dot products differently depending on the row count of the block and the
row's offset in it. The block size therefore fixes the last bits of the
assignment's squared distances, and with them of ``inertia_history``;
labels move only where two centroids tie to within that rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import EmbeddingStore
from .errors import InputError, InternalInvariantError

MAX_ITER = 100
SHIFT_TOL = 1e-6
# float64 elements in one assignment block (1 MiB)
_BLOCK_ELEMENTS = 1 << 17
# relative slack on the seeding bound: it covers the rounding of each
# squared distance (about d * 1.1e-16 relative) for d up to about 1e6
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Result of K-means over the kept rows.

    ``rows`` are the clustered store rows in input order; ``labels`` align
    with them. ``members`` holds, per cluster, the sorted store rows; no
    cluster is empty. ``inertia_history`` records the objective after each
    assignment step.
    """

    L: int
    rows: np.ndarray
    labels: np.ndarray
    centroids: np.ndarray
    members: tuple[np.ndarray, ...]
    inertia: float
    inertia_history: np.ndarray


def _assign_chunked(
    x: np.ndarray, centroids: np.ndarray, xn: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row: (labels, squared distances).

    ``xn`` holds |x|^2 per row; it is computed here when not given.
    """
    n, L = x.shape[0], centroids.shape[0]
    if xn is None:
        xn = np.einsum("ij,ij->i", x, x)
    labels = np.empty(n, dtype=np.int64)
    d2min = np.empty(n, dtype=np.float64)
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    block = max(1, _BLOCK_ELEMENTS // L)
    buf = np.empty((min(block, n), L), dtype=np.float64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = buf[: stop - start]
        # xn - 2 x.c + |c|^2, evaluated in that order as one expression would
        np.matmul(x[start:stop], centroids.T, out=d2)
        d2 *= 2.0
        np.subtract(xn[start:stop, None], d2, out=d2)
        d2 += c_norms
        lab = np.argmin(d2, axis=1, out=labels[start:stop])
        d2min[start:stop] = d2[np.arange(stop - start), lab]
    np.maximum(d2min, 0.0, out=d2min)
    return labels, d2min


def _means_by_label(x: np.ndarray, labels: np.ndarray, L: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=L).astype(np.float64)
    sums = np.empty((L, x.shape[1]), dtype=np.float64)
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=L)
    return sums / counts[:, None]


def _kmeanspp(x: np.ndarray, L: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds, bit-identical to recomputing every row each round.

    ``d2`` is each row's squared distance to its nearest seed so far and
    ``near`` that seed. If |c_j - c_near|^2 / 4 >= d2, the triangle
    inequality gives |x - c_j| >= |c_j - c_near| - |x - c_near| >= |x - c_near|,
    so the new centre c_j cannot lower the row's ``d2`` and the row is
    skipped. The test keeps a row unless the bound holds with a 1e-9
    relative margin. The computed ``d2`` and centre gaps are sums of
    non-negative terms with relative rounding errors near 1e-14, so for a
    skipped row the computed distance to c_j still exceeds the stored
    ``d2`` and a full pass would have kept ``d2`` as well. Recomputed rows
    use the same explicit-difference sum as a full pass, so ``d2`` and with
    it every draw of ``rng.choice(n, p=d2 / total)`` keep their bits.
    """
    n = x.shape[0]
    centroids = np.empty((L, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    diff = x - centroids[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    near = np.zeros(n, dtype=np.int64)
    for j in range(1, L):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centroids[j] = x[idx]
        gap = centroids[:j] - centroids[j]
        half2 = np.einsum("ij,ij->i", gap, gap) * 0.25
        rows = np.flatnonzero(half2[near] < d2 * (1.0 + _PRUNE_MARGIN))
        diff = x[rows]  # fancy indexing copies; subtracting in place keeps one n x d temporary
        diff -= centroids[j]
        new = np.einsum("ij,ij->i", diff, diff)
        closer = new < d2[rows]
        rows = rows[closer]
        d2[rows] = new[closer]
        near[rows] = j
    return centroids


def _repair_empty(labels: np.ndarray, d2: np.ndarray, L: int) -> None:
    """Reseed each empty cluster with the globally worst-fit point.

    Mutates ``labels``/``d2`` in place; a stolen point's distance becomes 0
    because the reseeded centroid will land exactly on it.
    """
    counts = np.bincount(labels, minlength=L)
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
        labels[p] = cid
        counts[cid] = 1
        d2[p] = 0.0
        cursor += 1


def kmeans(store: EmbeddingStore, kept, L: int, seed: int) -> ClusterAssignment:
    """Lloyd K-means over ``store.data[kept]``, deterministic given seed."""
    rows = np.asarray(kept, dtype=np.int64).ravel()
    if rows.size == 0:
        raise InputError("kept index list is empty")
    if rows.min() < 0 or rows.max() >= store.count:
        raise InputError(f"kept index out of range [0, {store.count})")
    if len(np.unique(rows)) != rows.size:
        raise InputError("kept indices must be distinct")
    if L < 1 or L > rows.size:
        raise InputError(f"need 1 <= L <= |kept|, got L={L}, |kept|={rows.size}")
    x = store.data[rows]  # fancy indexing copies, so translating in place is safe
    origin = x[0].copy()
    x -= origin
    # stream tag 1 reserves this generator lineage for kmeans; the sampler
    # derives its per-cluster generators under other tags from the same seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 1]))
    centroids = _kmeanspp(x, L, rng)
    xn = np.einsum("ij,ij->i", x, x)

    history = []
    prev = np.inf
    for _ in range(MAX_ITER):
        labels, d2 = _assign_chunked(x, centroids, xn)
        _repair_empty(labels, d2, L)
        inertia = float(d2.sum())
        if inertia > prev * (1.0 + 1e-12) + 1e-12:
            raise InternalInvariantError(f"inertia increased: {prev} -> {inertia}")
        prev = inertia
        history.append(inertia)
        new_centroids = _means_by_label(x, labels, L)
        delta = new_centroids - centroids
        shift = float(np.sqrt(np.einsum("ij,ij->i", delta, delta)).max())
        centroids = new_centroids
        if shift < SHIFT_TOL:
            break

    # final labels were computed against the previous centroids; the final
    # centroids are exactly the member means of those labels; x is spent
    # after this, so the residuals overwrite it instead of a new n x d array
    x -= centroids[labels]
    inertia = float(np.einsum("ij,ij->i", x, x).sum())
    members = tuple(np.sort(rows[labels == c]) for c in range(L))
    if any(m.size == 0 for m in members):
        raise InternalInvariantError("empty cluster at convergence")
    return ClusterAssignment(
        L=L,
        rows=rows,
        labels=labels,
        centroids=centroids + origin,
        members=members,
        inertia=inertia,
        inertia_history=np.asarray(history),
    )


def centroids_to_store(assignment: ClusterAssignment) -> EmbeddingStore:
    """Centroids as an embedding store, e.g. for a binary-format dump."""
    return EmbeddingStore(assignment.centroids)

"""Gaussian-kernel similarity states and their von Neumann entropy.

The similarity matrix of a selected set has unit diagonal and entries
``exp(-||u - v||^2 / (2 sigma^2))``. Trace normalization turns it into a
density matrix (positive semi-definite, unit trace) whose eigenvalue
entropy ``-sum(lam * ln(lam))`` measures the diversity of the set: it is
0 when all samples coincide and ``ln(t)`` when they are mutually
dissimilar.

Growing a state by one sample appends a kernel row/column instead of
rebuilding the matrix; the eigendecomposition itself is recomputed from
scratch at every gain evaluation, since per-cluster matrices stay small
and correctness outranks the marginal speedup of rank-one updates.

All squared distances go through one routine (explicit differences summed
over the feature axis) so that a pair of rows produces bit-identical
kernel entries no matter which code path asks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import EmbeddingStore, _check_sigma
from .errors import InputError, InternalInvariantError

_EIG_CLAMP = 1e-12
_CHUNK_ELEMENTS = 2_000_000  # cap on the difference tensor of _sq_dists


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (na, d) x (nb, d) -> (na, nb).

    Rows of ``a`` go in chunks so that no difference tensor holds more than
    ``_CHUNK_ELEMENTS`` values; each entry is the same sum either way.
    """
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, b.shape[0] * a.shape[1]))
    for start in range(0, a.shape[0], chunk):
        diff = a[start : start + chunk, None, :] - b[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start : start + chunk])
    return out


def _kernel_block(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(_sq_dists(a, b) / (-2.0 * sigma * sigma))


@dataclass(frozen=True, eq=False)
class SimilarityState:
    """Symmetric unit-diagonal kernel matrix of a partially selected set.

    ``member_rows`` maps matrix rows back to embedding-store rows. Values
    are immutable; augmentation returns a new state.
    """

    matrix: np.ndarray
    member_rows: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        rows = np.asarray(self.member_rows, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"similarity matrix must be square, got {m.shape}")
        if rows.shape != (m.shape[0],):
            raise InputError("member_rows must have one entry per matrix row")
        if len(np.unique(rows)) != rows.size:
            raise InputError("member_rows must be distinct")
        if not np.isfinite(m).all():
            raise InputError("similarity matrix contains non-finite values")
        if not (np.diag(m) == 1.0).all():
            raise InputError("similarity matrix diagonal must be exactly 1")
        if np.abs(m - m.T).max(initial=0.0) > 1e-12:
            raise InputError("similarity matrix must be symmetric within 1e-12")
        m.setflags(write=False)
        rows.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "member_rows", rows)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        """Full invariant check, including the PSD bound (test hook)."""
        m = self.matrix
        if m.min(initial=1.0) < 0.0 or m.max(initial=0.0) > 1.0:
            raise InternalInvariantError("kernel entries must lie in [0, 1]")
        if np.linalg.eigvalsh(m).min() < -1e-9:
            raise InternalInvariantError("similarity matrix is not positive semi-definite")


def gaussian_similarity(u, v, sigma: float) -> float:
    """exp(-||u - v||^2 / (2 sigma^2)) for a single pair of vectors."""
    _check_sigma(sigma)
    ua = np.asarray(u, dtype=np.float64).reshape(1, -1)
    va = np.asarray(v, dtype=np.float64).reshape(1, -1)
    if ua.shape != va.shape:
        raise InputError(f"dimension mismatch: {ua.shape[1]} vs {va.shape[1]}")
    if not (np.isfinite(ua).all() and np.isfinite(va).all()):
        raise InputError("vectors must be finite")
    return float(_kernel_block(ua, va, sigma)[0, 0])


def _check_rows(store: EmbeddingStore, rows: np.ndarray) -> None:
    if rows.size == 0:
        raise InputError("rows must be nonempty")
    if rows.min() < 0 or rows.max() >= store.count:
        raise InputError(f"row index out of range [0, {store.count})")


def build_similarity(store: EmbeddingStore, rows, sigma: float) -> SimilarityState:
    """Full pairwise kernel matrix over the given store rows."""
    _check_sigma(sigma)
    rows = np.asarray(rows, dtype=np.int64).ravel()
    _check_rows(store, rows)
    if len(np.unique(rows)) != rows.size:
        raise InputError("rows must be distinct")
    pts = store.data[rows]
    return SimilarityState(matrix=_kernel_block(pts, pts, sigma), member_rows=rows)


def _density_entropies(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of each density matrix in a (..., n, n) stack."""
    try:
        lam = np.linalg.eigvalsh(rho)
    except np.linalg.LinAlgError as exc:
        raise InternalInvariantError(f"eigendecomposition failed: {exc}") from exc
    if not np.isfinite(lam).all():
        raise InternalInvariantError("non-finite eigenvalue: corrupted similarity state")
    lam = np.where(lam < _EIG_CLAMP, 0.0, np.minimum(lam, 1.0))
    terms = np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)
    # 0.0 - x, not -x: an all-zero sum gives +0.0, never -0.0
    return 0.0 - terms.sum(axis=-1)


def _matrix_entropy(matrix: np.ndarray) -> float:
    """Entropy of a unit-diagonal kernel matrix after trace normalization."""
    return float(_density_entropies(matrix / np.trace(matrix)))


def von_neumann_entropy(state: SimilarityState) -> float:
    """Entropy in nats of the trace-normalized similarity matrix.

    Eigenvalues below 1e-12 are treated as exact zeros (duplicate samples
    produce them) with the convention 0*ln(0) = 0.
    """
    return _matrix_entropy(state.matrix)


def augment(state: SimilarityState, store: EmbeddingStore, new_row: int, sigma: float) -> SimilarityState:
    """Grow the state by one sample, appending its kernel row and column."""
    new_row = int(new_row)
    if new_row < 0 or new_row >= store.count:
        raise InputError(f"row index {new_row} out of range [0, {store.count})")
    if new_row in state.member_rows:
        raise InputError(f"row {new_row} is already a member")
    t = state.size
    s = _kernel_block(store.data[new_row][None, :], store.data[state.member_rows], sigma)[0]
    grown = np.empty((t + 1, t + 1), dtype=np.float64)
    grown[:t, :t] = state.matrix
    grown[:t, t] = s
    grown[t, :t] = s
    grown[t, t] = 1.0
    return SimilarityState(matrix=grown, member_rows=np.append(state.member_rows, new_row))


def entropy_gain(state: SimilarityState, store: EmbeddingStore, candidate_row: int, sigma: float) -> float:
    """Entropy increase from adding one candidate; the state is untouched."""
    return von_neumann_entropy(augment(state, store, candidate_row, sigma)) - von_neumann_entropy(state)


def entropy_gains(
    state: SimilarityState,
    store: EmbeddingStore,
    candidate_rows: np.ndarray,
    sigma: float,
    base_entropy: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`entropy_gain` over a candidate set.

    Returns ``(gains, augmented_entropies)``; the stacked eigensolve keeps
    per-candidate arithmetic identical to the single-candidate path.
    """
    cands = np.asarray(candidate_rows, dtype=np.int64).ravel()
    _check_rows(store, cands)
    if np.isin(cands, state.member_rows).any():
        raise InputError("candidate rows must not already be members")
    if base_entropy is None:
        base_entropy = von_neumann_entropy(state)
    t = state.size
    m = cands.size
    kern = _kernel_block(store.data[cands], store.data[state.member_rows], sigma)
    stack = np.empty((m, t + 1, t + 1), dtype=np.float64)
    stack[:, :t, :t] = state.matrix
    stack[:, t, :t] = kern
    stack[:, :t, t] = kern
    stack[:, t, t] = 1.0
    entropies = _density_entropies(stack / float(t + 1))
    return entropies - base_entropy, entropies

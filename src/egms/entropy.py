"""Gaussian-kernel similarity states and their von Neumann entropy.

The similarity matrix of a selected set has unit diagonal and entries
``exp(-||u - v||^2 / (2 sigma^2))``. Trace normalization turns it into a
density matrix (positive semi-definite, unit trace) whose eigenvalue
entropy ``-sum(lam * ln(lam))`` measures the diversity of the set: it is
0 when all samples coincide and ``ln(t)`` when they are mutually
dissimilar.

Growing a state by one sample appends a kernel row/column instead of
rebuilding the matrix. A candidate's entropy is always the full
eigensolve of its own bordered matrix ``[[A, k], [k^T, 1]] / (t + 1)``
(A the t x t state, k the candidate's kernel row), the same arithmetic
whichever other candidates share the stack.

:func:`best_entropy_gain` finds the greedy argmax without solving every
candidate. With ``A = Q diag(lam) Q^T`` (one ``eigh`` per step) and
``z = Q^T k`` (one GEMM for all candidates), each bordered matrix is
orthogonally similar to the arrowhead ``H(z) = [[diag(lam), z], [z^T, 1]]``
(Golub 1973, "Some modified matrix eigenvalue problems"). The bound:

- ``f(z) = tr(rho log rho)`` with ``rho = H(z) / (t + 1)`` is convex in z,
  because ``x log x`` is convex (so is its trace function) and ``H`` is
  affine in z. It is even in each ``z_i``: flipping the sign of ``z_i`` is
  a similarity by a diagonal sign matrix. Hence ``f(z) >= f(z with z_i
  = 0)`` by convexity at the midpoint of ``z`` and its mirror image, and
  zeroing any set of ``z_i`` can only raise the entropy ``-f``. Zeroing
  keeps H positive semi-definite, since its Schur complement
  ``1 - sum(z_i^2 / lam_i)`` (over ``lam_i > 0``) only grows.
- Zeroing all but the g largest ``z_i^2`` decouples H: its spectrum is
  the other ``lam_i`` plus that of a (g+1)x(g+1) arrowhead. That entropy
  U is an upper bound on the candidate's entropy S, in O(g^3) per
  candidate instead of O(t^3). The 2x2 case (g = 1) has closed-form
  eigenvalues and bounds every candidate; candidates it cannot rule out
  get the g = 4 bound.

The largest-bound candidates are solved exactly first. A candidate is
then ruled out when ``(U + margin) - base < best_gain``, and only the
rest are solved (upper-bound pruning, as in the lazy greedy of Minoux
1978, "Accelerated greedy algorithms for maximizing submodular set
functions"). The argmax, its ``==`` ties and the lowest-row rule run on
the solved candidates' own entropies, so the result is that of
:func:`entropy_gains` bit for bit.

The margin covers the gap between the computed S and U and the exact
ones. Each of the three computations involved (the exact stack, the
rotation into the arrowhead by ``eigh`` and the GEMM, and the small
solves of U) moves each of its t+1 eigenvalues by rounding, and the
1e-12 clamp moves each by up to 1e-12 more. For ``|a - b| <= 1/2``,
``|a ln a - b ln b| <= -d ln d`` with ``d = |a - b|`` (the lemma behind
Fannes' inequality). The clamp alone thus moves the entropy by up to
2.8e-11 per eigenvalue, and a shift ``d <= 1.1e-11`` (rounding up to
1e-11 plus the clamp) by under 2.8e-10. Three computations of t+1
eigenvalues each stay below ``_MARGIN_PER_EIGENVALUE * (t + 1)`` =
1e-9 (t+1) as long as rounding moves a density eigenvalue by under
1e-11; backward-stable solves of matrices with norm <= 1 move it by a
small multiple of ``(t + 1) * 2.2e-16``.

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
_BOUND_POLES = 4  # g: z components the refined bound keeps
_FIRST_BATCH = 2  # candidates solved exactly before any is ruled out
_MARGIN_PER_EIGENVALUE = 1e-9  # bound slack per eigenvalue (module docstring)
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


def _xlogx(lam: np.ndarray) -> np.ndarray:
    """``lam * ln(lam)`` per density eigenvalue, after the 1e-12 clamp (0 * ln 0 = 0)."""
    lam = np.where(lam < _EIG_CLAMP, 0.0, np.minimum(lam, 1.0))
    return np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)


def _density_entropies(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of each density matrix in a (..., n, n) stack."""
    try:
        lam = np.linalg.eigvalsh(rho)
    except np.linalg.LinAlgError as exc:
        raise InternalInvariantError(f"eigendecomposition failed: {exc}") from exc
    if not np.isfinite(lam).all():
        raise InternalInvariantError("non-finite eigenvalue: corrupted similarity state")
    # 0.0 - x, not -x: an all-zero sum gives +0.0, never -0.0
    return 0.0 - _xlogx(lam).sum(axis=-1)


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


def _candidate_kernel(
    state: SimilarityState, store: EmbeddingStore, candidate_rows, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Validated candidate rows and their (m, t) kernel rows against the members."""
    cands = np.asarray(candidate_rows, dtype=np.int64).ravel()
    _check_rows(store, cands)
    if np.isin(cands, state.member_rows).any():
        raise InputError("candidate rows must not already be members")
    return cands, _kernel_block(store.data[cands], store.data[state.member_rows], sigma)


def _bordered_entropies(matrix: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Entropy of ``[[matrix, k], [k^T, 1]] / (t + 1)`` for each kernel row ``k``.

    Every bordered matrix is solved on its own, so a candidate's entropy has
    the same bits whichever other candidates share the stack.
    """
    m, t = kern.shape
    stack = np.empty((m, t + 1, t + 1), dtype=np.float64)
    stack[:, :t, :t] = matrix
    stack[:, t, :t] = kern
    stack[:, :t, t] = kern
    stack[:, t, t] = 1.0
    stack /= float(t + 1)
    return _density_entropies(stack)


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
    _, kern = _candidate_kernel(state, store, candidate_rows, sigma)
    if base_entropy is None:
        base_entropy = von_neumann_entropy(state)
    entropies = _bordered_entropies(state.matrix, kern)
    return entropies - base_entropy, entropies


def _pole_bounds(lam: np.ndarray, z: np.ndarray, total: float, g: int) -> np.ndarray:
    """Entropy of each arrowhead ``[[diag(lam), z], [z^T, 1]] / n`` with all but its g largest z_i^2 zeroed.

    Row j keeps the poles ``keep`` of its g largest z_i^2. The eigenvalues
    of the zeroed matrix are lam outside ``keep`` plus those of the
    (g+1)x(g+1) arrowhead on ``keep``, so the entropy is ``total`` (the
    entropy of lam alone) with the kept poles' terms swapped for that
    arrowhead's. g = 1 uses the closed-form 2x2 eigenvalues.
    """
    n = lam.size + 1
    rows = np.arange(z.shape[0])[:, None]
    z2 = z * z
    if g == 1:
        keep = z2.argmax(axis=1)[:, None]
        a = lam[keep]
        mid, half = 0.5 * (a + 1.0), 0.5 * (a - 1.0)
        rad = np.sqrt(half * half + z2[rows, keep])
        mu = np.concatenate([mid - rad, mid + rad], axis=1)
    else:
        keep = np.argpartition(z2, -g, axis=1)[:, -g:]
        a = lam[keep]
        head = np.zeros((z.shape[0], g + 1, g + 1), dtype=np.float64)
        diag = np.arange(g)
        head[:, diag, diag] = a
        head[:, :g, g] = z[rows, keep]
        head[:, g, :g] = head[:, :g, g]
        head[:, g, g] = 1.0
        mu = np.linalg.eigvalsh(head)
    return total + _xlogx(a / n).sum(axis=1) - _xlogx(mu / n).sum(axis=1)


def _beaten(bound: np.ndarray, margin: float, base_entropy: float, best_gain: float) -> np.ndarray:
    """Where an entropy bound proves the candidate's gain rounds strictly below ``best_gain``.

    ``(bound + margin) - base``, not ``bound - base + margin``: rounding the
    subtraction is monotone, so this holds however large ``base_entropy``
    is. A NaN bound compares false and rules nothing out.
    """
    return (bound + margin) - base_entropy < best_gain


def best_entropy_gain(
    state: SimilarityState,
    store: EmbeddingStore,
    candidate_rows: np.ndarray,
    sigma: float,
    base_entropy: float | None = None,
) -> tuple[int, float]:
    """The candidate with the largest entropy gain, and its augmented entropy.

    Returns the row and entropy that :func:`entropy_gains` followed by the
    largest gain, ties to the lowest row, would give, bit for bit. Only the
    candidates that the upper bounds of the module docstring cannot rule
    out are solved exactly: the ``_FIRST_BATCH`` with the highest 2x2
    bound, then every other one whose 2x2 and then g-pole bound reach
    ``best_gain - margin``.
    """
    cands, kern = _candidate_kernel(state, store, candidate_rows, sigma)
    if base_entropy is None:
        base_entropy = von_neumann_entropy(state)
    n = state.size + 1
    margin = _MARGIN_PER_EIGENVALUE * n
    try:
        lam, q = np.linalg.eigh(state.matrix)
    except np.linalg.LinAlgError as exc:
        raise InternalInvariantError(f"eigendecomposition failed: {exc}") from exc
    z = kern @ q
    total = 0.0 - _xlogx(lam / n).sum()

    entropies = np.full(cands.size, np.nan)
    bound = _pole_bounds(lam, z, total, 1)
    order = np.argsort(-bound, kind="stable")
    first, rest = order[:_FIRST_BATCH], order[_FIRST_BATCH:]
    entropies[first] = _bordered_entropies(state.matrix, kern[first])
    best_gain = (entropies[first] - base_entropy).max()
    rest = rest[~_beaten(bound[rest], margin, base_entropy, best_gain)]
    if rest.size and state.size > _BOUND_POLES:  # else the g-pole bound is the full solve
        rest = rest[~_beaten(_pole_bounds(lam, z[rest], total, _BOUND_POLES), margin, base_entropy, best_gain)]
    if rest.size:
        entropies[rest] = _bordered_entropies(state.matrix, kern[rest])
    gains = entropies - base_entropy
    tied = np.flatnonzero(gains == np.nanmax(gains))
    pos = tied[np.argmin(cands[tied])]
    return int(cands[pos]), float(entropies[pos])

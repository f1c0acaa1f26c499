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

:func:`_best_bordered` finds the greedy argmax without solving every
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
  eigenvalues and bounds every candidate. Candidates it cannot rule out
  go through the tiers of ``_BOUND_POLES`` (g = 4, 16, 64) in order: each
  tier bounds the candidates the one before it left, and runs only while
  g < t, since at g >= t its bound is the full solve. A larger g keeps
  more of z's mass, so its bound is tighter; as t grows that mass spreads
  over more components, and the larger tiers take over from g = 4.

The largest-bound candidates are solved exactly first. A candidate is
then ruled out when ``(U + margin) - base < best_gain``, and only the
rest are solved (upper-bound pruning, as in the lazy greedy of Minoux
1978, "Accelerated greedy algorithms for maximizing submodular set
functions"). The argmax, its ``==`` ties and the lowest-row rule run on
the solved candidates' own entropies, so the result is that of solving
every candidate, bit for bit.

The argmax runs over a stack of states of one size t, one per cluster
that the greedy moves in lock step: one ``eigh`` of the (k, t, t) stack,
bounds over the ragged candidate rows, each tagged with its state, and
exact solves in stacks of at most ``_STACK_ELEMENTS`` values (or of just
enough matrices that ``eigvalsh`` releases the GIL). Each
state's ``best_gain``, pruning and argmax read only its own rows, and a
solved entropy has the same bits in any stack, so a state's result does
not depend on the others.

A state that no bound can help is solved directly: every candidate in
one stack, with no ``eigh``, GEMM or bound. That is a state whose
candidates all fit in the first batch of ``_FIRST_BATCH``, which is solved
before anything is ruled out (a given pick, a set of one, is such a
state, and so is every state of t = 0 or of ``m <= 2``), and a
near-identity state: when ``(t + 1)`` times its largest candidate kernel
entry is below ``_NEAR_IDENTITY``, all entropies and bounds lie within a
sliver of each other and few if any candidates are ruled out (none at the
acceptance scale smoke, where kernel entries are about 1e-54). That is
exact whatever the rule: it only chooses which candidates are solved, and
each one's entropy has the same bits in any stack.

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
small multiple of ``(t + 1) * 2.2e-16``. This holds for every g, so for
every tier: each U is the exact entropy of a zeroed matrix with t+1
eigenvalues of norm <= 1, computed from the reused ``lam`` (the second
computation) and one small solve (the third). g only sets that solve's
size, and its g+1 eigenvalues are fewer than the t+1 the margin covers.

Every kernel entry goes through :func:`egms.clustering._sq_dist`, the one
routine that computes a squared distance in egms (explicit differences
summed over the feature axis): :func:`_paired_kernel` for listed pairs and
:func:`_kernel_block` for the grid of two row sets, with no index arrays.
A pair's bits depend on its two rows alone, and (a - b)^2 = (b - a)^2
exactly, so a pair of rows gives the same kernel entry whichever code path
asks, in either order and in any block: the greedy's kernel columns, the
matrices of ``build_similarity`` and ``augment``, and the MMD baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import _BLOCK_ELEMENTS, _sq_dist
from .datamodel import EmbeddingStore, _check_sigma, _store_rows
from .errors import InputError, InternalInvariantError

_EIG_CLAMP = 1e-12
_BOUND_POLES = (4, 16, 64)  # g of each refined bound tier, rising: z components it keeps
_FIRST_BATCH = 2  # candidates solved exactly before any is ruled out
_MARGIN_PER_EIGENVALUE = 1e-9  # bound slack per eigenvalue (module docstring)
_NEAR_IDENTITY = 1e-3  # (t + 1) * max kernel entry below which no bound is tried
# cap on the values of one stack of bordered matrices (512 KiB); an exact
# solve stack also holds at least 501 // (t + 1) + 1 matrices, so that
# eigvalsh releases the GIL (stacks of k matrices of order n with
# k * n > 500), which lifts it to about 2 MiB near t + 1 = 500
_STACK_ELEMENTS = 1 << 16


def _gaussian(sq: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-d^2 / (2 sigma^2)) of each squared distance, in place."""
    with np.errstate(over="ignore"):  # d^2 / (2 sigma^2) past the float range is -inf, a kernel entry of 0
        sq /= -2.0 * sigma * sigma
    return np.exp(sq, out=sq)


def _paired_kernel(x: np.ndarray, c: np.ndarray, rows: np.ndarray, cols: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel entry of each row pair (``x[rows[i]]``, ``c[cols[i]]``)."""
    return _gaussian(_sq_dist(x, c, rows, cols), sigma)


def _kernel_block(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """(na, nb) kernel matrix between the rows of ``a`` and of ``b``: the grid of their pairs."""
    return _gaussian(_sq_dist(a, b), sigma)


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
        if _asymmetry(m) > 1e-12:
            raise InputError("similarity matrix must be symmetric within 1e-12")
        m.setflags(write=False)
        rows.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "member_rows", rows)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _asymmetry(m: np.ndarray) -> float:
    """max |m - m.T| of a square matrix, taken over row blocks of about 1 MiB, not whole copies."""
    n = m.shape[0]
    step = max(1, _BLOCK_ELEMENTS // max(1, n))
    worst = 0.0
    for a in range(0, n, step):
        gap = m[a : a + step] - m[:, a : a + step].T
        worst = max(worst, float(np.abs(gap, out=gap).max()))
    return worst


def gaussian_similarity(u, v, sigma: float) -> float:
    """exp(-||u - v||^2 / (2 sigma^2)) for a single pair of vectors."""
    _check_sigma(sigma)
    ua = np.asarray(u, dtype=np.float64).reshape(1, -1)
    va = np.asarray(v, dtype=np.float64).reshape(1, -1)
    if ua.shape != va.shape:
        raise InputError(f"dimension mismatch: {ua.shape[1]} vs {va.shape[1]}")
    if ua.shape[1] == 0:
        raise InputError("vectors must be non-empty")
    if not (np.isfinite(ua).all() and np.isfinite(va).all()):
        raise InputError("vectors must be finite")
    return float(_kernel_block(ua, va, sigma)[0, 0])


def build_similarity(store: EmbeddingStore, rows, sigma: float) -> SimilarityState:
    """Full pairwise kernel matrix over the given store rows."""
    _check_sigma(sigma)
    rows = _store_rows(store, rows, "row")
    pts = store.data[rows]
    return SimilarityState(matrix=_kernel_block(pts, pts, sigma), member_rows=rows)


def _xlogx(lam: np.ndarray) -> np.ndarray:
    """``lam * ln(lam)`` per density eigenvalue, after the 1e-12 clamp (0 * ln 0 = 0)."""
    lam = np.where(lam < _EIG_CLAMP, 0.0, np.minimum(lam, 1.0))
    return lam * np.log(np.where(lam > 0.0, lam, 1.0))  # a zero gives 0 * ln 1 = +0.0


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


def _bordered_entropies(mats: np.ndarray, kern: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Entropy of ``[[A, k], [k^T, 1]] / (t + 1)`` for each kernel row ``k``, with ``A = mats[owner]``.

    Every bordered matrix is solved on its own, so a candidate's entropy has
    the same bits whichever other candidates share the stack. Stacks hold
    at most ``_STACK_ELEMENTS`` values, or else the fewest matrices, more
    than 500 // (t + 1), for which ``eigvalsh`` releases the GIL.
    """
    m, t = kern.shape
    out = np.empty(m, dtype=np.float64)
    chunk = max(1, _STACK_ELEMENTS // (t + 1) ** 2, 501 // (t + 1) + 1)
    for start in range(0, m, chunk):
        k, o = kern[start : start + chunk], owner[start : start + chunk]
        stack = np.empty((k.shape[0], t + 1, t + 1), dtype=np.float64)
        stack[:, :t, :t] = mats[o]
        stack[:, t, :t] = k
        stack[:, :t, t] = k
        stack[:, t, t] = 1.0
        stack /= float(t + 1)
        out[start : start + chunk] = _density_entropies(stack)
    return out


def _pole_bounds(lam: np.ndarray, total: np.ndarray, z: np.ndarray, state: np.ndarray, g: int) -> np.ndarray:
    """Entropy of each arrowhead ``[[diag(lam_s), z_j], [z_j^T, 1]] / n`` with all but its g largest z_i^2 zeroed.

    Row j of ``z`` belongs to state ``s = state[j]``, whose eigenvalues are
    ``lam[s]`` and whose entropy of those alone is ``total[s]``. Row j keeps
    the poles ``keep`` of its g largest z_i^2. The eigenvalues of the
    zeroed matrix are lam outside ``keep`` plus those of the (g+1)x(g+1)
    arrowhead on ``keep``, so the entropy is ``total`` with the kept poles'
    terms swapped for that arrowhead's. g = 1 uses the closed-form 2x2
    eigenvalues; larger g solve the arrowheads in stacks of at most
    ``_STACK_ELEMENTS`` values.
    """
    n = lam.shape[1] + 1
    rows = np.arange(z.shape[0])[:, None]
    z2 = z * z
    if g == 1:
        keep = z2.argmax(axis=1)[:, None]
        a = lam[state[:, None], keep]
        mid, half = 0.5 * (a + 1.0), 0.5 * (a - 1.0)
        rad = np.sqrt(half * half + z2[rows, keep])
        mu = np.concatenate([mid - rad, mid + rad], axis=1)
    else:
        keep = np.argpartition(z2, -g, axis=1)[:, -g:]
        a = lam[state[:, None], keep]
        zk = z[rows, keep]
        mu = np.empty((z.shape[0], g + 1), dtype=np.float64)
        diag = np.arange(g)
        chunk = max(1, _STACK_ELEMENTS // (g + 1) ** 2)
        for start in range(0, z.shape[0], chunk):
            stop = min(start + chunk, z.shape[0])
            head = np.zeros((stop - start, g + 1, g + 1), dtype=np.float64)
            head[:, diag, diag] = a[start:stop]
            head[:, :g, g] = zk[start:stop]
            head[:, g, :g] = zk[start:stop]
            head[:, g, g] = 1.0
            mu[start:stop] = np.linalg.eigvalsh(head)
    return total[state] + _xlogx(a / n).sum(axis=1) - _xlogx(mu / n).sum(axis=1)


def _beaten(bound: np.ndarray, margin: float, base_entropy: np.ndarray, best_gain: np.ndarray) -> np.ndarray:
    """Where an entropy bound proves the candidate's gain rounds strictly below ``best_gain``.

    ``(bound + margin) - base``, not ``bound - base + margin``: rounding the
    subtraction is monotone, so this holds however large ``base_entropy``
    is. A NaN bound compares false and rules nothing out.
    """
    return (bound + margin) - base_entropy < best_gain


def _best_bordered(
    mats: np.ndarray, kern: np.ndarray, owner: np.ndarray, cands: np.ndarray, base_entropy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each state ``mats[s]``, the row of ``kern`` with the largest gain over it, and its augmented entropy.

    ``mats`` is a (k, t, t) stack of states and ``base_entropy`` their k
    entropies. Row i of ``kern`` is a candidate of state ``owner[i]``;
    ``owner`` is non-decreasing and every state has a candidate. Ties go to
    the state's lowest ``cands`` (any key ordered like the rows). A state
    that is near-identity or has at most ``_FIRST_BATCH`` candidates is
    solved directly (module docstring). Of every other state, only the
    candidates the bounds do not rule out are solved: the ``_FIRST_BATCH``
    with the highest 2x2 bound, then every other one whose 2x2 bound and
    then the g-pole bound of each tier of ``_BOUND_POLES`` with g < t reach
    its ``best_gain - margin``. Each stage runs once over the whole stack,
    and a state's result depends on its own rows alone.
    """
    k, t = mats.shape[0], kern.shape[1]
    n = t + 1
    starts = np.searchsorted(owner, np.arange(k + 1))  # state s owns rows starts[s]:starts[s + 1]
    # kernel entries are >= 0, so a zero-width row (t = 0) has maximum 0
    near = n * np.maximum.reduceat(kern.max(axis=1, initial=0.0), starts[:-1]) < _NEAR_IDENTITY
    direct = near | (np.diff(starts) <= _FIRST_BATCH)  # no bound can rule a candidate out
    entropies = np.full(kern.shape[0], np.nan)
    solve = np.flatnonzero(direct[owner])
    bounded = np.flatnonzero(~direct)
    if bounded.size:
        margin = _MARGIN_PER_EIGENVALUE * n
        try:
            lam, q = np.linalg.eigh(mats[bounded])
        except np.linalg.LinAlgError as exc:
            raise InternalInvariantError(f"eigendecomposition failed: {exc}") from exc
        total = 0.0 - _xlogx(lam / n).sum(axis=1)
        rows = np.flatnonzero(~direct[owner])
        state = np.repeat(np.arange(bounded.size), np.diff(starts)[bounded])  # of each row, among the bounded
        z = np.concatenate([kern[starts[s] : starts[s + 1]] @ q[j] for j, s in enumerate(bounded)])

        bound = _pole_bounds(lam, total, z, state, 1)
        order = np.lexsort((-bound, state))  # by state, then by falling bound
        rank = np.arange(rows.size) - np.searchsorted(state, state[order])
        first, rest = order[rank < _FIRST_BATCH], order[rank >= _FIRST_BATCH]
        solve = np.concatenate([solve, rows[first]])
        entropies[solve] = _bordered_entropies(mats, kern[solve], owner[solve])
        best_gain = np.full(k, -np.inf)
        np.maximum.at(best_gain, owner[rows[first]], entropies[rows[first]] - base_entropy[owner[rows[first]]])
        o = owner[rows[rest]]
        rest = rest[~_beaten(bound[rest], margin, base_entropy[o], best_gain[o])]
        for g in _BOUND_POLES:
            if not rest.size or t <= g:  # at t <= g the g-pole bound is the full solve
                break
            o = owner[rows[rest]]
            bound = _pole_bounds(lam, total, z[rest], state[rest], g)
            rest = rest[~_beaten(bound, margin, base_entropy[o], best_gain[o])]
        solve = rows[rest]
    if solve.size:
        entropies[solve] = _bordered_entropies(mats, kern[solve], owner[solve])
    gains = entropies - base_entropy[owner]
    tied = gains == np.fmax.reduceat(gains, starts[:-1])[owner]
    key = np.where(tied, cands, np.iinfo(np.int64).max)
    pos = np.flatnonzero(tied & (key == np.minimum.reduceat(key, starts[:-1])[owner]))
    return pos, entropies[pos]

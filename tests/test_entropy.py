"""Similarity states, von Neumann entropy, and incremental augmentation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egms import (
    EmbeddingStore,
    InputError,
    InternalInvariantError,
    SimilarityState,
    augment,
    build_similarity,
    entropy_gain,
    gaussian_similarity,
    gen_synthetic,
    von_neumann_entropy,
)
from egms.clustering import _BLOCK_ELEMENTS, _sq_dist
from egms.entropy import (
    _BOUND_POLES,
    _EIG_CLAMP,
    _MARGIN_PER_EIGENVALUE,
    _best_bordered,
    _bordered_entropies,
    _density_entropies,
    _kernel_block,
    _paired_kernel,
    _pole_bounds,
    _xlogx,
)


@pytest.fixture(scope="module")
def store():
    s, _ = gen_synthetic(256, 6, 4, 0.6, seed=3)
    return s


def entropy_2x2(s):
    """Hand eigendecomposition oracle for [[1, s], [s, 1]]: eigvals 1 +- s."""
    lams = np.array([1.0 + s, 1.0 - s]) / 2.0
    return float(-(lams[lams > 0] * np.log(lams[lams > 0])).sum())


class TestGaussianSimilarity:
    def test_identical_vectors(self):
        assert gaussian_similarity([1.0, 2.0], [1.0, 2.0], 0.5) == 1.0

    def test_closed_form(self):
        # distance 1, sigma 0.5: exp(-1 / (2 * 0.25)) = exp(-2)
        assert gaussian_similarity((0, 0), (1, 0), 0.5) == pytest.approx(math.exp(-2), abs=1e-12)

    def test_symmetry(self):
        u, v = [0.3, -1.2, 4.0], [2.0, 0.1, -0.7]
        assert gaussian_similarity(u, v, 0.8) == gaussian_similarity(v, u, 0.8)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            gaussian_similarity([1.0], [1.0, 2.0], 0.5)

    def test_bad_sigma(self):
        for sigma in (0.0, 1e-200):  # 2 * 1e-200**2 underflows to 0
            with pytest.raises(InputError, match="sigma"):
                gaussian_similarity([1.0], [1.0], sigma)

    def test_bandwidth_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u, v = rng.normal(size=4), rng.normal(size=4)
            hi, lo = sorted(rng.uniform(0.05, 3.0, size=2), reverse=True)
            assert gaussian_similarity(u, v, lo) <= gaussian_similarity(u, v, hi)


class TestBuildSimilarity:
    def test_single_row(self, store):
        st = build_similarity(store, [5], 0.5)
        assert st.size == 1
        assert np.array_equal(st.matrix, [[1.0]])

    def test_duplicate_points(self):
        dup, _ = gen_synthetic(4, 3, 1, 0.0, seed=2)  # all rows identical
        st = build_similarity(dup, [0, 1], 0.5)
        assert np.array_equal(st.matrix, np.ones((2, 2)))

    def test_matches_pairwise_oracle(self, store):
        rows = [3, 77, 150]
        st = build_similarity(store, rows, 0.5)
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                want = gaussian_similarity(store.data[a], store.data[b], 0.5)
                assert abs(st.matrix[i, j] - want) <= 1e-12

    def test_invariants_on_random_states(self, store):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rows = rng.choice(store.count, size=int(rng.integers(1, 30)), replace=False)
            st = build_similarity(store, rows, float(rng.uniform(0.1, 2.0)))
            assert 0.0 <= st.matrix.min() and st.matrix.max() <= 1.0
            assert np.linalg.eigvalsh(st.matrix).min() >= -1e-9
            assert np.array_equal(np.diag(st.matrix), np.ones(st.size))
            assert np.abs(st.matrix - st.matrix.T).max() <= 1e-12

    def test_bad_inputs(self, store):
        with pytest.raises(InputError):
            build_similarity(store, [], 0.5)
        with pytest.raises(InputError):
            build_similarity(store, [0, store.count], 0.5)
        with pytest.raises(InputError):
            build_similarity(store, [0, 0], 0.5)

    def test_sigma_whose_square_underflows(self, store):
        with pytest.raises(InputError, match="sigma"):
            build_similarity(store, [0, 1], 1e-200)
        assert build_similarity(store, [0, 1], 1e-150).size == 2

    def test_memory_bounded_on_a_large_selection(self):
        import tracemalloc

        from egms import EmbeddingStore

        big = EmbeddingStore(np.random.default_rng(9).normal(size=(1000, 64)))
        tracemalloc.start()
        try:
            st = build_similarity(big, np.arange(1000), 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.size == 1000
        assert peak < 64 * 2**20

    def test_build_holds_about_one_matrix(self):
        """The symmetry check goes over row blocks: no whole m - m.T or |m - m.T| beside the matrix."""
        import tracemalloc

        from egms import EmbeddingStore

        big = EmbeddingStore(np.random.default_rng(9).normal(size=(1000, 64)))
        tracemalloc.start()
        try:
            st = build_similarity(big, np.arange(1000), 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * st.matrix.nbytes, peak / st.matrix.nbytes

    def test_asymmetry_is_checked_in_every_row_block(self):
        m = np.eye(700)
        for i, j in ((0, 699), (699, 0), (350, 351), (698, 699)):
            bad = m.copy()
            bad[i, j] = 2e-12
            with pytest.raises(InputError, match="symmetric"):
                SimilarityState(bad, np.arange(700))
            bad[i, j] = 1e-12
            assert SimilarityState(bad, np.arange(700)).size == 700

    def test_chunked_distances_match_one_block(self, store):
        """``_sq_dist`` of gathered pairs on either side of its block edges keeps the one-block bits."""
        d = 40
        block = _BLOCK_ELEMENTS // d
        rng = np.random.default_rng(13)
        a = rng.normal(size=(300, d))
        b = rng.normal(size=(200, d))
        diff = a[:, None, :] - b[None, :, :]
        ref = np.einsum("ijk,ijk->ij", diff, diff)
        for pairs in (1, block - 1, block, block + 1, 2 * block + 7):
            rows, cols = rng.integers(300, size=pairs), rng.integers(200, size=pairs)
            assert _sq_dist(a, b, rows, cols).tobytes() == ref[rows, cols].tobytes()
            assert _sq_dist(a[rows], b, cols=cols).tobytes() == ref[rows, cols].tobytes()
            # one centre: gathered rows, a contiguous array, and a strided view
            # like k-means' rows beside their column of ones
            assert _sq_dist(a, b[5], rows=rows).tobytes() == ref[rows, 5].tobytes()
            assert _sq_dist(a[rows], b[5]).tobytes() == ref[rows, 5].tobytes()
            padded = np.ones((pairs, d + 1))
            padded[:, :d] = a[rows]
            assert _sq_dist(padded[:, :d], b[5]).tobytes() == ref[rows, 5].tobytes()
        assert _sq_dist(a, b[5]).tobytes() == ref[:, 5].tobytes()

    def test_grid_distances_match_one_block(self):
        """``_sq_dist``'s grid of every row against every row of ``c`` keeps the one-block bits at its block edges."""
        d = 40
        rng = np.random.default_rng(19)
        a = rng.normal(size=(60, d))
        b = rng.normal(size=(200, d))
        wide = rng.normal(size=(4000, d))  # one row's pairs pass _BLOCK_ELEMENTS
        for left, right in ((a, b), (a[:3], wide)):
            diff = left[:, None, :] - right[None, :, :]
            ref = np.einsum("ijk,ijk->ij", diff, diff)
            step = max(1, _BLOCK_ELEMENTS // (right.shape[0] * d))
            for n in {1, step - 1, step, step + 1, 2 * step + 3, left.shape[0]} - {0}:
                n = min(n, left.shape[0])
                assert _sq_dist(left[:n], right).tobytes() == ref[:n].tobytes()
                rows = rng.permutation(left.shape[0])[:n]
                assert _sq_dist(left, right, rows=rows).tobytes() == ref[rows].tobytes()

    def test_kernel_block_holds_no_pair_index_arrays(self):
        """The kernel grid takes its matrix and about one block beside it, not 24 bytes an entry more."""
        import tracemalloc

        x = np.random.default_rng(21).normal(size=(1000, 64))
        tracemalloc.start()
        try:
            block = _kernel_block(x, x, 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (1000, 1000)
        assert peak < block.nbytes + 3 * _BLOCK_ELEMENTS * 8

    def test_one_centre_distances_stay_within_a_few_blocks(self):
        """One-centre calls go in blocks too: no temporary of the whole n x d difference."""
        import tracemalloc

        rng = np.random.default_rng(17)
        x = rng.normal(size=(40_000, 64))
        rows = np.arange(x.shape[0])
        for call in (lambda: _sq_dist(x, x[3], rows=rows), lambda: _sq_dist(x, x[3])):
            tracemalloc.start()
            try:
                out = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < out.nbytes + 4 * _BLOCK_ELEMENTS * 8


class TestVonNeumannEntropy:
    def test_identity_attains_log_n(self):
        st = SimilarityState(matrix=np.eye(4), member_rows=np.arange(4))
        assert von_neumann_entropy(st) == pytest.approx(math.log(4), abs=1e-9)

    def test_all_ones_is_zero(self):
        st = SimilarityState(matrix=np.ones((3, 3)), member_rows=np.arange(3))
        assert von_neumann_entropy(st) == pytest.approx(0.0, abs=1e-9)

    def test_single_row_is_positive_zero(self, store):
        e = von_neumann_entropy(build_similarity(store, [7], 0.5))
        assert e == 0.0
        assert math.copysign(1.0, e) == 1.0

    def test_2x2_closed_form(self):
        st = SimilarityState(matrix=np.array([[1.0, 0.5], [0.5, 1.0]]), member_rows=np.arange(2))
        # eigvals {1.5, 0.5} -> rho {0.75, 0.25}
        want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        got = von_neumann_entropy(st)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.5623351, abs=1e-7)
        assert got == pytest.approx(entropy_2x2(0.5), abs=1e-12)

    def test_2x2_oracle_sweep(self):
        for s in np.linspace(0.0, 1.0, 21):
            st = SimilarityState(matrix=np.array([[1.0, s], [s, 1.0]]), member_rows=np.arange(2))
            assert von_neumann_entropy(st) == pytest.approx(entropy_2x2(s), abs=1e-12)

    def test_bounds_on_random_states(self, store):
        rng = np.random.default_rng(17)
        for _ in range(300):
            t = int(rng.integers(1, 33))
            rows = rng.choice(store.count, size=t, replace=False)
            st = build_similarity(store, rows, float(rng.uniform(0.1, 3.0)))
            e = von_neumann_entropy(st)
            assert 0.0 <= e <= math.log(t) + 1e-9

    def test_normalized_eigenvalues_sum_to_one(self, store):
        rng = np.random.default_rng(19)
        for _ in range(50):
            rows = rng.choice(store.count, size=int(rng.integers(2, 20)), replace=False)
            st = build_similarity(store, rows, 0.5)
            lams = np.linalg.eigvalsh(st.matrix / np.trace(st.matrix))
            assert abs(lams.sum() - 1.0) <= 1e-9

    def test_permutation_invariance(self, store):
        rng = np.random.default_rng(23)
        rows = rng.choice(store.count, size=12, replace=False)
        base = von_neumann_entropy(build_similarity(store, rows, 0.5))
        for _ in range(5):
            perm = rng.permutation(rows)
            assert von_neumann_entropy(build_similarity(store, perm, 0.5)) == pytest.approx(base, abs=1e-9)

    def test_upper_bound_needs_identity(self, store):
        # any appreciable off-diagonal similarity pulls entropy below ln(t)
        rng = np.random.default_rng(29)
        for _ in range(20):
            t = int(rng.integers(2, 16))
            rows = rng.choice(store.count, size=t, replace=False)
            st = build_similarity(store, rows, 5.0)  # wide kernel: strong similarities
            if st.matrix[~np.eye(t, dtype=bool)].max() >= 0.1:
                assert von_neumann_entropy(st) < math.log(t) - 1e-9


class TestAugment:
    def test_base_case_equals_build(self, store):
        st1 = build_similarity(store, [10], 0.5)
        grown = augment(st1, store, 20, 0.5)
        scratch = build_similarity(store, [10, 20], 0.5)
        assert np.array_equal(grown.matrix, scratch.matrix)
        assert np.array_equal(grown.member_rows, scratch.member_rows)

    def test_chain_equals_build_up_to_64(self, store):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(2, 65))
            rows = rng.choice(store.count, size=k, replace=False)
            chain = build_similarity(store, rows[:1], 0.5)
            for r in rows[1:]:
                chain = augment(chain, store, int(r), 0.5)
            scratch = build_similarity(store, rows, 0.5)
            assert np.abs(chain.matrix - scratch.matrix).max() <= 1e-12
            e1, e2 = von_neumann_entropy(chain), von_neumann_entropy(scratch)
            assert abs(e1 - e2) <= 1e-9

    def test_duplicate_member_rejected(self, store):
        st = build_similarity(store, [1, 2], 0.5)
        with pytest.raises(InputError, match="already a member"):
            augment(st, store, 2, 0.5)

    def test_original_state_unmodified(self, store):
        st = build_similarity(store, [1, 2], 0.5)
        before = st.matrix.copy()
        augment(st, store, 3, 0.5)
        assert np.array_equal(st.matrix, before)
        assert st.size == 2


class TestEntropyGain:
    def test_near_identity_gain(self):
        # three mutually distant points: gain of the third is ln 3 - ln 2
        store, _ = gen_synthetic(3, 4, 3, 0.0, seed=5)  # blob means only, far apart
        st = build_similarity(store, [0, 1], 0.5)
        gain = entropy_gain(st, store, 2, 0.5)
        assert gain == pytest.approx(math.log(3) - math.log(2), abs=1e-6)

    def test_duplicate_candidate_loses(self):
        # 3 coincident points and 2 distant ones; adding a duplicate of a
        # member must gain strictly less than any non-coincident candidate
        rng = np.random.default_rng(41)
        base = np.vstack([np.zeros((3, 3)), rng.normal(size=(2, 3)) + 5.0])
        from egms import EmbeddingStore

        store = EmbeddingStore(base)
        st = build_similarity(store, [0, 3], 0.5)
        dup_gain = entropy_gain(st, store, 1, 0.5)  # row 1 coincides with member row 0
        fresh_gain = entropy_gain(st, store, 4, 0.5)  # distinct point, all similarities < 1
        assert dup_gain < fresh_gain

    def test_definitional_consistency(self, store):
        rng = np.random.default_rng(43)
        for _ in range(25):
            rows = rng.choice(store.count, size=int(rng.integers(2, 12)), replace=False)
            st = build_similarity(store, rows, 0.5)
            cand = int(rng.choice(np.setdiff1d(np.arange(store.count), rows)))
            gain = entropy_gain(st, store, cand, 0.5)
            scratch = von_neumann_entropy(build_similarity(store, np.append(rows, cand), 0.5))
            assert abs(gain - (scratch - von_neumann_entropy(st))) <= 1e-9


def _kern(state, store, cands, sigma):
    """(m, t) kernel rows of the candidates against the members."""
    return _kernel_block(store.data[cands], store.data[state.member_rows], sigma)


def _augmented_entropies(state, store, cands, sigma):
    """Each candidate's entropy from its own augmented state, one eigensolve per candidate."""
    return np.array([von_neumann_entropy(augment(state, store, int(c), sigma)) for c in cands])


def _full_argmax(state, store, cands, sigma, base_entropy):
    """Reference greedy step: every candidate solved, largest gain, ties to the lowest row."""
    entropies = _augmented_entropies(state, store, cands, sigma)
    gains = entropies - base_entropy
    tied = np.flatnonzero(gains == gains.max())
    pos = tied[np.argmin(cands[tied])]
    return int(cands[pos]), float(entropies[pos])


def _bits(x):
    return np.float64(x).tobytes()


def _best_rows(steps):
    """``_best_bordered`` over a batch of steps ``(state, store, cands, sigma, base)`` of one t, mapped back to store rows."""
    mats = np.stack([state.matrix for state, *_ in steps])
    kern = np.concatenate([_kern(state, store, cands, sigma) for state, store, cands, sigma, _ in steps])
    owner = np.repeat(np.arange(len(steps)), [len(cands) for _, _, cands, _, _ in steps])
    keys = np.concatenate([cands for _, _, cands, _, _ in steps])
    pos, entropies = _best_bordered(mats, kern, owner, keys, np.array([base for *_, base in steps]))
    assert (owner[pos] == np.arange(len(steps))).all()
    return [(int(keys[p]), e) for p, e in zip(pos, entropies)]


@st.composite
def _greedy_steps(draw, t=None):
    """One greedy step: a store, members, candidates in random order, sigma and a base entropy.

    Rows are blobs, exact duplicates, near-duplicates (1e-9 apart), one
    constant row, or near-identity rows, shifted by ±2^k. Near-identity
    rows are distinct, with sigma set so that the largest kernel entry is
    e^-c: tiny sigma for close rows or far-apart rows for a moderate one,
    on both sides of the guard that solves every candidate at once. Base
    entropies include the state's own, values near it, and large ones that
    make different entropies give equal gains by rounding. ``t`` fixes the
    state size; above 60 it leaves room for up to 30 candidates.
    """
    kind = draw(st.sampled_from(["blobs", "duplicates", "near_duplicates", "constant", "near_identity"]))
    n = draw(st.integers(2 if t is None else t + 1, 90 if t is None else max(90, t + 30)))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = draw(st.one_of(st.sampled_from([1e-150, 1e-3, 1e3, 1e150]), st.floats(0.02, 8.0)))
    if kind == "constant":
        data = np.full((n, d), rng.normal())
    elif kind == "near_identity":
        data = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-6, 1.0, 1e3]))
        diff = data[:, None, :] - data[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)[~np.eye(n, dtype=bool)]
        sigma = float(np.sqrt(d2.min() / (2.0 * draw(st.floats(4.0, 60.0)))))
    else:
        centres = rng.normal(size=(draw(st.integers(1, 5)), d)) * draw(st.sampled_from([0.1, 1.0, 3.0]))
        data = centres[rng.integers(len(centres), size=n)]
        if kind == "blobs":
            data = data + draw(st.sampled_from([0.01, 0.1, 0.5])) * rng.normal(size=(n, d))
        elif kind == "near_duplicates":
            data = data + 1e-9 * rng.normal(size=(n, d))
    data = data + draw(st.sampled_from([-1.0, 0.0, 1.0])) * 2.0 ** draw(st.integers(0, 30))
    if t is None:
        t = draw(st.integers(1, min(40, n - 1)))
    m = draw(st.integers(1, n - t))
    perm = rng.permutation(n)
    store = EmbeddingStore(data)
    state = build_similarity(store, perm[:t], sigma)
    own = von_neumann_entropy(state)
    base = draw(
        st.one_of(
            st.just(own),
            st.floats(-1e-9, 1e-9).map(lambda e: own + e),
            st.floats(-10.0, 10.0),
            st.integers(8, 40).map(lambda k: own + 2.0**k),
        )
    )
    return state, store, perm[t : t + m], sigma, base


@st.composite
def _greedy_step_batches(draw, low=1, high=40):
    """One to four greedy steps of one state size in [low, high]: near-identity and bounded states share a batch."""
    t = draw(st.integers(low, high))
    return [draw(_greedy_steps(t)) for _ in range(draw(st.integers(1, 4)))]


class TestBestEntropyGain:
    @settings(max_examples=300, deadline=None)
    @given(_greedy_step_batches())
    def test_equals_the_full_argmax_bit_for_bit(self, steps):
        for (row, entropy), (state, store, cands, sigma, base) in zip(_best_rows(steps), steps):
            want_row, want_entropy = _full_argmax(state, store, cands, sigma, base)
            assert row == want_row
            assert _bits(entropy) == _bits(want_entropy)

    def test_ties_by_rounding_go_to_the_lowest_row(self, store):
        # at base 2^30 a gain's last bit is 2^-22, so candidates whose
        # entropies differ in lower bits tie on gain
        rng = np.random.default_rng(53)
        seen_rounding_tie = False
        for _ in range(20):
            rows = rng.choice(store.count, size=int(rng.integers(2, 30)), replace=False)
            state = build_similarity(store, rows, 0.5)
            cands = rng.permutation(np.setdiff1d(np.arange(store.count), rows))[:100]
            base = von_neumann_entropy(state) + 2.0**30
            entropies = _augmented_entropies(state, store, cands, 0.5)
            gains = entropies - base
            tied = gains == gains.max()
            seen_rounding_tie |= np.unique(entropies[tied]).size > 1
            [(row, entropy)] = _best_rows([(state, store, cands, 0.5, base)])
            want_row, want_entropy = _full_argmax(state, store, cands, 0.5, base)
            assert row == want_row
            assert _bits(entropy) == _bits(want_entropy)
        assert seen_rounding_tie

    @settings(max_examples=200, deadline=None)
    @given(_greedy_step_batches())
    def test_bounds_are_sound(self, steps):
        self._check_bounds(steps)

    @settings(max_examples=30, deadline=None)
    @given(_greedy_step_batches(65, 100))
    def test_bounds_of_every_tier_are_sound_past_the_largest(self, steps):
        self._check_bounds(steps)

    @staticmethod
    def _check_bounds(steps):
        """Every g-pole bound, g = 1..4 and each tier of ``_BOUND_POLES`` below t, is at least the exact entropy less the margin."""
        t = steps[0][0].size
        n = t + 1
        kern = [_kern(state, store, cands, sigma) for state, store, cands, sigma, _ in steps]
        exact = np.concatenate(
            [_bordered_entropies(state.matrix[None], k, np.zeros(len(k), dtype=np.int64)) for (state, *_), k in zip(steps, kern)]
        )
        lam, q = np.linalg.eigh(np.stack([state.matrix for state, *_ in steps]))
        z = np.concatenate([k @ q[j] for j, k in enumerate(kern)])
        state_of = np.repeat(np.arange(len(steps)), [len(k) for k in kern])
        total = 0.0 - _xlogx(lam / n).sum(axis=1)
        margin = _MARGIN_PER_EIGENVALUE * n
        for g in sorted({g for g in range(1, 5) if g <= t} | {g for g in _BOUND_POLES if g < t}):
            assert (_pole_bounds(lam, total, z, state_of, g) >= exact - margin).all()

    def test_corrupted_state_is_an_internal_error(self, store):
        state = build_similarity(store, [0, 1, 2], 0.5)
        bad = state.matrix.copy()
        bad[0, 1] = bad[1, 0] = np.nan
        cands = np.arange(10, 20)
        kern = _kern(state, store, cands, 0.5)
        base = np.array([von_neumann_entropy(state)] * 2)
        for k in (kern, np.zeros_like(kern)):  # bounded step, then near-identity step
            with pytest.raises(InternalInvariantError):
                _best_bordered(bad[None], k, np.zeros(len(cands), dtype=np.int64), cands, base[:1])
            # beside a sound state in one batch
            with pytest.raises(InternalInvariantError):
                _best_bordered(
                    np.stack([state.matrix, bad]), np.concatenate([kern, k]), np.repeat([0, 1], len(cands)),
                    np.concatenate([cands, cands]), base,
                )


def test_a_stack_entry_has_the_same_bits_in_any_subset(store):
    """The premise of solving only some candidates: eigvalsh bits do not depend on the batch."""
    rng = np.random.default_rng(59)
    for _ in range(30):
        t = int(rng.integers(1, 60))
        rows = rng.choice(store.count, size=t, replace=False)
        sigma = float(rng.uniform(0.1, 3.0))
        state = build_similarity(store, rows, sigma)
        kern = _kern(state, store, np.setdiff1d(np.arange(store.count), rows)[:100], sigma)
        stack = np.empty((kern.shape[0], t + 1, t + 1))
        stack[:, :t, :t] = state.matrix
        stack[:, t, :t] = kern
        stack[:, :t, t] = kern
        stack[:, t, t] = 1.0
        stack /= float(t + 1)
        whole = _density_entropies(stack)
        for size in (1, 2, int(rng.integers(3, kern.shape[0] + 1))):
            idx = rng.choice(kern.shape[0], size=min(size, kern.shape[0]), replace=False)
            assert _density_entropies(stack[idx]).tobytes() == whole[idx].tobytes()
        assert _bordered_entropies(state.matrix[None], kern, np.zeros(len(kern), dtype=np.int64)).tobytes() == whole.tobytes()


def test_interleaved_owners_match_one_state_calls(store):
    """A stack whose owners alternate gathers each candidate's own state, with the bits of one-state calls."""
    rng = np.random.default_rng(61)
    t, sigma = 7, 0.8
    states = [build_similarity(store, rng.choice(store.count, size=t, replace=False), sigma) for _ in range(3)]
    owner = np.array([0, 1, 0, 2, 1])
    cands = rng.choice(store.count, size=owner.size, replace=False)
    kern = np.stack([_kern(states[o], store, [c], sigma)[0] for o, c in zip(owner, cands)])
    got = _bordered_entropies(np.stack([s.matrix for s in states]), kern, owner)
    for i, o in enumerate(owner):
        alone = _bordered_entropies(states[o].matrix[None], kern[i : i + 1], np.zeros(1, dtype=np.int64))
        assert got[i : i + 1].tobytes() == alone.tobytes()


@pytest.mark.parametrize("order", [115, 200, 499])
def test_exact_solve_stacks_are_large_enough_to_release_the_gil(order, monkeypatch):
    """Stacks of k bordered matrices of order t + 1 have k (t + 1) > 500, with the bits of one-at-a-time solves."""
    t, sigma = order - 1, 2.0
    store, _ = gen_synthetic(order + 30, 8, 4, 1.0, seed=order)
    state = build_similarity(store, np.arange(t), sigma)
    kern = _kern(state, store, np.arange(t, t + 30), sigma)
    owner = np.zeros(30, dtype=np.int64)
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        stacks.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = _bordered_entropies(state.matrix[None], kern, owner)
    assert stacks and all(len(shape) == 3 and shape[0] * shape[1] > 500 for shape in stacks), stacks
    for i in range(30):
        assert got[i : i + 1].tobytes() == _bordered_entropies(state.matrix[None], kern[i : i + 1], owner[:1]).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 5),
    st.integers(1, 5),
    st.floats(0.3, 3.0),
    st.sampled_from([0.0, 1.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
def test_a_kernel_entry_has_the_same_bits_on_every_path(d, na, nb, width, offset, seed):
    """Each pair's entry from a block, the transposed block, a 1x1 call and ``_paired_kernel``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(na, d)) + offset
    b = rng.normal(size=(nb, d)) + offset
    sigma = width * math.sqrt(d)  # entries well above underflow, so their bits are tested
    block = _kernel_block(a, b, sigma)
    assert block.shape == (na, nb) and block.min() > 0.0
    diff = a[:, None, :] - b[None, :, :]
    assert block.tobytes() == np.exp(np.einsum("ijk,ijk->ij", diff, diff) / (-2.0 * sigma * sigma)).tobytes()
    assert block.tobytes() == np.ascontiguousarray(_kernel_block(b, a, sigma).T).tobytes()
    single = [[_kernel_block(a[i : i + 1], b[j : j + 1], sigma)[0, 0] for j in range(nb)] for i in range(na)]
    assert block.tobytes() == np.array(single).tobytes()
    data = np.vstack([a, b])
    rows, cols = np.divmod(np.arange(na * nb), nb)
    assert block.ravel().tobytes() == _paired_kernel(data, data, rows, na + cols, sigma).tobytes()
    assert block.ravel().tobytes() == _paired_kernel(data, data, na + cols, rows, sigma).tobytes()


def test_xlogx_keeps_the_bits_of_the_guarded_form():
    """Dropping the outer ``where``: after the clamp a zero gives 0 * ln 1 = +0.0."""

    def guarded(lam):
        lam = np.where(lam < _EIG_CLAMP, 0.0, np.minimum(lam, 1.0))
        return np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)

    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array(
        [0.0, -0.0, _EIG_CLAMP, np.nextafter(_EIG_CLAMP, 0.0), np.nextafter(_EIG_CLAMP, 1.0),
         1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), tiny, -tiny, 1e-310, -1e-310, -1e-9]
    )
    rng = np.random.default_rng(61)
    lam = np.concatenate(
        [edges, rng.uniform(-1e-9, 1.5, 5 * 10**5), 10.0 ** rng.uniform(-320.0, 0.5, 5 * 10**5)]
    )
    assert _xlogx(lam).tobytes() == guarded(lam).tobytes()

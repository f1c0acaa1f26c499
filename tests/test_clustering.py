"""K-means partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egms import (
    EmbeddingStore,
    InputError,
    gen_synthetic,
    kmeans,
)
from egms.clustering import _BLOCK_ELEMENTS, _assign_chunked, _kmeanspp


class TestKmeans:
    def test_single_cluster_is_the_mean(self):
        store, _ = gen_synthetic(40, 3, 2, 0.5, seed=1)
        a = kmeans(store, np.arange(40), 1, seed=0)
        assert np.all(a.labels == 0)
        assert np.allclose(a.centroids[0], store.data.mean(axis=0), atol=1e-9)

    def test_two_blobs_recovered(self):
        store, _, truth = gen_synthetic(300, 5, 2, 0.5, seed=8, return_labels=True)
        a = kmeans(store, np.arange(300), 2, seed=4)
        same_truth = truth[:, None] == truth[None, :]
        same_found = a.labels[:, None] == a.labels[None, :]
        iu = np.triu_indices(300, k=1)
        assert (same_truth[iu] == same_found[iu]).mean() >= 0.95

    def test_one_cluster_per_point(self):
        store, _ = gen_synthetic(12, 4, 3, 0.7, seed=2)
        a = kmeans(store, np.arange(12), 12, seed=3)
        assert sorted(m.size for m in a.members) == [1] * 12
        assert a.inertia == pytest.approx(0.0, abs=1e-18)

    def test_duplicate_points_still_fill_all_clusters(self):
        store = EmbeddingStore(np.zeros((5, 2)))
        a = kmeans(store, np.arange(5), 5, seed=0)
        assert all(m.size == 1 for m in a.members)
        assert a.inertia == 0.0

    def test_deterministic_given_seed(self):
        store, _ = gen_synthetic(200, 6, 4, 0.8, seed=10)
        a = kmeans(store, np.arange(200), 8, seed=77)
        b = kmeans(store, np.arange(200), 8, seed=77)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)

    def test_inertia_history_non_increasing(self):
        store, _ = gen_synthetic(500, 4, 3, 1.5, seed=6)
        a = kmeans(store, np.arange(500), 6, seed=1)
        hist = a.inertia_history
        assert hist.size >= 1
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, hist[:-1]))

    def test_centroids_are_member_means(self):
        store, _ = gen_synthetic(400, 5, 4, 1.0, seed=12)
        kept = np.arange(0, 400, 2)
        a = kmeans(store, kept, 7, seed=5)
        for c in range(7):
            mean = store.data[a.members[c]].mean(axis=0)
            assert np.abs(a.centroids[c] - mean).max() <= 1e-9

    def test_members_partition_kept(self):
        store, _ = gen_synthetic(150, 3, 2, 0.9, seed=14)
        kept = np.arange(10, 140)
        a = kmeans(store, kept, 5, seed=9)
        merged = np.sort(np.concatenate(a.members))
        assert np.array_equal(merged, np.sort(kept))
        assert all(m.size > 0 for m in a.members)

    def test_kept_subset_respected(self):
        store, _ = gen_synthetic(60, 3, 2, 0.5, seed=15)
        kept = np.array([4, 9, 13, 21, 22, 30, 31, 40, 55])
        a = kmeans(store, kept, 3, seed=2)
        for m in a.members:
            assert np.isin(m, kept).all()

    def test_errors(self):
        store, _ = gen_synthetic(10, 2, 1, 0.5, seed=0)
        with pytest.raises(InputError):
            kmeans(store, np.arange(10), 11, seed=0)  # L > |kept|
        with pytest.raises(InputError):
            kmeans(store, np.array([], dtype=int), 1, seed=0)
        with pytest.raises(InputError):
            kmeans(store, np.array([0, 0, 1]), 2, seed=0)

    def test_far_from_origin_is_valid_input(self):
        # the expanded distance |x|^2 - 2x.c + |c|^2 cancels this far out
        # unless kmeans translates the data; it must not end in exit code 2
        store, _ = gen_synthetic(3000, 16, 5, 0.01, seed=0)
        shifted = EmbeddingStore(store.data + 1e5)
        for L in (5, 20, 100):
            a = kmeans(shifted, np.arange(3000), L, seed=0)
            assert all(m.size > 0 for m in a.members)

    def test_centroid_dump_store(self):
        store, _ = gen_synthetic(50, 4, 2, 0.5, seed=3)
        a = kmeans(store, np.arange(50), 4, seed=1)
        dump = EmbeddingStore(a.centroids)
        assert dump.count == 4 and dump.dim == 4


def _kmeanspp_full_pass(x, L, rng):
    """k-means++ that recomputes every row's distance to every new centre."""
    n = x.shape[0]
    centroids = np.empty((L, x.shape[1]), dtype=np.float64)
    centroids[0] = x[int(rng.integers(n))]
    diff = x - centroids[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, L):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
        centroids[j] = x[idx]
        diff = x - centroids[j]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return centroids


@st.composite
def _seeding_inputs(draw):
    """Off-grid float64 rows (spread, blobs, near-midpoints, duplicates or one constant), L in [1, n].

    Near-midpoint rows sit within 1e-6 relative of halfway between two
    ends. Once both ends are seeds, the pruning bound for these rows holds
    with almost no room to spare.
    """
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["spread", "blobs", "midpoints", "duplicates", "constant"]))
    if kind == "midpoints":
        ends = gen.normal(size=(2, d))
        # most rows on the ends, so that the first two seeds are likely the ends
        t = 0.5 + gen.choice([-1.0, 1.0], size=n) * 10.0 ** gen.uniform(-12, -6, size=n)
        t[: (3 * n) // 4] = gen.integers(2, size=(3 * n) // 4)
        x = (ends[0] + t[:, None] * (ends[1] - ends[0])) * scale
    elif kind == "spread":
        x = gen.normal(size=(n, d)) * scale
    elif kind == "blobs":
        centres = gen.normal(size=(draw(st.integers(1, 8)), d)) * 20.0
        x = (centres[gen.integers(centres.shape[0], size=n)] + gen.normal(size=(n, d))) * scale
    elif kind == "duplicates":
        base = gen.normal(size=(draw(st.integers(1, max(1, n // 2))), d)) * scale
        x = base[gen.integers(base.shape[0], size=n)]
    else:
        x = np.full((n, d), gen.normal() * scale)
    L = draw(st.integers(1, n))
    return x, L, draw(st.integers(0, 2**32 - 1)), 2.0 ** draw(st.integers(0, 30))


class _RecordingRng:
    """Generator that keeps the probabilities of every weighted draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.weights = []

    def integers(self, n):
        return self.rng.integers(n)

    def choice(self, n, p):
        self.weights.append(p.tobytes())
        return self.rng.choice(n, p=p)


class TestKmeansppPruning:
    @settings(max_examples=80, deadline=None)
    @given(_seeding_inputs())
    def test_pruned_seeding_equals_a_full_pass_bit_for_bit(self, inputs):
        x, L, seed, shift = inputs
        for data in (x, x + shift):
            ref_rng, rng = _RecordingRng(seed), _RecordingRng(seed)
            expected = _kmeanspp_full_pass(data, L, ref_rng)
            got = _kmeanspp(data, L, rng)
            assert got.tobytes() == expected.tobytes()
            # every round's d2 / total, so every d2, keeps its bits
            assert rng.weights == ref_rng.weights
            assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state


class TestAssignChunked:
    @pytest.mark.parametrize("L", [3, 4096])
    @pytest.mark.parametrize("which", ["one", "below", "block", "above"])
    def test_matches_explicit_difference_argmin(self, L, which):
        block = _BLOCK_ELEMENTS // L
        n = {"one": 1, "below": block // 2, "block": block, "above": block + 1}[which]
        gen = np.random.default_rng(L + n)
        x = gen.normal(size=(n, 4))
        centroids = gen.normal(size=(L, 4))
        diff = x[:, None, :] - centroids[None, :, :]
        ref = np.einsum("ijk,ijk->ij", diff, diff)
        top2 = np.partition(ref, 1, axis=1)[:, :2]
        assert np.all(top2[:, 1] - top2[:, 0] > 1e-9)

        labels, d2 = _assign_chunked(x, centroids)
        assert np.array_equal(labels, ref.argmin(axis=1))
        assert np.all(d2 >= 0)
        assert np.allclose(d2, ref.min(axis=1), rtol=0, atol=1e-10)
        cached_labels, cached_d2 = _assign_chunked(x, centroids, np.einsum("ij,ij->i", x, x))
        assert np.array_equal(cached_labels, labels)
        assert cached_d2.tobytes() == d2.tobytes()

    @pytest.mark.parametrize("L", [3, 500])
    @pytest.mark.parametrize("which", ["one", "below", "block", "above"])
    def test_keeps_the_bits_of_the_expanded_expression(self, L, which):
        """The GEMM against -2c and an addition give the bits of ``xn - 2 x.c + |c|^2`` in the same blocks."""

        def expanded(x, centroids):
            n = x.shape[0]
            xn = np.einsum("ij,ij->i", x, x)
            c_norms = np.einsum("ij,ij->i", centroids, centroids)
            labels, d2min = np.empty(n, dtype=np.int64), np.empty(n)
            block = max(1, _BLOCK_ELEMENTS // L)
            buf = np.empty((min(block, n), L))
            for start in range(0, n, block):
                stop = min(start + block, n)
                d2 = buf[: stop - start]
                np.matmul(x[start:stop], centroids.T, out=d2)
                d2 *= 2.0
                np.subtract(xn[start:stop, None], d2, out=d2)
                d2 += c_norms
                lab = np.argmin(d2, axis=1, out=labels[start:stop])
                d2min[start:stop] = d2[np.arange(stop - start), lab]
            return labels, np.maximum(d2min, 0.0)

        block = _BLOCK_ELEMENTS // L
        n = {"one": 1, "below": block - 1, "block": block, "above": block + 1}[which]
        gen = np.random.default_rng(L * 7 + n)
        centres = gen.normal(size=(20, 64))
        x = centres[gen.integers(20, size=n)] + 0.05 * gen.normal(size=(n, 64)) + 3.0
        centroids = x[gen.choice(n, size=min(L, n), replace=False)] if n >= L else gen.normal(size=(L, 64))
        want_labels, want_d2 = expanded(x, centroids)
        labels, d2 = _assign_chunked(x, centroids)
        assert np.array_equal(labels, want_labels)
        assert d2.tobytes() == want_d2.tobytes()

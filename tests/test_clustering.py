"""K-means partitioning."""

import numpy as np
import pytest

from egms import (
    EmbeddingStore,
    InputError,
    centroids_to_store,
    gen_synthetic,
    kmeans,
)


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
        dump = centroids_to_store(a)
        assert dump.count == 4 and dump.dim == 4

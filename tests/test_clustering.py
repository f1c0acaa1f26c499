"""K-means partitioning."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

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
from egms import clustering
from egms.clustering import (
    _BLOCK_ELEMENTS,
    _assign_chunked,
    _components,
    _kmeanspp,
    _means_by_label,
    _repair_empty,
    _rerank,
    _sq_dist,
)


class TestKmeans:
    def test_single_cluster_is_the_mean(self):
        store, _ = gen_synthetic(40, 3, 2, 0.5, seed=1)
        a = kmeans(store, np.arange(40), 1, seed=0)
        assert np.all(a.labels == 0)
        assert np.allclose(a.centroids[0], store.data.mean(axis=0), atol=1e-9)

    def test_two_blobs_recovered(self):
        store, _ = gen_synthetic(300, 5, 2, 0.5, seed=8)
        truth = np.rint(np.linalg.norm(store.data, axis=1) / 20.0) - 1  # blob j's shell has radius 20 (j + 1)
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


def _assign(x, centroids, comp, moved, labels, d2, kept=None, origin=None):
    """``_assign_chunked`` of the rows ``x[kept] - origin`` (all of ``x``, untranslated, by default); returns (labels, d2, changed)."""
    kept = np.arange(x.shape[0]) if kept is None else kept
    origin = np.zeros(x.shape[1]) if origin is None else origin
    rows = x[kept] - origin
    xnorm = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    labels, d2 = np.array(labels, dtype=np.int64), np.array(d2, dtype=np.float64)
    comp, moved = np.asarray(comp, dtype=np.int64), np.asarray(moved)
    changed = _assign_chunked(x, kept, origin, centroids, xnorm, comp, moved, labels, d2)
    return labels, d2, changed


def _assign_all(x, centroids, kept=None, origin=None):
    """``_assign_chunked`` of the rows against every centroid, all moved and in one component."""
    L, n = len(centroids), len(x) if kept is None else len(kept)
    labels, d2, _ = _assign(x, centroids, np.zeros(L), np.ones(L, dtype=bool), np.zeros(n), np.zeros(n), kept, origin)
    return labels, d2


def _explicit(x, centroids):
    """Every (row, centroid) squared distance as the explicit sum of squared differences."""
    out = np.empty((x.shape[0], centroids.shape[0]))
    for j, c in enumerate(centroids):
        diff = x - c
        out[:, j] = np.einsum("ij,ij->i", diff, diff)
    return out


def _assert_explicit_argmin(x, centroids, labels, d2):
    """``labels`` is the lowest-index argmin of the explicit distances and ``d2`` the winner's bits."""
    ref = _explicit(x, centroids)
    assert np.array_equal(labels, ref.argmin(axis=1))  # argmin returns the first of equal minima
    assert d2.tobytes() == ref[np.arange(x.shape[0]), labels].tobytes()


@st.composite
def _seeding_inputs(draw):
    """Float64 rows (spread, blobs, far blobs, near-midpoints, duplicates, a grid or one constant), L in [1, n].

    Near-midpoint rows sit within 1e-6 relative of halfway between two
    ends. Once both ends are seeds, the pruning bound for these rows holds
    with almost no room to spare. Far blobs are tight blobs 2^k times
    their spread apart, where the expanded form |x|^2 - 2x.c + |c|^2
    cancels.
    """
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["spread", "blobs", "far_blobs", "midpoints", "duplicates", "grid", "constant"]))
    if kind == "far_blobs":
        centres = gen.normal(size=(draw(st.integers(2, 4)), d)) * 2.0 ** draw(st.integers(0, 30))
        x = (centres[gen.integers(centres.shape[0], size=n)] + gen.normal(size=(n, d))) * scale
    elif kind == "midpoints":
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
    elif kind == "grid":
        x = np.round(gen.normal(size=(n, d)) * 4.0) * scale  # exact ties between rows and centroids
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
        # the rows as they are, and shifted rows in a shuffled order read
        # through the store rows and translated by the first of them
        kept = np.random.default_rng(seed).permutation(x.shape[0])
        x2 = x + shift
        for data, rows, origin in ((x, np.arange(x.shape[0]), np.zeros(x.shape[1])), (x2, kept, x2[kept[0]])):
            translated = data[rows] - origin
            ref_rng, rng = _RecordingRng(seed), _RecordingRng(seed)
            expected = _kmeanspp_full_pass(translated, L, ref_rng)
            got, near, d2 = _kmeanspp(data, rows, origin, L, rng)
            assert got.tobytes() == expected.tobytes()
            # every round's d2 / total, so every d2, keeps its bits
            assert rng.weights == ref_rng.weights
            assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
            # the seeding's nearest seeds are the first Lloyd step's labels
            _assert_explicit_argmin(translated, got, near, d2)

    def test_equidistant_rows_take_the_lower_seed(self):
        # the middle row sits exactly between seeds at -1 and +1; a round
        # that ties must keep the earlier seed as ``near``
        x = np.array([[0.0], [-1.0], [1.0], [-1.0], [1.0]])
        ties = 0
        for seed in range(40):
            centroids, near, d2 = _kmeanspp(x, np.arange(5), np.zeros(1), 2, np.random.default_rng(seed))
            ties += bool(np.abs(centroids[:, 0]).tolist() == [1.0, 1.0])
            _assert_explicit_argmin(x, centroids, near, d2)
        assert ties > 0


class _Recorder:
    """Wraps ``_assign_chunked`` and keeps the rows, centroids and results of every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, data, kept, origin, centroids, xnorm, comp, moved, labels, d2):
        changed = _assign_chunked(data, kept, origin, centroids, xnorm, comp, moved, labels, d2)
        self.calls.append((data[kept] - origin, centroids.copy(), labels.copy(), d2.copy()))
        return changed


def _one_component(centroids, radius):
    return np.zeros(centroids.shape[0], dtype=np.int64)


def _kmeans_recorded(store, L, seed, single_component=False):
    """``kmeans`` with every assignment recorded, optionally with pruning switched off."""
    recorder = _Recorder()
    components = _one_component if single_component else _components
    with mock.patch.object(clustering, "_assign_chunked", recorder), mock.patch.object(clustering, "_components", components):
        result = kmeans(store, np.arange(store.count), L, seed)
    return result, recorder.calls


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

        labels, d2 = _assign_all(x, centroids)
        assert np.array_equal(labels, ref.argmin(axis=1))
        assert np.all(d2 >= 0)
        assert np.allclose(d2, ref.min(axis=1), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("L", [3, 500])
    @pytest.mark.parametrize("which", ["one", "below", "block", "above"])
    def test_keeps_the_explicit_bits_across_block_edges(self, L, which):
        """Rows on either side of a block edge get the explicit argmin and the winner's explicit bits."""
        d = 64
        block = _BLOCK_ELEMENTS // max(L, d)
        n = {"one": 1, "below": block - 1, "block": block, "above": block + 1}[which]
        gen = np.random.default_rng(L * 7 + n)
        centres = gen.normal(size=(20, d))
        x = centres[gen.integers(20, size=n)] + 0.05 * gen.normal(size=(n, d)) + 3.0
        centroids = x[gen.choice(n, size=min(L, n), replace=False)] if n >= L else gen.normal(size=(L, d))
        labels, d2 = _assign_all(x, centroids)
        _assert_explicit_argmin(x, centroids, labels, d2)

    @settings(max_examples=80, deadline=None)
    @given(_seeding_inputs(), st.integers(0, 2**32 - 1))
    def test_labels_are_the_lowest_index_explicit_argmin(self, inputs, draw_seed):
        """Against any centroids, duplicates (exact ties) included, and far from the origin."""
        x, L, _, shift = inputs
        gen = np.random.default_rng(draw_seed)
        centroids = x[gen.integers(x.shape[0], size=L)]
        nudge = gen.random(L) < 0.5
        centroids[nudge] += 1e-9 * gen.normal(size=(int(nudge.sum()), x.shape[1])) * np.abs(centroids[nudge]).max(initial=1.0)
        for dx, dc in ((x, centroids), (x + shift, centroids + shift)):
            labels, d2 = _assign_all(dx, dc)
            _assert_explicit_argmin(dx, dc, labels, d2)
        # shifted rows in a shuffled order, translated by the first of them
        kept = gen.permutation(x.shape[0])
        origin = x[kept[0]] + shift
        labels, d2 = _assign_all(x + shift, centroids, kept, origin)
        _assert_explicit_argmin(x[kept] + shift - origin, centroids, labels, d2)

    @settings(max_examples=60, deadline=None)
    @given(_seeding_inputs())
    def test_pruned_steps_equal_single_component_steps(self, inputs):
        """Every Lloyd step's labels are the explicit argmin over all centroids, pruned or not."""
        x, L, seed, shift = inputs
        for data in (x, x + shift):
            store = EmbeddingStore(data)
            pruned, pruned_calls = _kmeans_recorded(store, L, seed)
            single, single_calls = _kmeans_recorded(store, L, seed, single_component=True)
            assert len(pruned_calls) == len(single_calls)
            for (px, pc, plab, pd2), (_, sc, slab, sd2) in zip(pruned_calls, single_calls):
                assert pc.tobytes() == sc.tobytes()
                assert plab.tobytes() == slab.tobytes() and pd2.tobytes() == sd2.tobytes()
                _assert_explicit_argmin(px, pc, plab, pd2)
            assert pruned.labels.tobytes() == single.labels.tobytes()
            assert pruned.centroids.tobytes() == single.centroids.tobytes()
            assert pruned.inertia_history.tobytes() == single.inertia_history.tobytes()

    def test_pruned_runs_equal_single_component_runs_on_small_data(self):
        """Low-dimensional data where Lloyd steps move centroids by much of a cluster's radius."""
        for seed in range(200):
            gen = np.random.default_rng(seed)
            n, d = int(gen.integers(6, 60)), int(gen.integers(1, 3))
            L = int(gen.integers(2, min(n, 8)))
            if seed % 3 == 0:
                x = gen.normal(size=(n, d))
            elif seed % 3 == 1:
                centres = gen.normal(size=(int(gen.integers(2, 5)), d)) * 4.0
                x = centres[gen.integers(centres.shape[0], size=n)] + gen.normal(size=(n, d))
            else:
                x = np.round(gen.normal(size=(n, d)) * 4.0)  # grid points: exact ties
            store = EmbeddingStore(x)
            pruned, pruned_calls = _kmeans_recorded(store, L, seed)
            single, single_calls = _kmeans_recorded(store, L, seed, single_component=True)
            assert pruned.labels.tobytes() == single.labels.tobytes(), seed
            assert pruned.centroids.tobytes() == single.centroids.tobytes(), seed
            for px, pc, plab, pd2 in pruned_calls:
                _assert_explicit_argmin(px, pc, plab, pd2)

    def test_separated_blobs_split_into_components(self):
        store, _ = gen_synthetic(2000, 8, 6, 0.5, seed=3)
        counts = []

        def counted(centroids, radius):
            comp = _components(centroids, radius)
            counts.append(int(comp.max()) + 1)
            return comp

        with mock.patch.object(clustering, "_components", counted):
            pruned = kmeans(store, np.arange(2000), 30, seed=1)
        assert counts and min(counts) >= 6
        single, _ = _kmeans_recorded(store, 30, 1, single_component=True)
        assert pruned.labels.tobytes() == single.labels.tobytes()
        assert pruned.centroids.tobytes() == single.centroids.tobytes()

    def test_uncertified_rows_are_reranked(self):
        """Far-apart tight blobs: the shortlist cannot rank inside the far blob, explicit distances do."""
        gen = np.random.default_rng(0)
        centres = np.zeros((2, 8))
        centres[1, 0] = 3e4
        x = centres[np.repeat([0, 1], 500)] + 1e-3 * gen.normal(size=(1000, 8))
        centroids = x[gen.choice(1000, 10, replace=False)]
        reranked = []

        def spy(xs, cents, values, best, tol, tight, lab, dist):
            reranked.append(tight.size)
            return _rerank(xs, cents, values, best, tol, tight, lab, dist)

        with mock.patch.object(clustering, "_rerank", spy):
            labels, d2 = _assign_all(x, centroids)
        assert sum(reranked) > 0
        _assert_explicit_argmin(x, centroids, labels, d2)

    def test_block_shape_does_not_move_labels(self):
        # labels and distances come from explicit differences, so the GEMM's
        # rounding, which depends on the block shape, cannot reach them
        gen = np.random.default_rng(5)
        x = gen.normal(size=(3000, 16)) + 1e3
        centroids = x[gen.choice(3000, 200, replace=False)]
        labels, d2 = _assign_all(x, centroids)
        with mock.patch.object(clustering, "_BLOCK_ELEMENTS", 997):
            small_labels, small_d2 = _assign_all(x, centroids)
        assert labels.tobytes() == small_labels.tobytes() and d2.tobytes() == small_d2.tobytes()


def _reference_assign(x, centroids, comp, prev):
    """Each row's lowest-index explicit argmin over the whole component of its previous label."""
    dist = _explicit(x, centroids)
    dist[comp[prev][:, None] != comp[None, :]] = np.inf
    labels = dist.argmin(axis=1)
    return labels, dist[np.arange(x.shape[0]), labels]


def _reference_means(x, labels, L):
    """Every cluster's mean over all of its rows, summed in ascending row order."""
    sums = np.stack([np.bincount(labels, weights=x[:, j], minlength=L) for j in range(x.shape[1])], axis=1)
    return sums / np.bincount(labels, minlength=L)[:, None].astype(np.float64)


def _reference_kmeans(data, L, seed):
    """``kmeans`` with full Lloyd steps: (labels, centroids, inertia history, (labels, d2) of each assignment)."""
    x = data - data[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 1]))
    centroids, labels, d2 = _kmeanspp(x, np.arange(x.shape[0]), np.zeros(x.shape[1]), L, rng)
    history, steps = [], []
    for it in range(clustering.MAX_ITER):
        if it:
            labels, d2 = _reference_assign(x, centroids, comp, labels)
            steps.append((labels.copy(), d2.copy()))
        _repair_empty(labels, d2, np.zeros(L, dtype=bool))
        history.append(float(d2.sum()))
        new = _reference_means(x, labels, L)
        shifts = np.sqrt(_sq_dist(new, centroids, cols=np.arange(L)))
        centroids = new
        if shifts.max() < clustering.SHIFT_TOL:
            break
        worst = np.zeros(L)
        np.maximum.at(worst, labels, d2)
        comp = _components(centroids, np.sqrt(worst) + shifts)
    return labels, centroids + data[0], np.asarray(history), steps


def _assert_full_steps(data, L, seed):
    """Every recorded step of ``kmeans`` has the bytes of the reference's full step."""
    got, calls = _kmeans_recorded(EmbeddingStore(data), L, seed)
    labels, centroids, history, steps = _reference_kmeans(data, L, seed)
    assert len(calls) == len(steps)
    for (_, _, clab, cd2), (rlab, rd2) in zip(calls, steps):
        assert clab.tobytes() == rlab.tobytes() and cd2.tobytes() == rd2.tobytes()
    assert got.labels.tobytes() == labels.tobytes()
    assert got.centroids.tobytes() == centroids.tobytes()
    assert got.inertia_history.tobytes() == history.tobytes()


# 15 values on a line where k-means with L=6 and seed 9054 empties a cluster
# in its third step, after two assignments, and none before
_REPAIRED_MID_RUN = [
    -1.671211364711754, 0.7520193800131516, 0.33101006190552656, 0.3116085681481616, 0.33544782008759244,
    0.23398137427410928, -2.2994380967352424, -0.07847320841088827, -0.19329044051338581, -0.6338020165673275,
    -0.20325542637420949, -0.8785478618051551, 1.1077258728322879, 0.23053875326353288, -0.8765660685046452,
]


class TestIncrementalSteps:
    @settings(max_examples=80, deadline=None)
    @given(_seeding_inputs())
    def test_every_step_equals_a_full_step(self, inputs):
        """Labels, d2, centroids and inertia history as bytes, against full means and whole-component ranks."""
        x, L, seed, shift = inputs
        for data in (x, x + shift):
            _assert_full_steps(data, L, seed)

    def test_a_repair_after_an_assignment_moves_both_clusters(self):
        empties = []

        def counted(labels, d2, changed):
            empties.append(int(np.count_nonzero(np.bincount(labels, minlength=changed.size) == 0)))
            _repair_empty(labels, d2, changed)

        x = np.array(_REPAIRED_MID_RUN)[:, None]
        with mock.patch.object(clustering, "_repair_empty", counted):
            _assert_full_steps(x, 6, 9054)
        assert empties[:2] == [0, 0] and empties[2] > 0

    def test_repair_marks_the_donor_and_the_filled_cluster(self):
        labels, d2 = np.array([0, 0, 0, 2]), np.array([1.0, 3.0, 2.0, 0.5])
        changed = np.zeros(3, dtype=bool)
        _repair_empty(labels, d2, changed)
        assert labels.tolist() == [0, 1, 0, 2] and d2[1] == 0.0
        assert changed.tolist() == [True, True, False]

    @pytest.mark.parametrize("own, moved, label", [(1, [True, False], 0), (0, [False, True], 0)])
    def test_a_static_row_takes_a_tying_moved_centroid_only_at_a_lower_index(self, own, moved, label):
        # the row sits halfway between the two centroids
        x, centroids = np.array([[0.0]]), np.array([[-1.0], [1.0]])
        labels, d2, changed = _assign(x, centroids, [0, 0], moved, [own], [1.0])
        assert labels.tolist() == [label] and d2.tolist() == [1.0]
        assert changed.tolist() == [own != label] * 2

    def test_a_static_row_keeps_its_label_against_a_farther_moved_centroid(self):
        x, centroids = np.array([[0.25]]), np.array([[-1.0], [1.0]])
        labels, d2, changed = _assign(x, centroids, [0, 0], [True, False], [1], [0.5625])
        assert labels.tolist() == [1] and d2.tolist() == [0.5625] and not changed.any()

    def test_only_components_with_a_moved_centroid_are_reranked(self):
        """Component 0 holds a moved centroid its static rows must move to; component 1 holds none."""
        x = np.array([[-1.0], [0.9], [10.0], [11.5]])
        centroids = np.array([[1.0], [2.0], [10.0], [12.0]])
        dist = _explicit(x, centroids)
        prev = [0, 1, 2, 3]  # centroid 0 moved to 1.0 from beyond 2.0
        labels, d2, changed = _assign(x, centroids, [0, 0, 1, 1], [True, False, False, False], prev, dist[np.arange(4), prev])
        assert labels.tolist() == [0, 0, 2, 3]
        assert d2.tobytes() == dist[np.arange(4), [0, 0, 2, 3]].tobytes()
        assert changed.tolist() == [True, True, False, False]

    def test_means_are_recomputed_for_changed_clusters_only(self):
        gen = np.random.default_rng(3)
        x, labels = gen.normal(size=(50, 3)), gen.integers(4, size=50)
        stale = gen.normal(size=(4, 3))
        changed = np.array([True, False, True, False])
        got = _means_by_label(x, np.arange(50), np.zeros(3), labels, stale, changed)
        full = _reference_means(x, labels, 4)
        assert got[changed].tobytes() == full[changed].tobytes()
        assert got[~changed].tobytes() == stale[~changed].tobytes()

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_block_sums_equal_per_feature_bincount_bit_for_bit(self, data):
        """Any changed set (none included), -0.0 entries, singletons and clusters spanning several blocks."""
        n = data.draw(st.integers(1, 150))
        d = data.draw(st.integers(1, 5))
        L = data.draw(st.integers(1, n))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = gen.normal(size=(n + 3, d)) * 10.0 ** gen.integers(-3, 4, size=(n + 3, d))
        x[gen.random(x.shape) < 0.2] = -0.0  # -0.0 - 0.0 stays -0.0, and sums of them from 0.0 give 0.0
        kept = gen.permutation(n + 3)[:n]
        origin = np.zeros(d) if data.draw(st.booleans()) else x[kept[0]].copy()
        # every cluster non-empty; small L gives large clusters, L near n singletons
        labels = np.concatenate([gen.permutation(L), gen.integers(L, size=n - L)])[gen.permutation(n)]
        changed = gen.random(L) < data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        stale = gen.normal(size=(L, d))
        block = data.draw(st.integers(1, 4 * d))  # rows per block: _BLOCK_ELEMENTS // d
        with mock.patch.object(clustering, "_BLOCK_ELEMENTS", block * d):
            got = _means_by_label(x, kept, origin, labels, stale, changed)
        full = _reference_means(x[kept] - origin, labels, L)
        assert got[changed].tobytes() == full[changed].tobytes()
        assert got[~changed].tobytes() == stale[~changed].tobytes()

    def test_members_are_sorted_store_rows_for_any_kept_order(self):
        store, _ = gen_synthetic(300, 4, 3, 0.8, seed=21)
        kept = np.random.default_rng(1).permutation(300)[:250]
        a = kmeans(store, kept, 9, seed=2)
        for c, m in enumerate(a.members):
            assert m.tobytes() == np.sort(kept[a.labels == c]).tobytes()


def test_blas_thread_count_does_not_move_kmeans():
    script = (
        "import hashlib, numpy as np\n"
        "from egms import gen_synthetic, kmeans\n"
        "store, _ = gen_synthetic(4000, 24, 8, 1.0, seed=2)\n"
        "a = kmeans(store, np.arange(4000), 90, seed=3)\n"
        "print(hashlib.sha256(a.labels.tobytes() + a.centroids.tobytes()).hexdigest())\n"
    )
    src = str(Path(clustering.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1


def test_kmeans_holds_no_copy_of_the_rows():
    """Beyond the store, k-means allocates less than one n x d float64 array at its peak."""
    n, d = 20_000, 64
    store, _ = gen_synthetic(n, d, 10, 1.0, seed=909)
    kept = np.arange(n)
    tracemalloc.start()
    try:
        kmeans(store, kept, 200, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8, peak

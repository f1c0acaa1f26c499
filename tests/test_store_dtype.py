"""A float32 store gives the bits of a float64 store of the same values.

A loaded store keeps the file's float32 values, 4 bytes a value. Every read
of its rows widens them exactly to float64 before any arithmetic, so
selections, k-means, diagnostics and every squared distance are the same,
bit for bit, as on a float64 copy of the store.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egms import (
    EmbeddingStore,
    InputError,
    SampleMeta,
    SelectionConfig,
    build_similarity,
    diversity_report,
    gen_synthetic,
    kmeans,
    load_embedding_store,
    serialize_selection_manifest,
    write_embedding_store,
)
from egms import clustering
from egms.clustering import _sq_dist
from egms.sampler import select


@st.composite
def _float32_grids(draw):
    """A float32 (n, d) array at any binary scale and offset, and a seed.

    Half are grids, where duplicates and exact ties are likely; the others
    have full float32 mantissas, so differences of their values round in
    float32 and only an exact widening before the arithmetic keeps the bits.
    """
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-20, 20))
    if draw(st.booleans()):
        levels = draw(st.integers(1, 64))
        x = gen.integers(-levels, levels + 1, size=(n, d)) * scale
    else:
        x = gen.normal(size=(n, d)) * scale
    x = (x + draw(st.sampled_from([0.0, 1.0, 2.0**10]))).astype(np.float32)
    return x, draw(st.integers(0, 2**32 - 1))


def _pair(x32: np.ndarray) -> tuple[EmbeddingStore, EmbeddingStore]:
    s32, s64 = EmbeddingStore(x32), EmbeddingStore(x32.astype(np.float64))
    assert s32.data.dtype == np.float32 and s64.data.dtype == np.float64
    return s32, s64


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the message of the InputError it raises."""
    try:
        return fn(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def _manifest_bytes(store, metas, strategy, config):
    manifest, _ = select(store, metas, strategy, config)
    return serialize_selection_manifest(manifest).encode()


@settings(max_examples=40, deadline=None)
@given(_float32_grids(), st.sampled_from(["exam", "exam_average_allocation", "mmd_minimize"]), st.booleans())
def test_select_on_a_float32_store_writes_the_float64_store_manifest(grid, strategy, normalize):
    x32, seed = grid
    n = x32.shape[0]
    metas = [SampleMeta(id=f"s{i}", ppl=1.0 + (i * 7919 + seed) % 97 / 8.0) for i in range(n)]
    config = SelectionConfig(budget=max(1, n // 4), clusters=2, candidate_size=3, sigma=0.5, seed=seed, normalize=normalize)
    s32, s64 = _pair(x32)
    assert _outcome(_manifest_bytes, s32, metas, strategy, config) == _outcome(_manifest_bytes, s64, metas, strategy, config)


@settings(max_examples=60, deadline=None)
@given(_float32_grids(), st.integers(1, 6))
def test_kmeans_on_a_float32_store_equals_the_float64_store(grid, L):
    x32, seed = grid
    s32, s64 = _pair(x32)
    kept = np.arange(0, x32.shape[0], 1 + seed % 2)
    L = min(L, kept.size)
    a, b = kmeans(s32, kept, L, seed), kmeans(s64, kept, L, seed)
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.centroids.dtype == np.float64 and a.centroids.tobytes() == b.centroids.tobytes()
    assert a.inertia_history.tobytes() == b.inertia_history.tobytes()
    assert all(p.tobytes() == q.tobytes() for p, q in zip(a.members, b.members))


@pytest.mark.parametrize("strategy", ["exam", "mmd_minimize"])
@pytest.mark.parametrize("normalize", [False, True])
def test_diversity_report_on_a_float32_store_equals_the_float64_store(strategy, normalize):
    store, metas = gen_synthetic(240, 6, 4, 1.0, seed=3)
    s32, s64 = _pair(store.data.astype(np.float32))
    config = SelectionConfig(budget=24, clusters=3, candidate_size=5, sigma=2.0, seed=5, normalize=normalize)
    assert diversity_report(s32, metas, strategy, config, 2) == diversity_report(s64, metas, strategy, config, 2)
    rows = np.arange(0, 240, 7)
    assert build_similarity(s32, rows, 2.0).matrix.tobytes() == build_similarity(s64, rows, 2.0).matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(_float32_grids(), st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 1 << 17]))
def test_sq_dist_widens_float32_rows_exactly_in_every_mode(grid, seed, block):
    x32, _ = grid
    n, d = x32.shape
    gen = np.random.default_rng(seed)
    c32 = x32[gen.integers(n, size=3)] + np.float32(0.5)
    rows = gen.integers(n, size=2 * n)
    cols = gen.integers(3, size=2 * n)
    origin = x32[0].astype(np.float64)
    x64, c64 = x32.astype(np.float64), c32.astype(np.float64)
    modes = {
        "rows": lambda x, c: _sq_dist(x, c[0], rows=rows, origin=origin),
        "rows+cols": lambda x, c: _sq_dist(x, c, rows=rows, cols=cols, origin=origin),
        "cols": lambda x, c: _sq_dist(x, c, cols=cols[:n]),
        "grid": lambda x, c: _sq_dist(x, c),
        "centre": lambda x, c: _sq_dist(x, c[1]),
    }
    # blocks of one row, of a few rows and of the default size
    with mock.patch.object(clustering, "_BLOCK_ELEMENTS", block):
        for name, dist in modes.items():
            want = dist(x64, c64).tobytes()
            for x, c in ((x32, c32), (x32, c64), (x64, c32)):
                assert dist(x, c).tobytes() == want, name


def test_a_loaded_store_keeps_float32_at_4_bytes_a_value(tmp_path):
    n, d = 20_000, 64
    store, _ = gen_synthetic(n, d, 10, 1.0, seed=909)
    path = tmp_path / "e.bin"
    write_embedding_store(path, store)
    tracemalloc.start()
    try:
        loaded = load_embedding_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.data.dtype == np.float32 and loaded.data.nbytes == 4 * n * d
    assert np.array_equal(loaded.data, store.data)
    assert peak / (n * d) < 12, peak / (n * d)


def test_only_float32_input_stays_float32():
    values = [[0.5, 1.0], [2.0, -3.25]]
    assert EmbeddingStore(np.array(values, dtype=np.float32)).data.dtype == np.float32
    assert EmbeddingStore(np.array(values, dtype=">f4")).data.dtype == np.float32
    for other in (values, np.array(values, dtype=np.float16), np.array(values, dtype=np.int32)):
        assert EmbeddingStore(other).data.dtype == np.float64
    s32 = EmbeddingStore(np.array(values, dtype=np.float32))
    assert s32.l2_normalized().data.dtype == np.float64
    assert s32.l2_normalized().data.tobytes() == EmbeddingStore(values).l2_normalized().data.tobytes()


def test_a_loaded_store_selects_as_the_float64_store_it_was_written_from(tmp_path):
    store, metas = gen_synthetic(400, 8, 4, 1.0, seed=2)
    path = tmp_path / "e.bin"
    write_embedding_store(path, store)
    loaded = load_embedding_store(path)
    config = SelectionConfig(budget=40, clusters=4, candidate_size=5, normalize=True)
    assert _manifest_bytes(loaded, metas, "exam", config) == _manifest_bytes(store, metas, "exam", config)
    plain = replace(config, normalize=False)
    assert _manifest_bytes(loaded, metas, "exam", plain) == _manifest_bytes(store, metas, "exam", plain)

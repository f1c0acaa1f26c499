"""Input checks of the public types and functions: each rejection is an InputError with its message."""

import struct

import numpy as np
import pytest

from egms import (
    BenchmarkScores,
    ClusterRecord,
    EmbeddingStore,
    InputError,
    SampleMeta,
    SelectionConfig,
    SelectionManifest,
    SimilarityState,
    allocate_budgets,
    augment,
    build_similarity,
    diversity_report,
    filter_extremes,
    gaussian_similarity,
    gen_synthetic,
    greedy_sample_cluster,
    kmeans,
    load_benchmark_scores,
    load_embedding_store,
    mmd_sample_cluster,
    oracle_max_entropy_subset,
    select,
    write_embedding_store,
)

_STORE = EmbeddingStore(np.arange(6.0).reshape(3, 2))
_METAS = [SampleMeta(id=f"s{i}", ppl=1.0 + i) for i in range(3)]
_CLUSTER = EmbeddingStore(np.arange(20.0).reshape(10, 2))  # budgets below 10 leave greedy steps to draw for


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _embedding_file(tmp_path, version=1, dim=2):
    """A 0-row embedding file whose header carries ``version`` and ``dim``."""
    return _write(tmp_path, "e.bin", struct.pack("<4sHQI", b"EGMS", version, 0, dim))


def _manifest(*records):
    return SelectionManifest(SelectionConfig(budget=2), "exam", records, ())


_CASES = [
    ("state-square", lambda tmp: SimilarityState(np.ones((2, 3)), [0, 1]), "must be square"),
    ("state-rows", lambda tmp: SimilarityState(np.eye(2), [0]), "one entry per matrix row"),
    ("state-distinct", lambda tmp: SimilarityState(np.eye(2), [1, 1]), "member_rows must be distinct"),
    ("state-finite", lambda tmp: SimilarityState([[1.0, np.nan], [np.nan, 1.0]], [0, 1]), "non-finite"),
    ("state-diagonal", lambda tmp: SimilarityState([[2.0, 0.0], [0.0, 1.0]], [0, 1]), "diagonal must be exactly 1"),
    ("state-symmetric", lambda tmp: SimilarityState([[1.0, 0.5], [0.4, 1.0]], [0, 1]), "symmetric within 1e-12"),
    ("store-1d", lambda tmp: EmbeddingStore(np.zeros(3)), "must be 2-D, got shape"),
    ("store-dim-0", lambda tmp: EmbeddingStore(np.zeros((3, 0))), "dim must be >= 1"),
    (
        "store-zero-row",
        lambda tmp: EmbeddingStore([[1.0, 0.0], [0.0, 0.0]]).l2_normalized(),
        "cannot L2-normalize zero embedding row 1",
    ),
    (
        "store-write-past-float32",
        lambda tmp: write_embedding_store(tmp / "e.bin", EmbeddingStore([[1.0, 2.0], [0.0, -1e39]])),
        "embedding row 1 has a value past float32's range",
    ),
    ("meta-ppl", lambda tmp: SampleMeta("a", ppl=np.inf), "ppl must be finite and positive"),
    ("meta-score", lambda tmp: SampleMeta("a", score=np.nan), "score must be finite"),
    ("config-candidates", lambda tmp: SelectionConfig(budget=5, candidate_size=0), "candidate_size must be >= 1"),
    ("config-seed-float", lambda tmp: SelectionConfig(budget=10, clusters=3, seed=1.5), "seed must be an integer"),
    ("config-seed-bool", lambda tmp: SelectionConfig(budget=10, clusters=3, seed=True), "seed must be an integer"),
    ("config-budget-bool", lambda tmp: SelectionConfig(budget=True), "budget must be an integer"),
    ("config-budget-float", lambda tmp: SelectionConfig(budget=10.0), "budget must be an integer"),
    ("config-clusters-float", lambda tmp: SelectionConfig(budget=10, clusters=3.0), "clusters must be an integer"),
    ("config-candidates-float", lambda tmp: SelectionConfig(budget=10, candidate_size=2.5), "candidate_size must be an integer"),
    ("config-workers-float", lambda tmp: SelectionConfig(budget=10, workers=1.5), "workers must be an integer"),
    ("config-sigma-string", lambda tmp: SelectionConfig(budget=10, sigma="0.5"), "sigma must be finite and > 0"),
    ("config-tail-none", lambda tmp: SelectionConfig(budget=10, tail_low=None), "tail_low must be a real number"),
    ("config-tail-bool", lambda tmp: SelectionConfig(budget=10, tail_high=False), "tail_high must be a real number"),
    ("config-normalize-string", lambda tmp: SelectionConfig(budget=10, normalize="yes"), "normalize must be a bool"),
    ("greedy-m-0", lambda tmp: greedy_sample_cluster(_CLUSTER, np.arange(10), 4, 0, 0.5, None), "m must be >= 1"),
    ("greedy-m-negative", lambda tmp: greedy_sample_cluster(_CLUSTER, np.arange(10), 4, -1, 0.5, None), "m must be >= 1"),
    ("greedy-m-float", lambda tmp: greedy_sample_cluster(_CLUSTER, np.arange(10), 4, 2.5, 0.5, None), "m must be an integer"),
    (
        "greedy-budget-bool",
        lambda tmp: greedy_sample_cluster(_CLUSTER, np.arange(10), True, 2, 0.5, np.random.default_rng(0)),
        "cluster budget must be an integer",
    ),
    ("mmd-budget-float", lambda tmp: mmd_sample_cluster(_CLUSTER, np.arange(10), 2.5, 0.5), "cluster budget must be an integer"),
    ("record-trace", lambda tmp: ClusterRecord(0, 2, ("a", "b"), (0.0,)), "must align with selected ids"),
    (
        "manifest-ids",
        lambda tmp: _manifest(ClusterRecord(0, 1, ("a",), (0.0,)), ClusterRecord(1, 1, ("a",), (0.0,))),
        "selected ids are not unique",
    ),
    (
        "manifest-traces",
        lambda tmp: _manifest(ClusterRecord(0, 1, ("a",), (0.0,)), ClusterRecord(1, 1, ("b",))),
        "for every cluster or for none",
    ),
    ("file-header", lambda tmp: load_embedding_store(_write(tmp, "e.bin", b"EGMS\x01")), "truncated header"),
    (
        "file-version",
        lambda tmp: load_embedding_store(_embedding_file(tmp, version=2)),
        "unsupported version 2 at byte offset 4",
    ),
    (
        "file-dim-0",
        lambda tmp: load_embedding_store(_embedding_file(tmp, dim=0)),
        r"dim must be >= 1 \(byte offset 14\)",
    ),
    ("gen-spread", lambda tmp: gen_synthetic(10, 2, 1, -1.0, seed=0), "spread must be finite and >= 0"),
    ("pair-finite", lambda tmp: gaussian_similarity([0.0, np.nan], [0.0, 0.0], 0.5), "vectors must be finite"),
    ("pair-empty", lambda tmp: gaussian_similarity([], [], 0.5), "vectors must be non-empty"),
    (
        "augment-row",
        lambda tmp: augment(build_similarity(_STORE, [0], 0.5), _STORE, 5, 0.5),
        r"row index 5 out of range \[0, 3\)",
    ),
    ("filter-2d", lambda tmp: filter_extremes(np.ones((2, 2)), 0.0, 0.0), "must be a 1-D sequence"),
    ("scores-subset", lambda tmp: BenchmarkScores(("qa",), (np.nan,), (50.0,)), "subset scores must be finite"),
    ("scores-file", lambda tmp: load_benchmark_scores(_write(tmp, "s.txt", b"qa, high, 50\n")), "scores line 1: "),
    ("oracle-k-high", lambda tmp: oracle_max_entropy_subset(_STORE, [0, 1, 2], 4, 0.5), "need 1 <= k <= 3"),
    ("oracle-k-0", lambda tmp: oracle_max_entropy_subset(_STORE, [0, 1, 2], 0, 0.5), "need 1 <= k <= 3"),
    ("budget-sizes", lambda tmp: allocate_budgets([3, 0], 2), "cluster sizes must be >= 1"),
    ("budget-bool", lambda tmp: allocate_budgets([3, 4], True), "budget must be an integer"),
    ("budget-float", lambda tmp: allocate_budgets([3, 4], 2.5), "budget must be an integer"),
    ("kmeans-seed-float", lambda tmp: kmeans(_CLUSTER, np.arange(10), 2, 1.5), "seed must be an integer"),
    ("kmeans-L-float", lambda tmp: kmeans(_CLUSTER, np.arange(10), 2.5, 0), "cluster count L must be an integer"),
    ("oracle-k-float", lambda tmp: oracle_max_entropy_subset(_STORE, [0, 1, 2], 1.5, 0.5), "subset size k must be an integer"),
    (
        "diversity-seeds-float",
        lambda tmp: diversity_report(_STORE, _METAS, "random", SelectionConfig(budget=1), 1.5),
        "n_seeds must be an integer",
    ),
    (
        "select-count",
        lambda tmp: select(_STORE, _METAS[:2], "random", SelectionConfig(budget=1)),
        "embedding store has 3 rows but sample manifest has 2",
    ),
    (
        "ccs-bins",
        lambda tmp: select(_STORE, _METAS, "ccs", SelectionConfig(budget=1), bins=0),
        "ccs bin count must be >= 1",
    ),
    (
        "select-bins-float",
        lambda tmp: select(_STORE, _METAS, "ccs", SelectionConfig(budget=1), bins=2.5),
        "bins must be an integer",
    ),
]


@pytest.mark.parametrize("call, match", [pytest.param(call, match, id=name) for name, call, match in _CASES])
def test_invalid_input_is_an_input_error(tmp_path, call, match):
    with pytest.raises(InputError, match=match):
        call(tmp_path)

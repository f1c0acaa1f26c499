"""Data types, file formats, and the synthetic generator."""

import numpy as np
import pytest

from egms import (
    EmbeddingStore,
    InputError,
    SampleMeta,
    SelectionConfig,
    gen_synthetic,
    kmeans,
    load_embedding_store,
    load_sample_manifest,
    write_embedding_store,
    write_sample_manifest,
)


class TestEmbeddingFile:
    def test_round_trip_bit_exact(self, tmp_path):
        # float32-representable values: the payload is float32 on disk
        store = EmbeddingStore(np.array([[1.0, 2.0], [3.5, -4.25], [0.0, 0.0009765625]]))
        path = tmp_path / "e.bin"
        write_embedding_store(path, store)
        loaded = load_embedding_store(path)
        assert loaded.count == 3 and loaded.dim == 2
        assert np.array_equal(loaded.data, store.data)
        # writing the loaded store reproduces the file byte for byte
        path2 = tmp_path / "e2.bin"
        write_embedding_store(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_shape(self, tmp_path):
        store = EmbeddingStore(np.zeros((3, 2)))
        path = tmp_path / "e.bin"
        write_embedding_store(path, store)
        raw = path.read_bytes()
        assert raw[:4] == b"EGMS"
        assert len(raw) == 18 + 3 * 2 * 4

    def test_truncated_payload(self, tmp_path):
        store = EmbeddingStore(np.zeros((3, 2)))
        path = tmp_path / "e.bin"
        write_embedding_store(path, store)
        path.write_bytes(path.read_bytes()[:-4])  # drop value 6 of 6
        with pytest.raises(InputError, match="truncated payload"):
            load_embedding_store(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(InputError, match="bad magic"):
            load_embedding_store(path)

    def test_nan_reports_row_and_offset(self, tmp_path):
        store = EmbeddingStore(np.ones((3, 2)))
        path = tmp_path / "e.bin"
        write_embedding_store(path, store)
        raw = bytearray(path.read_bytes())
        raw[18 + 3 * 4 : 18 + 4 * 4] = np.float32("nan").tobytes()  # row 1, col 1
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match=r"row 1 \(byte offset 30\)"):
            load_embedding_store(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_embedding_store(tmp_path / "absent.bin")

    def test_store_rejects_nonfinite(self):
        with pytest.raises(InputError, match="non-finite"):
            EmbeddingStore(np.array([[1.0, np.inf]]))


class TestSampleManifest:
    def test_parse_in_order(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id":"a","ppl":2.0}\n{"id":"b","nlls":[0.5,1.5]}\n{"id":"c","score":-1.0}\n'
        )
        metas = load_sample_manifest(path)
        assert [m.id for m in metas] == ["a", "b", "c"]
        assert metas[0].ppl == 2.0
        assert metas[1].nlls == (0.5, 1.5)
        assert metas[2].score == -1.0

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"s1"}\n{"id":"s2"}\n{"id":"s1"}\n')
        with pytest.raises(InputError, match="lines 1 and 3"):
            load_sample_manifest(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a"}\n{"ppl":3.0}\n')
        with pytest.raises(InputError, match="malformed line 2"):
            load_sample_manifest(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a"}\n{"id":"b"}\n')
        with pytest.raises(InputError, match="2 records.*3 rows"):
            load_sample_manifest(path, expected_count=3)

    def test_round_trip(self, tmp_path):
        metas = [
            SampleMeta(id="x1", nlls=(0.0, 0.25), ppl=1.25, score=0.5),
            SampleMeta(id="x2", ppl=3.0),
        ]
        path = tmp_path / "m.jsonl"
        write_sample_manifest(path, metas)
        assert load_sample_manifest(path) == metas

    def test_id_with_whitespace_rejected(self):
        with pytest.raises(InputError, match="whitespace"):
            SampleMeta(id="bad id")

    def test_negative_nll_rejected(self):
        for bad in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputError, match="nlls"):
                SampleMeta(id="a", nlls=(0.5, bad))


class TestSelectionConfig:
    def test_defaults_match_documented_values(self):
        cfg = SelectionConfig(budget=10)
        assert (cfg.clusters, cfg.candidate_size, cfg.sigma) == (1000, 100, 0.5)
        assert (cfg.tail_low, cfg.tail_high) == (0.05, 0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 0},
            {"budget": 5, "clusters": 0},
            {"budget": 5, "sigma": 0.0},
            {"budget": 5, "tail_low": 0.5},
            {"budget": 5, "tail_high": -0.1},
            {"budget": 5, "workers": 0},
            {"budget": 5, "seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InputError):
            SelectionConfig(**kwargs)

    def test_rejects_sigma_whose_square_underflows(self):
        # 2*sigma^2 == 0 would turn every self-distance into 0/0 = NaN
        with pytest.raises(InputError, match="sigma"):
            SelectionConfig(budget=5, sigma=1e-200)
        assert SelectionConfig(budget=5, sigma=1e-150).sigma == 1e-150


class TestGenSynthetic:
    def test_zero_spread_collapses_to_blob_mean(self):
        store, metas = gen_synthetic(10, 2, 1, 0.0, seed=7)
        assert store.count == 10 and len(metas) == 10
        assert np.all(store.data == store.data[0])

    def test_deterministic(self):
        a_store, a_metas = gen_synthetic(64, 5, 4, 0.7, seed=42)
        b_store, b_metas = gen_synthetic(64, 5, 4, 0.7, seed=42)
        assert np.array_equal(a_store.data, b_store.data)
        assert a_metas == b_metas

    def test_different_seeds_differ(self):
        a, _ = gen_synthetic(32, 3, 2, 0.5, seed=1)
        b, _ = gen_synthetic(32, 3, 2, 0.5, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_kmeans_recovers_blob_partition(self):
        store, _, labels = gen_synthetic(1000, 8, 10, 1.0, seed=1, return_labels=True)
        assignment = kmeans(store, np.arange(1000), 10, seed=1)
        # pairwise agreement between ground truth and recovered labels
        truth = labels[:, None] == labels[None, :]
        found = assignment.labels[:, None] == assignment.labels[None, :]
        iu = np.triu_indices(1000, k=1)
        agreement = (truth[iu] == found[iu]).mean()
        assert agreement >= 0.95

    def test_ppl_consistent_with_nlls(self):
        from egms import perplexity_from_nlls

        _, metas = gen_synthetic(200, 3, 2, 0.5, seed=9)
        checked = 0
        for m in metas:
            assert m.ppl is not None and m.ppl > 0
            if m.nlls is not None:
                assert perplexity_from_nlls(m.nlls) == pytest.approx(m.ppl, rel=1e-9)
                checked += 1
        assert checked > 100

    def test_disk_round_trip_is_noop(self, tmp_path):
        store, _ = gen_synthetic(50, 4, 3, 0.8, seed=3)
        path = tmp_path / "e.bin"
        write_embedding_store(path, store)
        assert np.array_equal(load_embedding_store(path).data, store.data)

    def test_bad_shapes(self):
        with pytest.raises(InputError):
            gen_synthetic(2, 3, 5, 0.5, seed=0)  # n < k_blobs
        with pytest.raises(InputError):
            gen_synthetic(5, 0, 1, 0.5, seed=0)

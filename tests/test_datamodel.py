"""Data types, file formats, and the synthetic generator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egms import (
    STRATEGIES,
    EmbeddingStore,
    InputError,
    SampleMeta,
    SelectionConfig,
    build_similarity,
    gen_synthetic,
    greedy_sample_cluster,
    kmeans,
    load_embedding_store,
    load_sample_manifest,
    load_selection_manifest,
    mmd_sample_cluster,
    oracle_max_entropy_subset,
    parse_selection_manifest,
    serialize_selection_manifest,
    write_embedding_store,
    write_sample_manifest,
    write_selection_manifest,
)
from egms.datamodel import _store_rows
from egms.sampler import select


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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_names_the_line(self, tmp_path, newline):
        path = tmp_path / "m.jsonl"
        path.write_bytes(newline.join(['{"id":"a"}', '{"id":"b\xff"}', '{"id":"c"}']).encode("latin-1"))
        with pytest.raises(InputError, match=r"sample manifest .* line 2 is not UTF-8"):
            load_sample_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read sample manifest"):
            load_sample_manifest(tmp_path / "absent.jsonl")

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

    @pytest.mark.parametrize(
        "fields",
        [
            '"id":null',
            '"id":true',
            '"id":1.5',
            '"id":["a"]',
            '"nlls":"12"',
            '"nlls":{"0.5":1}',
            '"nlls":2.0',
            '"nlls":[0.5,"1"]',
            '"nlls":[true]',
            '"ppl":"3.5"',
            '"ppl":true',
            '"ppl":[3.5]',
            '"score":"1"',
            '"score":false',
            '"score":{"v":1}',
        ],
    )
    def test_json_value_of_the_wrong_type_names_the_line(self, tmp_path, fields):
        # the loader checks the JSON types, it does not convert them
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a"}\n{"id":"b",' + fields + "}\n")
        with pytest.raises(InputError, match="malformed line 2"):
            load_sample_manifest(path)

    def test_integer_id_and_numbers_load(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":7,"nlls":[1,0.5],"ppl":2,"score":-1}\n')
        assert load_sample_manifest(path) == [SampleMeta(id="7", nlls=(1.0, 0.5), ppl=2.0, score=-1.0)]

    @pytest.mark.parametrize("digits", [401, 5000], ids=["past_float_range", "past_the_int_digit_limit"])
    def test_integer_too_large_names_the_line(self, tmp_path, digits):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a"}\n{"id":"b","ppl":' + "1" * digits + "}\n")
        with pytest.raises(InputError, match="malformed line 2"):
            load_sample_manifest(path)

    def test_id_with_whitespace_rejected(self):
        with pytest.raises(InputError, match="whitespace"):
            SampleMeta(id="bad id")

    @settings(max_examples=500, deadline=None)
    @given(st.text() | st.text(alphabet=st.sampled_from("ab \t\n\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000\u200b")))
    @example("")
    @example("\x1c")
    @example("a\x1d")
    @example("\x1eb")
    @example("a\x1fb")
    @example("a\x85")
    @example("\u2028a")
    @example("a\u3000b")
    @example("a\u200bb")  # zero-width space: not whitespace to Python
    def test_id_rejected_exactly_when_empty_or_with_whitespace(self, sid):
        expected = not sid or any(c.isspace() for c in sid)  # the per-character check
        try:
            SampleMeta(id=sid)
        except InputError:
            assert expected, sid
        else:
            assert not expected, sid

    def test_negative_nll_rejected(self):
        for bad in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputError, match="nlls"):
                SampleMeta(id="a", nlls=(0.5, bad))


# each caller of the shared store-row check: (call on a 10-row store, the argument it names)
_ROW_CALLERS = {
    "kmeans": (lambda store, rows: kmeans(store, rows, 1, seed=0), "kept row"),
    "build_similarity": (lambda store, rows: build_similarity(store, rows, 0.5), "row"),
    "greedy_sample_cluster": (
        lambda store, rows: greedy_sample_cluster(store, rows, 1, 4, 0.5, np.random.default_rng(0)),
        "cluster member",
    ),
    "mmd_sample_cluster": (lambda store, rows: mmd_sample_cluster(store, rows, 1, 0.5), "cluster member"),
    "oracle_max_entropy_subset": (lambda store, rows: oracle_max_entropy_subset(store, rows, 1, 0.5), "row"),
}


@pytest.mark.parametrize("caller", sorted(_ROW_CALLERS))
@pytest.mark.parametrize(
    "rows, problem",
    [([], "s must be nonempty"), ([3, -1], r" out of range \[0, 10\)"), ([3, 10], r" out of range \[0, 10\)"),
     ([3, 5, 3], "s must be distinct"), ([0.5, 1.9], "s must be integers, got float64"),
     ([3.0, 5.0], "s must be integers, got float64"), ([True, False, True], "s must be integers, got bool")],
    ids=["empty", "minus_one", "count", "repeated", "fractional", "integral_floats", "boolean_mask"],
)
def test_store_rows_are_checked_alike_by_every_caller(caller, rows, problem):
    call, what = _ROW_CALLERS[caller]
    store = EmbeddingStore(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(InputError, match=f"^{what}{problem}$"):
        call(store, rows)


def test_store_rows_keep_the_given_order():
    store = EmbeddingStore(np.zeros((10, 2)))
    rows = _store_rows(store, [[7], [2], [5]], "row")
    assert rows.dtype == np.int64 and rows.tolist() == [7, 2, 5]


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
def test_store_rows_take_any_integer_dtype(dtype):
    store = EmbeddingStore(np.zeros((10, 2)))
    rows = _store_rows(store, np.array([7, 2, 5], dtype=dtype), "row")
    assert rows.dtype == np.int64 and rows.tolist() == [7, 2, 5]


def test_store_rows_reject_a_wrapped_unsigned_row():
    store = EmbeddingStore(np.zeros((10, 2)))
    with pytest.raises(InputError, match=r"^row out of range \[0, 10\)$"):
        _store_rows(store, np.array([2, 2**64 - 1], dtype=np.uint64), "row")


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


@pytest.fixture(scope="module")
def selection_corpus():
    return gen_synthetic(200, 4, 3, 0.5, seed=12)


def _selection_text(corpus):
    """An ``exam`` manifest of 20 samples over 4 clusters."""
    store, metas = corpus
    cfg = SelectionConfig(budget=20, clusters=4, candidate_size=8, seed=3)
    return serialize_selection_manifest(select(store, metas, "exam", cfg)[0])


def _edit_line(text, index, edit):
    """``text`` with its line at ``index`` (0-based) replaced by ``edit(line)``."""
    lines = text.splitlines()
    lines[index] = edit(lines[index])
    return "\n".join(lines) + "\n"


def _line_index(text, prefix):
    return next(i for i, line in enumerate(text.splitlines()) if line.startswith(prefix))


class TestSelectionManifestFile:
    @pytest.mark.parametrize("strategy", ("exam",) + STRATEGIES)
    def test_round_trip(self, selection_corpus, strategy, tmp_path):
        store, metas = selection_corpus
        cfg = SelectionConfig(budget=20, clusters=4, candidate_size=8, seed=3)
        manifest = select(store, metas, strategy, cfg, bins=7)[0]
        text = serialize_selection_manifest(manifest)
        parsed = parse_selection_manifest(text)
        assert serialize_selection_manifest(parsed) == text
        assert parsed.per_cluster == manifest.per_cluster
        assert parsed.bins == (7 if strategy == "ccs" else None)
        assert parsed.selected == manifest.selected
        write_selection_manifest(tmp_path / "sel.txt", manifest)
        assert load_selection_manifest(tmp_path / "sel.txt") == parsed

    @pytest.mark.parametrize("strategy", ["exam", "exam_average_allocation", "mmd_minimize"])
    def test_round_trip_with_budget_zero_clusters(self, selection_corpus, strategy):
        store, metas = selection_corpus
        manifest = select(store, metas, strategy, SelectionConfig(budget=3, clusters=8, candidate_size=8, seed=3))[0]
        empty = [rec for rec in manifest.per_cluster if rec.budget == 0]
        assert empty and all(rec.selected_ids == () and rec.final_entropy is None for rec in empty)
        text = serialize_selection_manifest(manifest)
        parsed = parse_selection_manifest(text)
        assert serialize_selection_manifest(parsed) == text
        assert parsed.per_cluster == manifest.per_cluster

    def test_records_follow_the_cluster_lines(self, selection_corpus):
        text = _selection_text(selection_corpus)
        manifest = parse_selection_manifest(text)
        assert len(manifest.selected) == 20
        for rec in manifest.per_cluster:
            assert rec.final_entropy == (rec.entropy_trace[-1] if rec.selected_ids else None)
        records = [line.split(" ")[:3] for line in text.splitlines()[_line_index(text, "records ") + 1 :]]
        assert records == [
            [sid, str(rec.cluster_id), str(step)] for rec in manifest.per_cluster for step, sid in enumerate(rec.selected_ids)
        ]

    def test_ids_swapped_between_clusters_rejected(self, selection_corpus):
        text = _selection_text(selection_corpus)
        lines = text.splitlines()
        first = _line_index(text, "records ") + 1
        other = next(i for i in range(first, len(lines)) if lines[i].split()[1] != lines[first].split()[1])
        a, b = lines[first].split(" "), lines[other].split(" ")
        a[0], b[0] = b[0], a[0]
        lines[first], lines[other] = " ".join(a), " ".join(b)
        with pytest.raises(InputError, match=f"line {first + 1}:"):
            parse_selection_manifest("\n".join(lines) + "\n")

    @pytest.mark.parametrize("what", ["step", "final entropy", "record count", "trailing line"])
    def test_records_that_disagree_with_the_cluster_lines_rejected(self, selection_corpus, what):
        text = _selection_text(selection_corpus)
        first = _line_index(text, "records ") + 1
        cluster = _line_index(text, "cluster ")

        def restep(line):
            sid, cid, _, ent = line.split(" ")
            return f"{sid} {cid} 7 {ent}"

        def reentropy(line):
            toks = line.split(" ")
            toks[5] = "0.125"
            return " ".join(toks)

        corrupt = {
            "step": lambda: _edit_line(text, first, restep),
            "final entropy": lambda: _edit_line(text, cluster, reentropy),
            "record count": lambda: _edit_line(text, first - 1, lambda line: "records 19"),
            "trailing line": lambda: text + "s999999 0 0 -\n",
        }[what]()
        with pytest.raises(InputError, match="selection manifest line"):
            parse_selection_manifest(corrupt)

    def test_non_integer_header_value_names_the_line(self, selection_corpus):
        text = _edit_line(_selection_text(selection_corpus), 2, lambda line: "budget x")
        with pytest.raises(InputError, match="line 3: 'budget x'"):
            parse_selection_manifest(text)

    def test_header_key_without_value_names_the_line(self, selection_corpus):
        text = _edit_line(_selection_text(selection_corpus), 2, lambda line: "budget")
        with pytest.raises(InputError, match="line 3: 'budget'"):
            parse_selection_manifest(text)

    def test_repeated_header_field_names_the_line(self, selection_corpus):
        # the head line's normalize is 0; a second one must not win
        lines = _selection_text(selection_corpus).splitlines()
        assert "normalize 0" in lines
        lines.insert(1, "normalize 1")
        with pytest.raises(InputError, match=f"line {lines.index('normalize 0') + 1}: repeated header field 'normalize'"):
            parse_selection_manifest("\n".join(lines) + "\n")

    def test_record_with_three_tokens_names_the_line(self, selection_corpus):
        text = _selection_text(selection_corpus)
        first = _line_index(text, "records ") + 1
        corrupt = _edit_line(text, first, lambda line: line.rsplit(" ", 1)[0])
        with pytest.raises(InputError, match=f"line {first + 1}:"):
            parse_selection_manifest(corrupt)

    def test_cluster_line_without_entropy_names_the_line(self, selection_corpus):
        text = _selection_text(selection_corpus)
        cluster = _line_index(text, "cluster ")

        def drop_entropy(line):
            toks = line.split(" ")
            return " ".join(toks[:4] + toks[6:])

        with pytest.raises(InputError, match=f"line {cluster + 1}:"):
            parse_selection_manifest(_edit_line(text, cluster, drop_entropy))

    def test_non_utf8_file_names_the_line(self, selection_corpus, tmp_path):
        text = _selection_text(selection_corpus)
        first = _line_index(text, "records ") + 1
        raw = _edit_line(text, first, lambda line: "\udcff" + line).encode("utf-8", "surrogateescape")
        path = tmp_path / "sel.txt"
        path.write_bytes(raw)
        with pytest.raises(InputError, match=f"line {first + 1} is not UTF-8"):
            load_selection_manifest(path)

    def test_repeated_cluster_id_rejected(self, selection_corpus):
        text = _selection_text(selection_corpus)
        lines = text.splitlines()
        first = _line_index(text, "cluster ")
        a, b = (lines[first + i].split(" ")[1] for i in range(2))
        lines[first + 1] = lines[first + 1].replace(f"cluster {b} ", f"cluster {a} ", 1)
        records = _line_index(text, "records ") + 1
        for i in range(records, len(lines)):
            sid, cid, step, ent = lines[i].split(" ")
            if cid == b:
                lines[i] = f"{sid} {a} {step} {ent}"
        with pytest.raises(InputError, match="cluster ids are not unique"):
            parse_selection_manifest("\n".join(lines) + "\n")

    def test_more_ids_than_budget_rejected(self, selection_corpus):
        # the budgets still sum to the header budget
        text = _rebudget(_selection_text(selection_corpus), [-1, 1])
        with pytest.raises(InputError, match="exceed budget"):
            parse_selection_manifest(text)

    def test_fewer_ids_than_budget_rejected(self, selection_corpus):
        # the first cluster loses its last id and record; its cluster line
        # ends on the previous record's entropy and the record count drops,
        # so only the shortfall is wrong
        text = _selection_text(selection_corpus)
        lines = text.splitlines()
        cluster, records = _line_index(text, "cluster "), _line_index(text, "records ")
        toks = lines[cluster].split(" ")
        n = len(toks) - 7
        assert n >= 2
        toks[5] = lines[records + n - 1].split(" ")[3]
        lines[cluster] = " ".join(toks[:-1])
        lines[records] = f"records {int(lines[records].split(' ')[1]) - 1}"
        del lines[records + n]
        with pytest.raises(InputError, match=f"cluster {toks[1]}: {n - 1} ids fall short of budget {toks[3]}"):
            parse_selection_manifest("\n".join(lines) + "\n")

    def test_budgets_not_summing_to_the_header_budget_rejected(self, selection_corpus):
        text = _rebudget(_selection_text(selection_corpus), [1])
        with pytest.raises(InputError, match="do not sum to the budget 20"):
            parse_selection_manifest(text)

    def test_normalize_other_than_0_or_1_rejected(self, selection_corpus):
        text = _selection_text(selection_corpus)
        index = _line_index(text, "normalize ")
        with pytest.raises(InputError, match=f"line {index + 1}: 'normalize 2'"):
            parse_selection_manifest(_edit_line(text, index, lambda line: "normalize 2"))

    def test_bins_below_1_rejected(self, selection_corpus):
        store, metas = selection_corpus
        cfg = SelectionConfig(budget=20, clusters=4, candidate_size=8, seed=3)
        text = serialize_selection_manifest(select(store, metas, "ccs", cfg, bins=7)[0])
        corrupt = _edit_line(text, _line_index(text, "bins "), lambda line: "bins -3")
        with pytest.raises(InputError, match="bins must be >= 1"):
            parse_selection_manifest(corrupt)


def _rebudget(text, deltas):
    """``text`` with ``deltas[i]`` added to the budget of its i-th cluster line."""

    def edit(line, delta):
        toks = line.split(" ")
        toks[3] = str(int(toks[3]) + delta)
        return " ".join(toks)

    first = _line_index(text, "cluster ")
    for i, delta in enumerate(deltas):
        text = _edit_line(text, first + i, lambda line: edit(line, delta))
    return text

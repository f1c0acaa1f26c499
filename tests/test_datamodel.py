"""Data types, file formats, and the synthetic generator."""

import copy
import dataclasses
import json
import math
import pickle
import tracemalloc

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
    perplexity_from_nlls,
    resolve_ppls,
    serialize_selection_manifest,
    write_embedding_store,
    write_sample_manifest,
    write_selection_manifest,
)
from egms.datamodel import _SampleTable, _load_sample_table, _store_rows
from egms.sampler import _score_vector, select


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

    def test_value_past_float32_range_writes_no_file(self, tmp_path):
        path = tmp_path / "e.bin"
        with pytest.raises(InputError, match="embedding row 2 has a value past float32's range"):
            write_embedding_store(path, EmbeddingStore([[1.0], [3.4e38], [3.5e38]]))
        assert not path.exists()

    def test_store_rejects_nonfinite(self):
        with pytest.raises(InputError, match="non-finite"):
            EmbeddingStore(np.array([[1.0, np.inf]]))

    def test_load_peaks_under_6_bytes_a_value(self, tmp_path):
        # the payload is read into the store's own float32 array, with no
        # whole-file bytes copy: 4 bytes a value plus a 1-byte finiteness mask
        n, d = 20_000, 64
        path = tmp_path / "e.bin"
        write_embedding_store(path, EmbeddingStore(np.full((n, d), 0.5, dtype=np.float32)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            store = load_embedding_store(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert store.data.dtype == np.float32 and not store.data.flags.writeable
        assert (store.data == 0.5).all()
        assert peak / (n * d) < 6


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
            for at in range(4):  # a NaN after the first value hides from min()
                nlls = [0.5, 2.0, 0.0, 1.0]
                nlls[at] = bad
                with pytest.raises(InputError, match="nlls"):
                    SampleMeta(id="a", nlls=tuple(nlls))

    def test_finite_nlls_whose_sum_overflows_accepted(self):
        meta = SampleMeta(id="a", nlls=(1e308, 0.0, 1e308))
        assert meta.nlls == (1e308, 0.0, 1e308)

    def test_copy_pickle_and_replace_keep_the_record(self):
        meta = SampleMeta(id="a", nlls=(0.5, 1.0), ppl=2.0, score=-1.0)
        assert not hasattr(meta, "__dict__")  # slots: no per-record dict
        assert copy.copy(meta) == meta
        assert copy.deepcopy(meta) == meta
        assert pickle.loads(pickle.dumps(meta)) == meta
        assert dataclasses.replace(meta, score=3.0) == SampleMeta(id="a", nlls=(0.5, 1.0), ppl=2.0, score=3.0)
        with pytest.raises(InputError, match="nlls"):
            dataclasses.replace(meta, nlls=(0.5, -1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            meta.score = 3.0

    def test_nlls_read_as_the_tuple_of_their_values(self):
        meta = SampleMeta(id="a", nlls=[0.5, 1, 2.25])
        assert meta.nlls == (0.5, 1.0, 2.25) and (0.5, 1.0, 2.25) == meta.nlls
        assert meta.nlls != [0.5, 1.0, 2.25] and meta.nlls != (0.5, 1.0)  # as the tuple compares
        assert hash(meta.nlls) == hash((0.5, 1.0, 2.25))
        assert repr(meta.nlls) == "(0.5, 1.0, 2.25)"
        assert len(meta.nlls) == 3 and meta.nlls[-1] == 2.25 and meta.nlls[1:] == (1.0, 2.25)
        assert list(meta.nlls) == [0.5, 1.0, 2.25] and 1.0 in meta.nlls
        for other in (copy.copy(meta), copy.deepcopy(meta), pickle.loads(pickle.dumps(meta)), dataclasses.replace(meta)):
            assert other == meta and hash(other) == hash(meta) and other.nlls == (0.5, 1.0, 2.25)
        with pytest.raises(TypeError):
            meta.nlls[0] = -1.0
        arr = np.asarray(meta.nlls)
        assert arr.dtype == np.float64 and arr.tolist() == [0.5, 1.0, 2.25]

    def test_nlls_keep_negative_zero(self, tmp_path):
        meta = SampleMeta(id="a", nlls=(-0.0, 1.0))
        assert math.copysign(1.0, meta.nlls[0]) == -1.0
        path = tmp_path / "m.jsonl"
        path.write_text('{"id":"a","nlls":[-0.0,1.0]}\n')
        write_sample_manifest(tmp_path / "out.jsonl", load_sample_manifest(path))
        assert (tmp_path / "out.jsonl").read_text() == path.read_text()

    def test_load_and_write_reproduce_a_synthetic_manifest(self, tmp_path):
        _, metas = gen_synthetic(300, 2, 3, 1.0, seed=5)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_sample_manifest(first, metas)
        write_sample_manifest(second, load_sample_manifest(first))
        assert second.read_bytes() == first.read_bytes()


def _reference_load(path) -> list[SampleMeta]:
    """The sample manifest loader as one SampleMeta a line, the reference for the columnar table."""
    metas, seen = [], {}
    for lineno, line in enumerate(path.read_bytes().decode("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise InputError(f"malformed line {lineno}: {exc}") from exc
        if not isinstance(rec, dict) or "id" not in rec:
            raise InputError(f"malformed line {lineno}: missing required id field")
        sid, nlls, ppl, score = rec["id"], rec.get("nlls"), rec.get("ppl"), rec.get("score")
        if type(sid) not in (str, int):
            raise InputError(f"malformed line {lineno}: id must be a string or an integer, got {sid!r}")
        if nlls is not None and not (type(nlls) is list and {int, float}.issuperset(map(type, nlls))):
            raise InputError(f"malformed line {lineno}: nlls must be an array of numbers")
        for name, v in (("ppl", ppl), ("score", score)):
            if v is not None and type(v) not in (int, float):
                raise InputError(f"malformed line {lineno}: {name} must be a number, got {v!r}")
        try:
            meta = SampleMeta(str(sid), nlls, ppl, score)
        except (InputError, OverflowError) as exc:
            raise InputError(f"malformed line {lineno}: {exc}") from exc
        if meta.id in seen:
            raise InputError(f"duplicate id {meta.id!r} on lines {seen[meta.id]} and {lineno}")
        seen[meta.id] = lineno
        metas.append(meta)
    return metas


def _reference_ppls(metas) -> np.ndarray:
    """Per-record perplexities of the records, one record at a time."""
    out = []
    for i, meta in enumerate(metas):
        if meta.ppl is not None:
            out.append(meta.ppl)
        elif meta.nlls is None:
            raise InputError(f"sample {meta.id!r} (row {i}) has neither ppl nor nlls")
        else:
            try:
                out.append(perplexity_from_nlls(list(meta.nlls)))
            except InputError as exc:
                raise InputError(f"sample {meta.id!r} (row {i}): {exc}") from None
    return np.array(out, dtype=np.float64)


def _reference_scores(metas) -> np.ndarray:
    """The score baselines' input, one record at a time: every score when all are present, else the ppls."""
    if all(meta.score is not None for meta in metas):
        return np.array([meta.score for meta in metas], dtype=np.float64)
    try:
        return _reference_ppls(metas)
    except InputError as exc:
        raise InputError(f"strategy needs a score or ppl for every sample: {exc}") from exc


def _outcome(fn):
    """``fn()``'s result, or the text of the InputError it raises."""
    try:
        return fn()
    except InputError as exc:
        return f"InputError: {exc}"


_NLLS = st.one_of(
    st.none(),
    st.just([]),  # empty: loads, but has no perplexity
    st.just([800.0, 800]),  # finite, but exp of the mean overflows
    *[st.lists(st.one_of(st.floats(0.0, 4.0), st.integers(0, 3)), min_size=1, max_size=5)] * 3,
)
_RECORD = st.fixed_dictionaries(
    {},
    optional={
        "nlls": _NLLS,
        "ppl": st.one_of(st.none(), st.floats(0.5, 50.0), st.integers(1, 9)),
        "score": st.one_of(st.none(), st.floats(-5.0, 5.0), st.integers(-2, 2)),
    },
)


@settings(max_examples=80, deadline=None)
@given(
    records=st.lists(st.one_of(*[_RECORD] * 4, st.sampled_from(["", "  "])), min_size=3, max_size=12),
    integer_ids=st.booleans(),
    duplicate=st.one_of(st.none(), st.none(), st.integers(1, 11)),
    kind=st.sampled_from(["any", "ppl", "nlls", "both"]),
    seed=st.integers(0, 2**16),
)
@example(records=[{"ppl": 2.0}, {"nlls": []}, {"ppl": 3}], integer_ids=False, duplicate=None, kind="any", seed=0)
@example(records=[{"nlls": [800.0, 800]}, "", {"score": 1.5}], integer_ids=True, duplicate=None, kind="any", seed=1)
@example(records=[{"ppl": 2}, "  ", {}, {"ppl": 3}], integer_ids=True, duplicate=3, kind="ppl", seed=2)
@example(records=[{"score": 1.0}, {}, {"score": -1}], integer_ids=False, duplicate=None, kind="ppl", seed=3)
def test_the_sample_table_and_the_records_agree(tmp_path_factory, records, integer_ids, duplicate, kind, seed):
    # the CLI's columnar table and the records of load_sample_manifest give
    # the same records, perplexity bits, score-baseline input and
    # selections as the reference loader's records, or fail with the same
    # error text. A record is a
    # blank line or a JSON object whose id is its position, an integer or a
    # string; record ``duplicate`` takes the id of record 0. Kinds other
    # than "any" give every record a ppl, NLLs or both, and only those.
    lines = []
    for k, rec in enumerate(records):
        if isinstance(rec, str):
            lines.append(rec)
            continue
        sid = 0 if k == duplicate else k
        rec = {"id": sid if integer_ids else f"s{sid}", **rec}
        if kind in ("ppl", "both") and rec.get("ppl") is None:
            rec["ppl"] = 2.5
        if kind in ("nlls", "both") and rec.get("nlls") is None:
            rec["nlls"] = [0.5]
        rec.pop({"ppl": "nlls", "nlls": "ppl"}.get(kind, ""), None)
        lines.append(json.dumps(rec))
    path = tmp_path_factory.mktemp("table") / "m.jsonl"
    path.write_text("\n".join(lines) + "\n")
    reference = _outcome(lambda: _reference_load(path))
    assert _outcome(lambda: load_sample_manifest(path)) == reference
    table = _outcome(lambda: _load_sample_table(path))
    if isinstance(reference, str):
        assert table == reference
        return
    # column for column against the table of the reference records, NaN and -0.0 by their bits
    expected = _SampleTable.of(reference)
    assert table.ids == expected.ids and table.id_offs.tolist() == expected.id_offs.tolist()
    for name in ("ppl", "score", "nlls"):
        assert getattr(table, name).tobytes() == getattr(expected, name).tobytes(), name
    for name in ("nll_offs", "has_nlls"):
        got, want = getattr(table, name), getattr(expected, name)
        assert (got is None and want is None) or got.tolist() == want.tolist(), name
    assert repr(_outcome(lambda: resolve_ppls(table).tobytes())) == repr(
        _outcome(lambda: _reference_ppls(reference).tobytes())
    )
    assert repr(_outcome(lambda: _score_vector(table).tobytes())) == repr(
        _outcome(lambda: _reference_scores(reference).tobytes())
    )
    store = EmbeddingStore(np.random.default_rng(seed).normal(size=(max(len(reference), 1), 2)))
    config = SelectionConfig(budget=2, clusters=2, candidate_size=3, tail_low=0.1, tail_high=0.1, seed=seed)
    for strategy in ("exam",) + STRATEGIES:
        def text(metas):
            return lambda: serialize_selection_manifest(select(store, metas, strategy, config, bins=3)[0])

        assert _outcome(text(table)) == _outcome(text(reference)), strategy


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


class TestL2Normalized:
    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e-160, 1e-170, 1e-300, 1e-320])
    def test_rows_of_any_finite_scale_normalize(self, scale):
        rng = np.random.default_rng(3)
        plain = rng.standard_normal((6, 5))
        odd = np.array([[3.0, -4.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 2.0]]) * scale
        unit = EmbeddingStore(np.vstack([plain[:3], odd, plain[3:]])).l2_normalized().data
        rest = np.vstack([unit[:3], unit[5:]])
        # every row whose sum of squares is a normal float keeps its bits
        assert np.array_equal(rest, plain / np.linalg.norm(plain, axis=1, keepdims=True))
        direction = odd / np.abs(odd).max(axis=1, keepdims=True)
        assert np.allclose(unit[3:5], direction / np.linalg.norm(direction, axis=1, keepdims=True), rtol=1e-15, atol=0)
        assert np.allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=1e-15, atol=0)

    def test_zero_row_still_rejected(self):
        with pytest.raises(InputError, match="cannot L2-normalize zero embedding row 2"):
            EmbeddingStore([[1e-320, 0.0], [1e300, 1.0], [0.0, -0.0]]).l2_normalized()


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
        store, _ = gen_synthetic(1000, 8, 10, 1.0, seed=1)
        labels = np.rint(np.linalg.norm(store.data, axis=1) / 20.0) - 1  # blob j's shell has radius 20 (j + 1)
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


@pytest.fixture(scope="module")
def canonical_manifests(selection_corpus):
    """Canonical texts to edit: ``exam``, ``ccs`` with its ``bins`` line and ``-`` entropies, and budget-0 clusters."""
    store, metas = selection_corpus
    cfg = SelectionConfig(budget=20, clusters=4, candidate_size=8, seed=3)
    return [
        _selection_text(selection_corpus),
        serialize_selection_manifest(select(store, metas, "ccs", cfg, bins=7)[0]),
        serialize_selection_manifest(select(store, metas, "exam", SelectionConfig(budget=3, clusters=8, seed=3))[0]),
    ]


def _one_line_edit(text, edit, i, j, token):
    """``text`` with one line edited: a token replaced, two lines swapped, a line duplicated or deleted.

    ``i`` picks the line (modulo the line count); ``j`` picks the token of
    the line, or the other line of a swap or the place of a duplicate. The
    new token is ``token.format(old)``, so ``'0{}'`` re-spells ``20`` as
    ``020`` and ``'{}0'`` re-spells ``0.5`` as ``0.50``.
    """
    lines = text.splitlines()
    i %= len(lines)
    if edit == "token":
        toks = lines[i].split(" ")
        toks[j % len(toks)] = token.format(toks[j % len(toks)])
        lines[i] = " ".join(toks)
    elif edit == "swap":
        j %= len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "duplicate":
        lines.insert(j % (len(lines) + 1), lines[i])
    else:
        del lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(
    source=st.integers(0, 2),
    edit=st.sampled_from(["token", "swap", "duplicate", "delete"]),
    i=st.integers(0, 10**6),
    j=st.integers(0, 10**6),
    token=st.sampled_from(["0{}", "+{}", "{}0", "0", "1", "-1", "7", "-", "", "0.125", "nan", "ids", "s000001", "s999999"]),
)
@example(source=0, edit="token", i=5, j=1, token="{}0")  # 'sigma 0.5' as 'sigma 0.50'
@example(source=0, edit="token", i=2, j=1, token="0{}")  # 'budget 20' as 'budget 020'
@example(source=0, edit="swap", i=2, j=3, token="")  # the budget and clusters lines out of order
def test_a_manifest_loads_only_as_its_canonical_text(canonical_manifests, source, edit, i, j, token):
    text = _one_line_edit(canonical_manifests[source], edit, i, j, token)
    try:
        manifest = parse_selection_manifest(text)
    except InputError:
        return
    assert serialize_selection_manifest(manifest) == text


def _first_entropy(value):
    """Edit of the first record line, step 0 of a multi-sample cluster, whose entropy no other line repeats."""
    return "records", 1, lambda line: " ".join(line.split(" ")[:3] + [value])


@pytest.mark.parametrize(
    "where, match",
    [
        (("strategy ", 0, lambda line: "strategy no such strategy"), "unknown strategy 'no such strategy'"),
        (_first_entropy("nan"), "entropies must be finite and >= 0"),
        (_first_entropy("inf"), "entropies must be finite and >= 0"),
        (_first_entropy("-3.5"), "entropies must be finite and >= 0"),
    ],
    ids=["strategy", "nan", "inf", "negative"],
)
def test_a_manifest_no_run_can_write_is_rejected(selection_corpus, where, match):
    """The edited texts are canonical: only the strategy rule and the entropy rule reject them."""
    prefix, offset, edit = where
    text = _selection_text(selection_corpus)
    index = _line_index(text, prefix) + offset
    edited = _edit_line(text, index, edit)
    assert edited != text
    with pytest.raises(InputError, match=match):
        parse_selection_manifest(edited)


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

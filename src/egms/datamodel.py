"""Core data types, on-disk formats, and deterministic synthetic data.

File formats owned by this module:

* Embedding file (binary, little-endian): magic ``EGMS``, version u16 = 1,
  count u64, dim u32, then count*dim float32 values row-major, no padding.
* Sample manifest: UTF-8 JSON lines, one record per sample with fields
  ``id`` (required string or integer), ``nlls`` (optional array of
  nonnegative reals), ``ppl`` (optional positive real), ``score``
  (optional real).
* Selection manifest: line-structured text with a header block (config
  echo, seed, filtered-out ids, per-cluster summary) followed by one
  record per selected sample, ``id cluster step entropy``, grouped by
  cluster in summary order. A text loads only if it is, line for line, the
  serialization of the manifest it describes.

Values are stored as float32 on disk and stay float32 in memory, 4 bytes
a value; every read widens its rows exactly to float64 first, so all
downstream distance, kernel and eigenvalue math runs in float64.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError

_MAGIC = b"EGMS"
_VERSION = 1
_HEADER = struct.Struct("<4sHQI")  # magic, version, count, dim
# the comparison baselines of egms.sampler.select
STRATEGIES = ("random", "mid_score", "ccs", "exam_average_allocation", "mmd_minimize")


@dataclass(frozen=True, eq=False)
class EmbeddingStore:
    """Immutable dense matrix of per-sample embedding vectors.

    ``data`` is a (count, dim) array; every value must be finite. float32
    input stays float32, 4 bytes a value, as :func:`load_embedding_store`
    hands it over; any other input becomes float64. Readers widen rows of
    a float32 store exactly to float64 before any arithmetic (see
    :func:`egms.clustering._sq_dist`), so both dtypes of the same values
    give the same bits everywhere. Safe to share read-only across worker
    threads.
    """

    data: np.ndarray

    def __post_init__(self):
        src = np.asarray(self.data)
        arr = np.array(src, dtype=np.float32 if src.dtype.type is np.float32 else np.float64, order="C")
        if arr.ndim != 2:
            raise InputError(f"embedding data must be 2-D, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise InputError("embedding dim must be >= 1")
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
            raise InputError(f"non-finite embedding value in row {bad}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def l2_normalized(self) -> "EmbeddingStore":
        """Return a copy with unit-norm rows (opt-in preprocessing).

        A row whose sum of squares is 0, subnormal or infinite is first
        divided by its largest absolute value, so rows of any finite scale
        normalize; every other row is divided by its plain norm. A row of
        zeros is an error.
        """
        unit = self.data.astype(np.float64)  # exact; the math and the result are float64
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # such rows are redone below
            norms = np.linalg.norm(unit, axis=1, keepdims=True)
            unit /= norms
        # sqrt(2^-1022): below it the sum of squares was subnormal or 0
        odd = np.flatnonzero(~((norms[:, 0] >= 2.0**-511) & (norms[:, 0] < np.inf)))
        if odd.size:
            rows = self.data[odd].astype(np.float64)
            peak = np.abs(rows).max(axis=1, keepdims=True)
            zero = odd[peak[:, 0] == 0]
            if zero.size:
                raise InputError(f"cannot L2-normalize zero embedding row {int(zero[0])}")
            scaled = rows / peak
            unit[odd] = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
        return EmbeddingStore(unit)


# SeedSequence stream tags: each consumer of a run seed draws from its own generator lineage
_KMEANS_STREAM, _CLUSTER_STREAM, _GLOBAL_STREAM = 1, 2, 3


def _stream_rng(seed: int, *tags: int) -> np.random.Generator:
    """The generator of a run seed's stream ``tags``: SeedSequence entropy ``[seed, *tags]``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), *map(int, tags)]))


def _as_int(value, name: str) -> int:
    """Integer argument rule: a Python or numpy integer, not a bool, returned as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """A real number argument: a Python or numpy int or float, not a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_sigma(sigma: float) -> None:
    """Kernel bandwidth rule: a finite real > 0, and 2*sigma^2 representable."""
    if not (_is_real(sigma) and sigma > 0 and math.isfinite(sigma)):
        raise InputError(f"sigma must be finite and > 0, got {sigma!r}")
    if 2.0 * sigma * sigma == 0.0:
        raise InputError(f"sigma {sigma!r} is too small: 2*sigma^2 underflows to 0")


def _check_strategy(strategy: str) -> None:
    """A selection's strategy: ``"exam"``, the pipeline, or a baseline of :data:`STRATEGIES`."""
    if strategy not in ("exam",) + STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}, expected one of {('exam',) + STRATEGIES}")


class _PackedFloats(Sequence):
    """An immutable sequence of float64 values packed in one ``bytes``: 8 bytes a value.

    It reads as the tuple of its values: it compares equal to that tuple,
    hashes and prints as it does, and a slice of it is a tuple. ``np.asarray``
    views the buffer with no copy, read-only.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: bytes):
        self._raw = raw  # native-endian float64 values, as struct's "d" packs them

    def _view(self) -> memoryview:
        return memoryview(self._raw).cast("d")

    def __len__(self) -> int:
        return len(self._raw) // 8

    def __getitem__(self, index):
        item = self._view()[index]
        return tuple(item) if isinstance(index, slice) else item

    def __iter__(self):
        return iter(self._view())

    def __eq__(self, other):
        if isinstance(other, _PackedFloats):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        view = np.frombuffer(self._raw, dtype=np.float64)
        return view.astype(view.dtype if dtype is None else dtype, copy=bool(copy))

    def __reduce__(self):
        return type(self), (self._raw,)


@dataclass(frozen=True, slots=True)
class SampleMeta:
    """Per-sample identity plus optional difficulty signals.

    ``nlls`` holds per-token negative log-likelihoods in nats, packed as
    float64 at 8 bytes a token: an immutable sequence that equals, hashes
    and prints as the tuple of its values, and that ``np.asarray`` reads
    with no copy. ``ppl`` is a precomputed perplexity; ``score`` is a
    generic difficulty score used by the score-based baseline strategies.
    """

    id: str
    nlls: Sequence[float] | None = None
    ppl: float | None = None
    score: float | None = None

    def __post_init__(self):
        if self.id.split() != [self.id]:  # empty, or has whitespace
            raise InputError(f"sample id must be non-empty without whitespace, got {self.id!r}")
        if self.nlls is not None and not isinstance(self.nlls, _PackedFloats):  # packed ones were checked
            vals = list(map(float, self.nlls))
            # a finite sum rules out NaN and inf, so min can be trusted; an
            # empty list or an overflowing sum takes the per-value check
            fast = vals and min(vals) >= 0.0 and math.isfinite(sum(vals))
            if not fast and not all(0.0 <= v < math.inf for v in vals):
                raise InputError(f"sample {self.id}: nlls must be finite and >= 0")
            object.__setattr__(self, "nlls", _PackedFloats(struct.pack(f"{len(vals)}d", *vals)))
        if self.ppl is not None:
            p = float(self.ppl)
            if not math.isfinite(p) or p <= 0:
                raise InputError(f"sample {self.id}: ppl must be finite and positive")
            object.__setattr__(self, "ppl", p)
        if self.score is not None:
            s = float(self.score)
            if not math.isfinite(s):
                raise InputError(f"sample {self.id}: score must be finite")
            object.__setattr__(self, "score", s)


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs of the selection pipeline.

    ``budget`` is the total number of samples to select, ``clusters`` the
    K-means cluster count, ``candidate_size`` the per-step random candidate
    pool, ``sigma`` the Gaussian kernel bandwidth, ``tail_low``/``tail_high``
    the perplexity tail fractions removed before selection, and ``workers``
    the number of threads that sample clusters in parallel. ``normalize``
    opts in to L2 normalization of embeddings before any distance
    computation.
    """

    budget: int
    clusters: int = 1000
    candidate_size: int = 100
    sigma: float = 0.5
    tail_low: float = 0.05
    tail_high: float = 0.05
    seed: int = 0
    workers: int = 1
    normalize: bool = False

    def __post_init__(self):
        for name in ("budget", "clusters", "candidate_size", "seed", "workers"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if not isinstance(self.normalize, (bool, np.bool_)):
            raise InputError(f"normalize must be a bool, got {self.normalize!r}")
        object.__setattr__(self, "normalize", bool(self.normalize))
        if self.budget < 1:
            raise InputError("budget must be >= 1")
        if self.clusters < 1:
            raise InputError("clusters must be >= 1")
        if self.candidate_size < 1:
            raise InputError("candidate_size must be >= 1")
        _check_sigma(self.sigma)
        for name in ("tail_low", "tail_high"):
            v = getattr(self, name)
            if not (_is_real(v) and 0 <= v < 0.5):
                raise InputError(f"{name} must be a real number in [0, 0.5), got {v!r}")
        if not (0 <= self.seed < 2**64):
            raise InputError("seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise InputError("workers must be >= 1")


@dataclass(frozen=True)
class ClusterRecord:
    """One cluster's selection in acceptance order: the only stored copy of it.

    It holds at most ``budget`` ids. ``entropy_trace[t]``, when the
    strategy records entropy, is the set entropy of ``selected_ids[: t + 1]``;
    it is None otherwise and for a cluster that selected nothing. Every
    entry is finite and >= 0, as a computed entropy is. ``final_entropy``
    is its last entry.
    """

    cluster_id: int
    budget: int
    selected_ids: tuple[str, ...]
    entropy_trace: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.selected_ids) > self.budget:
            raise InputError(f"cluster {self.cluster_id}: {len(self.selected_ids)} ids exceed budget {self.budget}")
        if self.entropy_trace is not None and len(self.entropy_trace) != len(self.selected_ids):
            raise InputError(f"cluster {self.cluster_id}: entropy trace must align with selected ids")
        # a computed entropy is 0.0 - sum(lam ln lam) over eigenvalues clamped
        # into {0} | [1e-12, 1]: every term is <= 0, so the entropy is >= +0.0
        if self.entropy_trace is not None and not all(0.0 <= e < math.inf for e in self.entropy_trace):
            raise InputError(f"cluster {self.cluster_id}: entropies must be finite and >= 0")

    @property
    def final_entropy(self) -> float | None:
        return self.entropy_trace[-1] if self.entropy_trace else None


@dataclass(frozen=True)
class SelectionManifest:
    """Ordered selection with full provenance, stored as per-cluster records.

    ``selected`` reads the ids of the records in ``per_cluster`` order.
    The strategy is ``"exam"`` or one of :data:`STRATEGIES`. Cluster ids
    are unique, the cluster budgets sum to ``config.budget``,
    each cluster holds exactly its budget of ids and ``bins``, when set,
    is >= 1. Serialization is byte-identical for identical inputs and seed
    at a fixed BLAS thread count; once a cluster's selection reaches about
    150 samples, the eigensolvers' rounding can depend on that count.
    """

    config: SelectionConfig
    strategy: str
    per_cluster: tuple[ClusterRecord, ...]
    filtered_out: tuple[str, ...]
    bins: int | None = None

    def __post_init__(self):
        _check_strategy(self.strategy)
        if len({rec.cluster_id for rec in self.per_cluster}) != len(self.per_cluster):
            raise InputError("cluster ids are not unique")
        if sum(rec.budget for rec in self.per_cluster) != self.config.budget:
            raise InputError(f"cluster budgets do not sum to the budget {self.config.budget}")
        for rec in self.per_cluster:
            if len(rec.selected_ids) < rec.budget:
                raise InputError(f"cluster {rec.cluster_id}: {len(rec.selected_ids)} ids fall short of budget {rec.budget}")
        if self.bins is not None and self.bins < 1:
            raise InputError("bins must be >= 1")
        if len(set(self.selected)) != len(self.selected):
            raise InputError("selected ids are not unique")
        if len({rec.entropy_trace is None for rec in self.per_cluster if rec.selected_ids}) > 1:
            raise InputError("entropy traces must be recorded for every cluster or for none")

    @cached_property
    def selected(self) -> tuple[str, ...]:
        return tuple(sid for rec in self.per_cluster for sid in rec.selected_ids)


def _store_rows(store: EmbeddingStore, rows, what: str) -> np.ndarray:
    """``rows`` as int64 store rows in the given order: nonempty, integer, in [0, store.count), distinct.

    The errors name ``what``, the caller's argument as a singular noun. A
    float or boolean array is an error, not a truncated or 0/1 index list.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        raise InputError(f"{what}s must be nonempty")
    if rows.dtype.kind not in "iu":
        raise InputError(f"{what}s must be integers, got {rows.dtype}")
    rows = rows.astype(np.int64, copy=False).ravel()
    if rows.min() < 0 or rows.max() >= store.count:
        raise InputError(f"{what} out of range [0, {store.count})")
    if np.unique(rows).size != rows.size:
        raise InputError(f"{what}s must be distinct")
    return rows


def _read(path, what: str) -> bytes:
    """The bytes of an input file; a file that cannot be read is an InputError naming ``what``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _read_text(path, what: str) -> str:
    """A UTF-8 input file as text; an undecodable byte is an InputError naming its line."""
    raw = _read(path, what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before it decode; number its line as splitlines does, like the loaders
        line = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise InputError(f"{what} {path} line {line} is not UTF-8: {exc.reason}") from exc


# ---------------------------------------------------------------------------
# Embedding file io
# ---------------------------------------------------------------------------


def write_embedding_store(path, store: EmbeddingStore) -> None:
    """Write a store in the binary EGMS format (float32 payload).

    A value past float32's range is an InputError naming its row, and no
    file is written.
    """
    with np.errstate(over="ignore"):  # an overflow is the error below
        payload = np.ascontiguousarray(store.data, dtype="<f4")
    if not np.isfinite(payload).all():
        row = int(np.flatnonzero(~np.isfinite(payload).all(axis=1))[0])
        raise InputError(f"embedding row {row} has a value past float32's range")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, store.count, store.dim))
        fh.write(payload.tobytes())


def load_embedding_store(path) -> EmbeddingStore:
    """Read a binary EGMS embedding file, validating every value.

    Errors report the byte offset of the problem: bad magic, unsupported
    version, truncated payload, or a non-finite value.
    """
    raw = _read(path, "embedding file")
    if len(raw) < _HEADER.size:
        raise InputError(f"truncated header: {len(raw)} bytes, need {_HEADER.size} (byte offset 0)")
    magic, version, count, dim = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise InputError(f"bad magic {magic!r} at byte offset 0, expected {_MAGIC!r}")
    if version != _VERSION:
        raise InputError(f"unsupported version {version} at byte offset 4")
    if dim < 1:
        raise InputError("dim must be >= 1 (byte offset 14)")
    expected = count * dim * 4
    got = len(raw) - _HEADER.size
    if got != expected:
        raise InputError(
            f"truncated payload: expected {expected} bytes after header, got {got} "
            f"(byte offset {len(raw)})"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(count, dim)
    if not np.isfinite(values).all():
        flat = int(np.flatnonzero(~np.isfinite(values.ravel()))[0])
        row = flat // dim
        offset = _HEADER.size + flat * 4
        raise InputError(f"non-finite value in row {row} (byte offset {offset})")
    return EmbeddingStore(values)  # one float32 copy: 4 bytes a value


# ---------------------------------------------------------------------------
# Sample manifest io (JSON lines)
# ---------------------------------------------------------------------------


def load_sample_manifest(path) -> list[SampleMeta]:
    """Parse a JSONL sample manifest in file order.

    File order is the authoritative alignment with embedding rows; the
    selection driver checks that the counts match. Ids are checked unique
    (the error names both offending lines).
    """
    metas: list[SampleMeta] = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(_read_text(path, "sample manifest").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
            raise InputError(f"malformed line {lineno}: {exc}") from exc
        if not isinstance(rec, dict) or "id" not in rec:
            raise InputError(f"malformed line {lineno}: missing required id field")
        # JSON gives exact types, so type() keeps bools out of the numbers
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
        except (InputError, OverflowError) as exc:  # OverflowError: an integer too large for a float
            raise InputError(f"malformed line {lineno}: {exc}") from exc
        if meta.id in seen:
            raise InputError(f"duplicate id {meta.id!r} on lines {seen[meta.id]} and {lineno}")
        seen[meta.id] = lineno
        metas.append(meta)
    return metas


def write_sample_manifest(path, metas: list[SampleMeta]) -> None:
    """Write metas as JSON lines, one record per sample, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for meta in metas:
            rec: dict = {"id": meta.id}
            if meta.nlls is not None:
                rec["nlls"] = list(meta.nlls)
            if meta.ppl is not None:
                rec["ppl"] = meta.ppl
            if meta.score is not None:
                rec["score"] = meta.score
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Selection manifest serialization
# ---------------------------------------------------------------------------

_MANIFEST_HEAD = "egms-manifest v1"


def _fmt_float(x: float | None) -> str:
    return "-" if x is None else repr(float(x))


def _parse_float(tok: str) -> float | None:
    return None if tok == "-" else float(tok)


# The header's config lines in order: key, SelectionConfig field, formatter,
# parser. The worker count is an execution detail, not a selection
# parameter: results are invariant to it, and serialized bytes must be too.
_CONFIG_LINES = (
    ("budget", "budget", str, int),
    ("clusters", "clusters", str, int),
    ("candidates", "candidate_size", str, int),
    ("sigma", "sigma", _fmt_float, float),
    ("tail_low", "tail_low", _fmt_float, float),
    ("tail_high", "tail_high", _fmt_float, float),
    ("seed", "seed", str, int),
    ("normalize", "normalize", lambda flag: str(int(flag)), lambda tok: bool(int(tok))),
)


def serialize_selection_manifest(manifest: SelectionManifest) -> str:
    """Render a manifest to its canonical, byte-stable text form."""
    lines = [_MANIFEST_HEAD, f"strategy {manifest.strategy}"]
    lines += [f"{key} {fmt(getattr(manifest.config, field))}" for key, field, fmt, _ in _CONFIG_LINES]
    if manifest.bins is not None:
        lines.append(f"bins {manifest.bins}")
    lines.append(" ".join(["filtered_out", str(len(manifest.filtered_out)), *manifest.filtered_out]))
    lines.append(f"per_cluster {len(manifest.per_cluster)}")
    for rec in manifest.per_cluster:
        head = f"cluster {rec.cluster_id} budget {rec.budget} entropy {_fmt_float(rec.final_entropy)} ids"
        lines.append(" ".join([head, *rec.selected_ids]))
    lines.append(f"records {len(manifest.selected)}")
    for rec in manifest.per_cluster:
        trace = rec.entropy_trace or (None,) * len(rec.selected_ids)
        for step, (sid, entropy) in enumerate(zip(rec.selected_ids, trace)):
            lines.append(f"{sid} {rec.cluster_id} {step} {_fmt_float(entropy)}")
    return "\n".join(lines) + "\n"


def write_selection_manifest(path, manifest: SelectionManifest) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_selection_manifest(manifest).encode("utf-8"))


def parse_selection_manifest(text: str) -> SelectionManifest:
    """Inverse of :func:`serialize_selection_manifest`.

    Reads the header, the filtered-out ids, the cluster lines and the
    entropy of each record, and builds the manifest they describe, whose
    types check their own invariants. The text must then be that
    manifest's serialization, line for line. A malformed line, or the first
    line that differs from the serialization, is an InputError naming it.
    """
    lines = text.splitlines()
    if not lines or lines[0] != _MANIFEST_HEAD:
        raise InputError("not a selection manifest: bad header line")
    pos = 0  # index of the line being parsed, then of the line being checked

    def malformed(why) -> InputError:
        return InputError(f"selection manifest line {pos + 1}: {why}")

    def take(tag: str | None = None) -> list[str]:
        """The tokens of the next line, which must exist and, given a ``tag``, start with it."""
        nonlocal pos
        pos += 1
        if pos >= len(lines):
            raise malformed("missing; the text ends early")
        if tag is not None and not lines[pos].startswith(tag + " "):
            raise malformed(f"expected the {tag} section")
        return lines[pos].split(" ")

    parsers = {"strategy": str, "bins": int} | {key: parse for key, _, _, parse in _CONFIG_LINES}
    fields: dict = {}
    try:
        # in any order here: the round trip below puts them in order
        while pos + 1 < len(lines) and lines[pos + 1].split(" ", 1)[0] in parsers:
            pos += 1
            key, value = lines[pos].split(" ", 1)
            if key in fields:
                raise malformed(f"repeated header field {key!r}")
            fields[key] = parsers[key](value)
        try:
            config = SelectionConfig(**{field: fields[key] for key, field, _, _ in _CONFIG_LINES})
            strategy = fields["strategy"]
        except KeyError as exc:
            raise InputError(f"selection manifest line {pos + 2}: missing header field {exc}") from None
        filtered_out = tuple(take("filtered_out")[2:])
        clusters = []
        for _ in range(int(take("per_cluster")[1])):
            toks = take("cluster")
            if toks[2:7:2] != ["budget", "entropy", "ids"]:
                raise malformed("expected 'cluster ID budget N entropy E ids ...'")
            clusters.append((int(toks[1]), int(toks[3]), tuple(toks[7:])))
        take("records")
        per_cluster = []
        for cid, budget, ids in clusters:
            trace = [_parse_float(take()[3]) for _ in ids]  # a record line is 'id cluster step entropy'
            per_cluster.append(ClusterRecord(cid, budget, ids, None if not trace or None in trace else tuple(trace)))
    except InputError:
        raise
    except (ValueError, IndexError) as exc:
        raise malformed(f"{lines[pos]!r}: {exc}") from exc
    manifest = SelectionManifest(config, strategy, tuple(per_cluster), filtered_out, fields.get("bins"))
    canonical = serialize_selection_manifest(manifest).splitlines()
    # the parse took len(canonical) lines, so a line of the text differs or is extra, never missing
    for pos, line in enumerate(lines):
        if pos == len(canonical) or line != canonical[pos]:
            expected = repr(canonical[pos]) if pos < len(canonical) else "the end of the manifest"
            raise malformed(f"{line!r}, expected {expected}")
    return manifest


def load_selection_manifest(path) -> SelectionManifest:
    return parse_selection_manifest(_read_text(path, "selection manifest"))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def gen_synthetic(n: int, dim: int, k_blobs: int, spread: float, seed: int):
    """Deterministic Gaussian-mixture test data with lognormal perplexities.

    Blob means sit on concentric shells spaced ``20 * max(spread, 1)``
    apart, so blobs are well separated for any spread. Embeddings are
    rounded through float32 so an on-disk round trip is a no-op. When a
    sample's lognormal ppl is >= 1, a consistent per-token NLL sequence
    with mean ln(ppl) is attached. Blob j's mean lies on the shell of
    radius ``20 * max(spread, 1) * (j + 1)``.
    """
    if k_blobs < 1 or n < k_blobs:
        raise InputError("need n >= k_blobs >= 1")
    if dim < 1:
        raise InputError("dim must be >= 1")
    if spread < 0 or not np.isfinite(spread):
        raise InputError("spread must be finite and >= 0")
    rng = np.random.default_rng(seed)
    separation = 20.0 * max(float(spread), 1.0)
    directions = rng.standard_normal((k_blobs, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = directions * (separation * np.arange(1, k_blobs + 1))[:, None]
    labels = np.arange(n) % k_blobs
    rng.shuffle(labels)
    data = means[labels] + float(spread) * rng.standard_normal((n, dim))
    data = data.astype(np.float32).astype(np.float64)
    store = EmbeddingStore(data)

    ppls = rng.lognormal(mean=0.8, sigma=0.4, size=n)
    scores = rng.normal(0.0, 1.0, size=n)
    metas = []
    for i in range(n):
        log_ppl = float(np.log(ppls[i]))
        nlls = None
        if log_ppl >= 0:
            t = int(rng.integers(4, 33))
            raw = rng.exponential(1.0, size=t)
            nlls = (raw * (log_ppl / raw.mean())).tolist()
        metas.append(SampleMeta(id=f"s{i:06d}", nlls=nlls, ppl=float(ppls[i]), score=float(scores[i])))
    return store, metas

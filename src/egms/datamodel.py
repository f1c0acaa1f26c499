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
  cluster in summary order; the records must agree with the summary.

Values are stored as float32 on disk and widened to float64 in memory;
all downstream kernel and eigenvalue math runs in float64.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError

_MAGIC = b"EGMS"
_VERSION = 1
_HEADER = struct.Struct("<4sHQI")  # magic, version, count, dim


@dataclass(frozen=True, eq=False)
class EmbeddingStore:
    """Immutable dense matrix of per-sample embedding vectors.

    ``data`` is a (count, dim) float64 array; every value must be finite.
    Safe to share read-only across worker threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, order="C")
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
        """Return a copy with unit-norm rows (opt-in preprocessing)."""
        norms = np.linalg.norm(self.data, axis=1, keepdims=True)
        if (norms == 0).any():
            bad = int(np.flatnonzero(norms[:, 0] == 0)[0])
            raise InputError(f"cannot L2-normalize zero embedding row {bad}")
        return EmbeddingStore(self.data / norms)


def _check_sigma(sigma: float) -> None:
    """Kernel bandwidth rule: finite, > 0, and 2*sigma^2 representable."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise InputError("sigma must be finite and > 0")
    if 2.0 * sigma * sigma == 0.0:
        raise InputError(f"sigma {sigma!r} is too small: 2*sigma^2 underflows to 0")


@dataclass(frozen=True)
class SampleMeta:
    """Per-sample identity plus optional difficulty signals.

    ``nlls`` holds per-token negative log-likelihoods in nats; ``ppl`` is
    a precomputed perplexity; ``score`` is a generic difficulty score used
    by the score-based baseline strategies.
    """

    id: str
    nlls: tuple[float, ...] | None = None
    ppl: float | None = None
    score: float | None = None

    def __post_init__(self):
        if self.id.split() != [self.id]:  # empty, or has whitespace
            raise InputError(f"sample id must be non-empty without whitespace, got {self.id!r}")
        if self.nlls is not None:
            vals = tuple(map(float, self.nlls))
            if not all(0.0 <= v < math.inf for v in vals):
                raise InputError(f"sample {self.id}: nlls must be finite and >= 0")
            object.__setattr__(self, "nlls", vals)
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
        if self.budget < 1:
            raise InputError("budget must be >= 1")
        if self.clusters < 1:
            raise InputError("clusters must be >= 1")
        if self.candidate_size < 1:
            raise InputError("candidate_size must be >= 1")
        _check_sigma(self.sigma)
        for name in ("tail_low", "tail_high"):
            v = getattr(self, name)
            if not (0 <= v < 0.5):
                raise InputError(f"{name} must lie in [0, 0.5)")
        if not (0 <= self.seed < 2**64):
            raise InputError("seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise InputError("workers must be >= 1")


@dataclass(frozen=True)
class ClusterRecord:
    """One cluster's selection in acceptance order: the only stored copy of it.

    It holds at most ``budget`` ids. ``entropy_trace[t]``, when the strategy records entropy, is the set
    entropy of ``selected_ids[: t + 1]``; it is None otherwise and for a
    cluster that selected nothing. ``final_entropy`` is its last entry.
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

    @property
    def final_entropy(self) -> float | None:
        return self.entropy_trace[-1] if self.entropy_trace else None


@dataclass(frozen=True)
class SelectionManifest:
    """Ordered selection with full provenance, stored as per-cluster records.

    ``selected`` reads the ids of the records in ``per_cluster`` order.
    Cluster ids are unique, the cluster budgets sum to ``config.budget``,
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
    """Write a store in the binary EGMS format (float32 payload)."""
    payload = np.ascontiguousarray(store.data, dtype="<f4")
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
    finite = np.isfinite(values)
    if not finite.all():
        flat = int(np.flatnonzero(~finite.ravel())[0])
        row = flat // dim
        offset = _HEADER.size + flat * 4
        raise InputError(f"non-finite value in row {row} (byte offset {offset})")
    return EmbeddingStore(values)  # the constructor widens to float64 in one copy


# ---------------------------------------------------------------------------
# Sample manifest io (JSON lines)
# ---------------------------------------------------------------------------


def load_sample_manifest(path, expected_count: int | None = None) -> list[SampleMeta]:
    """Parse a JSONL sample manifest in file order.

    File order is the authoritative alignment with embedding rows. Ids are
    checked unique (the error names both offending lines); a count mismatch
    against ``expected_count`` is an error.
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
            meta = SampleMeta(str(sid), None if nlls is None else tuple(nlls), ppl, score)
        except (InputError, OverflowError) as exc:  # OverflowError: an integer too large for a float
            raise InputError(f"malformed line {lineno}: {exc}") from exc
        if meta.id in seen:
            raise InputError(f"duplicate id {meta.id!r} on lines {seen[meta.id]} and {lineno}")
        seen[meta.id] = lineno
        metas.append(meta)
    if expected_count is not None and len(metas) != expected_count:
        raise InputError(
            f"sample manifest has {len(metas)} records but paired embedding store has "
            f"{expected_count} rows"
        )
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


def serialize_selection_manifest(manifest: SelectionManifest) -> str:
    """Render a manifest to its canonical, byte-stable text form."""
    cfg = manifest.config
    # the worker count is an execution detail, not a selection parameter:
    # results are invariant to it, and serialized bytes must be too
    lines = [
        _MANIFEST_HEAD,
        f"strategy {manifest.strategy}",
        f"budget {cfg.budget}",
        f"clusters {cfg.clusters}",
        f"candidates {cfg.candidate_size}",
        f"sigma {_fmt_float(cfg.sigma)}",
        f"tail_low {_fmt_float(cfg.tail_low)}",
        f"tail_high {_fmt_float(cfg.tail_high)}",
        f"seed {cfg.seed}",
        f"normalize {int(cfg.normalize)}",
    ]
    if manifest.bins is not None:
        lines.append(f"bins {manifest.bins}")
    lines.append(" ".join(["filtered_out", str(len(manifest.filtered_out))] + list(manifest.filtered_out)))
    lines.append(f"per_cluster {len(manifest.per_cluster)}")
    for rec in manifest.per_cluster:
        lines.append(
            " ".join(
                [
                    "cluster",
                    str(rec.cluster_id),
                    "budget",
                    str(rec.budget),
                    "entropy",
                    _fmt_float(rec.final_entropy),
                    "ids",
                ]
                + list(rec.selected_ids)
            )
        )
    lines.append(f"records {len(manifest.selected)}")
    for rec in manifest.per_cluster:
        trace = rec.entropy_trace or (None,) * len(rec.selected_ids)
        for step, (sid, entropy) in enumerate(zip(rec.selected_ids, trace)):
            lines.append(f"{sid} {rec.cluster_id} {step} {_fmt_float(entropy)}")
    return "\n".join(lines) + "\n"


def write_selection_manifest(path, manifest: SelectionManifest) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_selection_manifest(manifest).encode("utf-8"))


def _parse_float(tok: str) -> float | None:
    return None if tok == "-" else float(tok)


def _parse_flag(tok: str) -> bool:
    if tok not in ("0", "1"):
        raise ValueError("expected 0 or 1")
    return tok == "1"


# header keys, each with the parser of its value
_HEADER_FIELDS = {
    "strategy": str, "budget": int, "clusters": int, "candidates": int, "sigma": float,
    "tail_low": float, "tail_high": float, "seed": int, "normalize": _parse_flag, "bins": int,
}


def parse_selection_manifest(text: str) -> SelectionManifest:
    """Inverse of :func:`serialize_selection_manifest`.

    The cluster lines define the records; the records section must repeat
    them id for id and step for step, and end each cluster on its final
    entropy. A malformed or disagreeing line is an InputError naming it.
    """
    lines = text.splitlines()
    if not lines or lines[0] != _MANIFEST_HEAD:
        raise InputError("not a selection manifest: bad header line")
    pos = 0  # index of the line being parsed

    def malformed(why) -> InputError:
        return InputError(f"selection manifest line {pos + 1}: {why}")

    def take(tag: str) -> list[str]:
        nonlocal pos
        pos += 1
        if pos >= len(lines) or not lines[pos].startswith(tag + " "):
            raise malformed(f"expected the {tag} section")
        return lines[pos].split(" ")

    fields: dict = {}
    try:
        while pos + 1 < len(lines) and lines[pos + 1].split(" ", 1)[0] in _HEADER_FIELDS:
            pos += 1
            key, value = lines[pos].split(" ", 1)
            if key in fields:
                raise malformed(f"repeated header field {key!r}")
            fields[key] = _HEADER_FIELDS[key](value)
        try:
            strategy = fields["strategy"]
            config = SelectionConfig(
                budget=fields["budget"],
                clusters=fields["clusters"],
                candidate_size=fields["candidates"],
                sigma=fields["sigma"],
                tail_low=fields["tail_low"],
                tail_high=fields["tail_high"],
                seed=fields["seed"],
                normalize=fields["normalize"],
            )
        except KeyError as exc:
            raise InputError(f"selection manifest missing header field {exc}") from exc

        toks = take("filtered_out")
        filtered_out = tuple(toks[2:])
        if len(filtered_out) != int(toks[1]):
            raise malformed(f"{len(filtered_out)} ids, expected {toks[1]}")
        clusters = []
        for _ in range(int(take("per_cluster")[1])):
            toks = take("cluster")
            if toks[2:7:2] != ["budget", "entropy", "ids"]:
                raise malformed("expected 'cluster ID budget N entropy E ids ...'")
            clusters.append((int(toks[1]), int(toks[3]), _parse_float(toks[5]), tuple(toks[7:])))
        n_records = int(take("records")[1])
        n_ids = sum(len(ids) for *_, ids in clusters)
        if n_records != n_ids:
            raise malformed(f"{n_records} records, but the cluster lines hold {n_ids} ids")
        per_cluster = []
        for cid, budget, final, ids in clusters:
            trace = []
            for step, sid in enumerate(ids):
                pos += 1
                if pos >= len(lines):
                    raise malformed("missing; the records section is truncated")
                rid, rcl, rstep, ent = lines[pos].split(" ")
                if (rid, int(rcl), int(rstep)) != (sid, cid, step):
                    raise malformed(f"the cluster lines give '{sid} {cid} {step}' here")
                trace.append(_parse_float(ent))
            if len({e is None for e in trace}) > 1:
                raise malformed(f"cluster {cid} mixes '-' and numeric record entropies")
            rec = ClusterRecord(cid, budget, ids, None if not trace or None in trace else tuple(trace))
            if rec.final_entropy != final:
                raise malformed(f"cluster {cid} ends on entropy {_fmt_float(rec.final_entropy)}, "
                                f"but its cluster line says {_fmt_float(final)}")
            per_cluster.append(rec)
        if pos + 1 < len(lines):
            pos += 1
            raise malformed("unexpected line after the records")
    except InputError:
        raise
    except (ValueError, IndexError) as exc:
        raise malformed(f"{lines[pos]!r}: {exc}") from exc
    return SelectionManifest(
        config=config,
        strategy=strategy,
        per_cluster=tuple(per_cluster),
        filtered_out=filtered_out,
        bins=fields.get("bins"),
    )


def load_selection_manifest(path) -> SelectionManifest:
    return parse_selection_manifest(_read_text(path, "selection manifest"))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def gen_synthetic(
    n: int,
    dim: int,
    k_blobs: int,
    spread: float,
    seed: int,
    return_labels: bool = False,
):
    """Deterministic Gaussian-mixture test data with lognormal perplexities.

    Blob means sit on concentric shells spaced ``20 * max(spread, 1)``
    apart, so blobs are well separated for any spread. Embeddings are
    rounded through float32 so an on-disk round trip is a no-op. When a
    sample's lognormal ppl is >= 1, a consistent per-token NLL sequence
    with mean ln(ppl) is attached.

    With ``return_labels=True`` also returns the ground-truth blob labels.
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
            nlls = tuple((raw * (log_ppl / raw.mean())).tolist())
        metas.append(SampleMeta(id=f"s{i:06d}", nlls=nlls, ppl=float(ppls[i]), score=float(scores[i])))
    if return_labels:
        return store, metas, labels
    return store, metas

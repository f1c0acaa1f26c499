"""Core data types, on-disk formats, and deterministic synthetic data.

File formats owned by this module:

* Embedding file (binary, little-endian): magic ``EGMS``, version u16 = 1,
  count u64, dim u32, then count*dim float32 values row-major, no padding.
* Sample manifest: UTF-8 JSON lines, one record per sample with fields
  ``id`` (required), ``nlls`` (optional array of nonnegative reals),
  ``ppl`` (optional positive real), ``score`` (optional real).
* Selection manifest: line-structured text with a header block (config
  echo, seed, filtered-out ids, per-cluster summary) followed by one
  record per selected sample: ``id cluster step entropy``.

Values are stored as float32 on disk and widened to float64 in memory;
all downstream kernel and eigenvalue math runs in float64.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

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
        if not self.id or any(c.isspace() for c in self.id):
            raise InputError(f"sample id must be non-empty without whitespace, got {self.id!r}")
        if self.nlls is not None:
            vals = tuple(map(float, self.nlls))
            if not all(0.0 <= v < math.inf for v in vals):
                raise InputError(f"sample {self.id}: nlls must be finite and >= 0")
            object.__setattr__(self, "nlls", vals)
        if self.ppl is not None:
            p = float(self.ppl)
            if not np.isfinite(p) or p <= 0:
                raise InputError(f"sample {self.id}: ppl must be finite and positive")
            object.__setattr__(self, "ppl", p)
        if self.score is not None:
            s = float(self.score)
            if not np.isfinite(s):
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
    """Per-cluster provenance inside a SelectionManifest."""

    cluster_id: int
    budget: int
    selected_ids: tuple[str, ...]
    final_entropy: float | None


@dataclass(frozen=True)
class SelectionManifest:
    """Ordered selection with full provenance.

    ``selected`` / ``selected_clusters`` / ``selected_steps`` are parallel
    sequences; ``pipeline_entropy_trace`` (when present) aligns with them
    and holds the set entropy after each accepted sample. Serialization is
    byte-identical for identical inputs and seed at a fixed BLAS thread
    count; once a cluster's selection reaches about 150 samples, the
    eigensolvers' rounding can depend on that count.
    """

    config: SelectionConfig
    strategy: str
    selected: tuple[str, ...]
    selected_clusters: tuple[int, ...]
    selected_steps: tuple[int, ...]
    per_cluster: tuple[ClusterRecord, ...]
    filtered_out: tuple[str, ...]
    pipeline_entropy_trace: tuple[float, ...] | None = None
    bins: int | None = None

    def __post_init__(self):
        n = len(self.selected)
        if len(set(self.selected)) != n:
            raise InputError("selected ids are not unique")
        if len(self.selected_clusters) != n or len(self.selected_steps) != n:
            raise InputError("selected id/cluster/step sequences must align")
        if self.pipeline_entropy_trace is not None and len(self.pipeline_entropy_trace) != n:
            raise InputError("pipeline_entropy_trace must align with selected")
        spent = sum(len(rec.selected_ids) for rec in self.per_cluster)
        if spent != n:
            raise InputError(f"per-cluster selections sum to {spent}, expected {n}")


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
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read embedding file {path}: {exc}") from exc
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read sample manifest {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed line {lineno}: {exc}") from exc
        if not isinstance(rec, dict) or "id" not in rec:
            raise InputError(f"malformed line {lineno}: missing required id field")
        try:
            meta = SampleMeta(
                id=str(rec["id"]),
                nlls=tuple(rec["nlls"]) if rec.get("nlls") is not None else None,
                ppl=rec.get("ppl"),
                score=rec.get("score"),
            )
        except (InputError, TypeError, ValueError) as exc:
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


def check_aligned(store: EmbeddingStore, metas: list[SampleMeta]) -> None:
    """Fail loudly if embedding rows and sample metas do not line up."""
    if store.count != len(metas):
        raise InputError(
            f"embedding store has {store.count} rows but sample manifest has {len(metas)}"
        )


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
    trace = manifest.pipeline_entropy_trace
    for i, sid in enumerate(manifest.selected):
        ent = _fmt_float(trace[i]) if trace is not None else "-"
        lines.append(f"{sid} {manifest.selected_clusters[i]} {manifest.selected_steps[i]} {ent}")
    return "\n".join(lines) + "\n"


def write_selection_manifest(path, manifest: SelectionManifest) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_selection_manifest(manifest).encode("utf-8"))


def _parse_float(tok: str) -> float | None:
    return None if tok == "-" else float(tok)


def parse_selection_manifest(text: str) -> SelectionManifest:
    """Inverse of :func:`serialize_selection_manifest`."""
    lines = text.splitlines()
    if not lines or lines[0] != _MANIFEST_HEAD:
        raise InputError("not a selection manifest: bad header line")
    pos = 1
    fields: dict[str, str] = {}
    simple = {
        "strategy", "budget", "clusters", "candidates", "sigma",
        "tail_low", "tail_high", "seed", "normalize", "bins",
    }
    while pos < len(lines):
        key = lines[pos].split(" ", 1)[0]
        if key not in simple:
            break
        fields[key] = lines[pos].split(" ", 1)[1]
        pos += 1
    try:
        config = SelectionConfig(
            budget=int(fields["budget"]),
            clusters=int(fields["clusters"]),
            candidate_size=int(fields["candidates"]),
            sigma=float(fields["sigma"]),
            tail_low=float(fields["tail_low"]),
            tail_high=float(fields["tail_high"]),
            seed=int(fields["seed"]),
            normalize=bool(int(fields["normalize"])),
        )
    except KeyError as exc:
        raise InputError(f"selection manifest missing header field {exc}") from exc

    def expect(tag: str) -> list[str]:
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(tag + " "):
            raise InputError(f"selection manifest missing {tag} section at line {pos + 1}")
        toks = lines[pos].split(" ")
        pos += 1
        return toks

    toks = expect("filtered_out")
    filtered_out = tuple(toks[2 : 2 + int(toks[1])])
    n_clusters = int(expect("per_cluster")[1])
    per_cluster = []
    for _ in range(n_clusters):
        toks = expect("cluster")
        per_cluster.append(
            ClusterRecord(
                cluster_id=int(toks[1]),
                budget=int(toks[3]),
                final_entropy=_parse_float(toks[5]),
                selected_ids=tuple(toks[7:]),
            )
        )
    n_records = int(expect("records")[1])
    selected, clusters_col, steps_col, trace = [], [], [], []
    any_entropy = False
    for i in range(n_records):
        if pos >= len(lines):
            raise InputError(f"selection manifest truncated at record {i}")
        sid, cl, step, ent = lines[pos].split(" ")
        pos += 1
        selected.append(sid)
        clusters_col.append(int(cl))
        steps_col.append(int(step))
        val = _parse_float(ent)
        trace.append(val)
        any_entropy = any_entropy or val is not None
    return SelectionManifest(
        config=config,
        strategy=fields["strategy"],
        selected=tuple(selected),
        selected_clusters=tuple(clusters_col),
        selected_steps=tuple(steps_col),
        per_cluster=tuple(per_cluster),
        filtered_out=filtered_out,
        pipeline_entropy_trace=tuple(trace) if any_entropy else None,
        bins=int(fields["bins"]) if "bins" in fields else None,
    )


def load_selection_manifest(path) -> SelectionManifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_selection_manifest(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read selection manifest {path}: {exc}") from exc


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

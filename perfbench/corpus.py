"""Seeded synthetic corpora written in the egms input formats.

A corpus is a Gaussian mixture: blob centres drawn from N(0, I), times a
scale, and members scattered around them with a fixed spread. Every value is rounded to a
2**-10 grid, so it survives the float32 embedding file exactly, and so does
the corpus shifted by any power of two up to 2**12. Perplexities are
lognormal. With ``nlls`` set, each record whose perplexity is at least 1
carries per-token negative log-likelihoods in place of its ``ppl``, and egms
derives the perplexity from them.

This module does not import egms: the benchmark's inputs and the values its
checks compare against are made here.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

GRID = 2.0**-10
_HEADER = struct.Struct("<4sHQI")  # magic, version, count, dim


@dataclass(frozen=True)
class CorpusSpec:
    n: int
    dim: int
    blobs: int
    spread: float
    centre_scale: float = 1.0
    nlls: bool = False
    shift: float = 0.0


@dataclass(frozen=True, eq=False)
class Corpus:
    """A generated corpus as the checks see it.

    ``data`` holds the float64 values exactly as written to disk; ``ppls``
    the perplexities egms derives from the sample manifest.
    """

    data: np.ndarray
    ids: tuple[str, ...]
    ppls: np.ndarray
    embeddings: Path
    manifest: Path

    @cached_property
    def row_index(self) -> dict[str, int]:
        return {sid: i for i, sid in enumerate(self.ids)}

    def rows_of(self, ids) -> np.ndarray:
        return np.array([self.row_index[s] for s in ids], dtype=np.int64)


def write_embeddings(path: Path, data: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"EGMS", 1, data.shape[0], data.shape[1]))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_embeddings(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, version, count, dim = _HEADER.unpack_from(raw)
    if magic != b"EGMS" or version != 1 or len(raw) != _HEADER.size + 4 * count * dim:
        raise ValueError(f"{path}: not a version-1 EGMS embedding file")
    return np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(count, dim).astype(np.float64)


def make_corpus(spec: CorpusSpec, seed: int, directory: Path, name: str) -> Corpus:
    """Generate the corpus for ``seed`` and write ``<name>.bin``/``<name>.jsonl``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.n, spec.dim, spec.blobs]))
    centres = spec.centre_scale * rng.standard_normal((spec.blobs, spec.dim))
    labels = rng.integers(spec.blobs, size=spec.n)
    data = centres[labels] + spec.spread * rng.standard_normal((spec.n, spec.dim))
    data = np.round(data / GRID) * GRID + spec.shift
    if not np.array_equal(data.astype(np.float32).astype(np.float64), data):
        raise ValueError("corpus values are not exact in float32; shift or spread too large")

    raw_ppls = rng.lognormal(mean=0.8, sigma=0.4, size=spec.n)
    ids = tuple(f"r{i:06d}" for i in range(spec.n))
    ppls = np.empty(spec.n, dtype=np.float64)
    lines = []
    for i, sid in enumerate(ids):
        log_ppl = float(np.log(raw_ppls[i]))
        if spec.nlls and log_ppl >= 0.0:
            tokens = rng.exponential(1.0, size=int(rng.integers(8, 65)))
            nlls = tokens * (log_ppl / tokens.mean())
            ppls[i] = float(np.exp(nlls.mean()))
            rec = {"id": sid, "nlls": nlls.tolist()}
        else:
            ppls[i] = float(raw_ppls[i])
            rec = {"id": sid, "ppl": ppls[i]}
        lines.append(json.dumps(rec, separators=(",", ":")))

    embeddings = directory / f"{name}.bin"
    manifest = directory / f"{name}.jsonl"
    write_embeddings(embeddings, data)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Corpus(data=data, ids=ids, ppls=ppls, embeddings=embeddings, manifest=manifest)

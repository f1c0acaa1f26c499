"""Relative-accuracy metric, diversity diagnostics, and a brute-force oracle.

``avg_rel`` is the mean over benchmarks of subset-trained accuracy divided
by full-set-trained accuracy, times 100. The tool never runs model
evaluation; scores arrive as a small text file of ``benchmark, subset,
fullset`` rows.

``diversity_report`` reruns a strategy over several seeds and compares its
exponentially scaled subset entropy against a uniform-random reference.
``oracle_max_entropy_subset`` enumerates every subset at desk scale and is
the testing yardstick for the greedy sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .datamodel import EmbeddingStore, SampleMeta, SelectionConfig, _as_int, _read_text, _store_rows
from .entropy import _matrix_entropy, build_similarity, von_neumann_entropy
from .errors import InputError
from .sampler import select

_ORACLE_LIMIT = 20


@dataclass(frozen=True)
class BenchmarkScores:
    """Per-benchmark accuracy of subset- and full-set-trained models."""

    labels: tuple[str, ...]
    subset_scores: tuple[float, ...]
    fullset_scores: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.labels) == len(self.subset_scores) == len(self.fullset_scores)):
            raise InputError("labels, subset_scores and fullset_scores must have equal length")
        if len(self.labels) == 0:
            raise InputError("need at least one benchmark")
        for v in self.subset_scores:
            if not np.isfinite(v):
                raise InputError("subset scores must be finite")
        for v in self.fullset_scores:
            if not np.isfinite(v) or v <= 0:
                raise InputError("full-set scores must be finite and strictly positive")


def avg_rel(scores: BenchmarkScores) -> float:
    """Mean subset/fullset accuracy ratio across benchmarks, in percent."""
    sub = np.asarray(scores.subset_scores, dtype=np.float64)
    full = np.asarray(scores.fullset_scores, dtype=np.float64)
    return float(100.0 / sub.size * (sub / full).sum())


def load_benchmark_scores(path) -> BenchmarkScores:
    """Read ``benchmark, subset, fullset`` rows; '#' lines are comments."""
    labels, subs, fulls = [], [], []
    for lineno, line in enumerate(_read_text(path, "scores file").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 3:
            raise InputError(f"scores line {lineno}: expected 'benchmark, subset, fullset'")
        try:
            subs.append(float(parts[1]))
            fulls.append(float(parts[2]))
        except ValueError as exc:
            raise InputError(f"scores line {lineno}: {exc}") from exc
        labels.append(parts[0])
    return BenchmarkScores(tuple(labels), tuple(subs), tuple(fulls))


@dataclass(frozen=True)
class DiversityReport:
    """Entropy statistics of a strategy against the random reference.

    ``gain_ratio_pct`` is computed on exponentially scaled entropies:
    ``(exp_strategy - exp_random) / exp_random * 100``.
    """

    strategy: str
    seeds: tuple[int, ...]
    mean_entropy: float
    min_entropy: float
    max_entropy: float
    mean_exp_entropy: float
    random_mean_exp_entropy: float
    gain_ratio_pct: float


def _run_strategy(store, metas, strategy: str, config: SelectionConfig) -> float:
    """Entropy of the subset ``strategy`` selects, measured in ``store``."""
    manifest, _ = select(store, metas, strategy, config)
    row_of = {meta.id: i for i, meta in enumerate(metas)}
    rows = np.array([row_of[sid] for sid in manifest.selected], dtype=np.int64)
    return von_neumann_entropy(build_similarity(store, rows, config.sigma))


def diversity_report(
    store: EmbeddingStore,
    metas: list[SampleMeta],
    strategy: str,
    config: SelectionConfig,
    n_seeds: int,
) -> DiversityReport:
    """Run ``strategy`` and a uniform-random reference over n_seeds seeds."""
    if _as_int(n_seeds, "n_seeds") < 1:
        raise InputError("n_seeds must be >= 1")
    seeds = tuple((config.seed + i) % 2**64 for i in range(n_seeds))
    if config.normalize:
        # once for every run: selection and entropy both see the normalized rows
        store, config = store.l2_normalized(), replace(config, normalize=False)
    ents, rand_ents = [], []
    for s in seeds:
        cfg = replace(config, seed=s)
        ents.append(_run_strategy(store, metas, strategy, cfg))
        rand_ents.append(_run_strategy(store, metas, "random", cfg))
    ents_arr = np.asarray(ents)
    mean_exp = float(np.exp(ents_arr).mean())
    rand_mean_exp = float(np.exp(np.asarray(rand_ents)).mean())
    return DiversityReport(
        strategy=strategy,
        seeds=seeds,
        mean_entropy=float(ents_arr.mean()),
        min_entropy=float(ents_arr.min()),
        max_entropy=float(ents_arr.max()),
        mean_exp_entropy=mean_exp,
        random_mean_exp_entropy=rand_mean_exp,
        gain_ratio_pct=float((mean_exp - rand_mean_exp) / rand_mean_exp * 100.0),
    )


def oracle_max_entropy_subset(
    store: EmbeddingStore, rows, k: int, sigma: float
) -> tuple[tuple[int, ...], float]:
    """Exhaustively find the size-k subset with maximal entropy.

    Guarded to at most 20 rows; ties resolve to the lexicographically
    smallest index tuple.
    """
    rows = _store_rows(store, rows, "row")
    if rows.size > _ORACLE_LIMIT:
        raise InputError(f"oracle instance too large: {rows.size} rows > {_ORACLE_LIMIT}")
    if not 1 <= _as_int(k, "subset size k") <= rows.size:
        raise InputError(f"need 1 <= k <= {rows.size}")
    ordered = np.sort(rows)
    # one kernel matrix, sliced per subset: entries are bit-identical to a
    # per-subset rebuild, so this matches von_neumann_entropy exactly
    full = build_similarity(store, ordered, sigma).matrix
    best_subset: tuple[int, ...] | None = None
    best_entropy = -np.inf
    for combo in combinations(range(ordered.size), k):
        sel = np.asarray(combo)
        e = _matrix_entropy(full[np.ix_(sel, sel)])
        if e > best_entropy:
            best_entropy = e
            best_subset = tuple(int(ordered[i]) for i in combo)
    assert best_subset is not None
    return best_subset, float(best_entropy)

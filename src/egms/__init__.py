"""Diverse coreset selection by greedy entropy-gain maximization.

Extracts a small, maximally diverse subset from a large embedded dataset:
perplexity-tail filtering, K-means partitioning, size-proportional cluster
budgets, and greedy von Neumann entropy-gain sampling over Gaussian
similarity matrices, plus baseline strategies and diversity metrics.
"""

from .clustering import ClusterAssignment, kmeans
from .datamodel import (
    ClusterRecord,
    EmbeddingStore,
    SampleMeta,
    SelectionConfig,
    SelectionManifest,
    gen_synthetic,
    load_embedding_store,
    load_sample_manifest,
    load_selection_manifest,
    parse_selection_manifest,
    serialize_selection_manifest,
    write_embedding_store,
    write_sample_manifest,
    write_selection_manifest,
)
from .entropy import (
    SimilarityState,
    augment,
    build_similarity,
    entropy_gain,
    gaussian_similarity,
    von_neumann_entropy,
)
from .errors import InputError, InternalInvariantError
from .filtering import FilteredSet, filter_extremes, perplexity_from_nlls, resolve_ppls
from .metrics import (
    BenchmarkScores,
    DiversityReport,
    avg_rel,
    diversity_report,
    load_benchmark_scores,
    oracle_max_entropy_subset,
)
from .sampler import (
    STRATEGIES,
    ClusterSampleResult,
    allocate_budgets,
    greedy_sample_cluster,
    mmd_sample_cluster,
    select,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkScores",
    "ClusterAssignment",
    "ClusterRecord",
    "ClusterSampleResult",
    "DiversityReport",
    "EmbeddingStore",
    "FilteredSet",
    "InputError",
    "InternalInvariantError",
    "STRATEGIES",
    "SampleMeta",
    "SelectionConfig",
    "SelectionManifest",
    "SimilarityState",
    "allocate_budgets",
    "augment",
    "avg_rel",
    "build_similarity",
    "diversity_report",
    "entropy_gain",
    "filter_extremes",
    "gaussian_similarity",
    "gen_synthetic",
    "greedy_sample_cluster",
    "kmeans",
    "load_benchmark_scores",
    "load_embedding_store",
    "load_sample_manifest",
    "load_selection_manifest",
    "mmd_sample_cluster",
    "oracle_max_entropy_subset",
    "parse_selection_manifest",
    "perplexity_from_nlls",
    "resolve_ppls",
    "select",
    "serialize_selection_manifest",
    "von_neumann_entropy",
    "write_embedding_store",
    "write_sample_manifest",
    "write_selection_manifest",
]

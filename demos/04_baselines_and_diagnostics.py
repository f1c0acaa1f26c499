# %%
# Comparing selection strategies on diversity, and scoring downstream
# benchmark results with the relative-accuracy metric.

import numpy as np

from egms import (
    BenchmarkScores,
    SelectionConfig,
    avg_rel,
    build_similarity,
    diversity_report,
    gen_synthetic,
    oracle_max_entropy_subset,
    select,
    von_neumann_entropy,
)

store, metas = gen_synthetic(n=1000, dim=8, k_blobs=10, spread=0.15, seed=1)
config = SelectionConfig(budget=100, clusters=10, candidate_size=100, sigma=0.5, seed=0)

# %%
# Five baseline strategies run through the same driver, `select`, and
# share the manifest contract: uniform random, rank-median difficulty
# scores, coverage bins over the score range, the greedy pipeline with an
# equal per-cluster split, and per-cluster squared-MMD minimization.

row_of = {m.id: i for i, m in enumerate(metas)}

def subset_entropy(manifest):
    rows = np.array([row_of[s] for s in manifest.selected])
    return von_neumann_entropy(build_similarity(store, rows, config.sigma))

for strategy in ("random", "mid_score", "ccs", "exam_average_allocation", "mmd_minimize"):
    manifest, _ = select(store, metas, strategy, config)
    print(f"{strategy:24s} subset entropy = {subset_entropy(manifest):.4f}")

# %%
# The diversity report runs a strategy over several seeds against the
# uniform-random reference and reports exponentially scaled entropies.
# Entropy-gain selection shows a clearly positive gain ratio; MMD
# minimization tracks its cluster distributions and lands near random.

for strategy in ("exam", "mmd_minimize"):
    rep = diversity_report(store, metas, strategy, config, n_seeds=5)
    print(
        f"{strategy:14s} exp-entropy {rep.mean_exp_entropy:7.2f} "
        f"vs random {rep.random_mean_exp_entropy:7.2f}  "
        f"gain ratio {rep.gain_ratio_pct:+.1f}%"
    )

# %%
# At desk scale the greedy choice can be checked against exhaustive
# enumeration: the best size-k subset of up to 20 rows by brute force.

small_rows = np.arange(12)
subset, ent = oracle_max_entropy_subset(store, small_rows, k=4, sigma=0.5)
print(f"oracle best 4 of 12: rows {subset} entropy {ent:.4f}")

# %%
# Downstream capability probing happens outside this toolkit: models are
# fine-tuned on the selected subset elsewhere, and their benchmark scores
# come back as `benchmark, subset, fullset` rows. Avg-Rel summarizes them
# as the mean relative accuracy in percent.

scores = BenchmarkScores(
    labels=("chart-reasoning", "chart-description", "qa-human", "qa-augmented"),
    subset_scores=(19.7, 33.4, 47.0, 79.4),
    fullset_scores=(21.7, 33.6, 45.6, 73.4),
)
print(f"avg-rel = {avg_rel(scores):.2f}%  (100% means subset training matched full-set training)")

# %%
# The full selection pipeline, stage by stage: perplexity-tail filtering,
# K-means partitioning, proportional budget allocation, and intra-cluster
# greedy entropy-gain sampling, then the same thing through the one-call
# entry point.

import numpy as np

from egms import (
    SelectionConfig,
    allocate_budgets,
    filter_extremes,
    gen_synthetic,
    greedy_sample_cluster,
    kmeans,
    resolve_ppls,
    select,
    serialize_selection_manifest,
)

store, metas = gen_synthetic(n=2000, dim=8, k_blobs=10, spread=0.2, seed=7)

# %%
# Stage 1: drop both tails of the perplexity distribution (5% each by
# default). Extreme-PPL samples are often low quality or uninformative.

ppls = resolve_ppls(metas)
fs = filter_extremes(ppls, tail_low=0.05, tail_high=0.05)
print(f"kept {fs.kept.size} of {len(metas)}; ppl range kept: "
      f"[{fs.thresholds[0]:.2f}, {fs.thresholds[1]:.2f}]")

# %%
# Stage 2: K-means over the kept samples. Greedy selection is quadratic in
# candidate-set size, so clustering first bounds the search space while
# the centroids keep global coverage.

assignment = kmeans(store, fs.kept, L=10, seed=42)
sizes = [m.size for m in assignment.members]
print(f"cluster sizes: {sizes}")
print(f"inertia: {assignment.inertia:.1f} after {assignment.inertia_history.size} iterations")

# %%
# Stage 3: each cluster gets a budget proportional to its size, reconciled
# so the budgets sum exactly to the requested total.

budgets = allocate_budgets(sizes, B=200)
print("budgets:", budgets.tolist(), "sum:", budgets.sum())

# %%
# Stage 4: greedy entropy-gain sampling inside one cluster. Each step
# draws a random candidate set, scores every candidate by entropy gain,
# and accepts the argmax. The entropy trace is non-decreasing while
# candidates keep adding diversity.

cid = int(np.argmax(sizes))
res = greedy_sample_cluster(
    store, assignment.members[cid], budget=int(budgets[cid]),
    m=100, sigma=0.5, rng=np.random.default_rng(0),
)
print(f"cluster {cid}: picked {res.selected.size} rows, "
      f"entropy 0 -> {res.entropy_trace[-1]:.3f}")
print("trace:", np.round(res.entropy_trace, 3))

# %%
# The one-call pipeline produces a selection manifest with full
# provenance: config echo, filtered-out ids, per-cluster budgets and
# entropies, and one line per selected sample. Serialization is
# byte-identical for identical inputs and seed, whatever the worker thread
# count: every cluster has its own seeded generator.

config = SelectionConfig(budget=200, clusters=10, candidate_size=100, sigma=0.5, seed=42, workers=4)
manifest, _ = select(store, metas, "exam", config)
text = serialize_selection_manifest(manifest)
print(f"selected {len(manifest.selected)}; manifest is {len(text)} bytes")
for line in text.splitlines()[:14]:
    print(line if len(line) <= 100 else line[:97] + "...")
print("...")

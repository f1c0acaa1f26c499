"""Per-layer metrics from the spans of one traced round.

A layer is an egms module. Times ending ``_s`` are busy time summed over
threads and processes; a span's self time is its duration minus that of
its children in the same thread. Counts repeat exactly for a seed. The
``GFLOP-computed`` and ``G-computed`` values come from array sizes, not from
hardware counters.
"""

from __future__ import annotations

from collections import defaultdict

# name -> unit, as in BENCHMARK.json
METRICS = {
    "datamodel.load_sample_manifest_s": "s",
    "datamodel.load_embedding_store_s": "s",
    "datamodel.write_selection_manifest_s": "s",
    "datamodel.write_embedding_store_s": "s",
    "datamodel.input_mib": "MiB",
    "filtering.resolve_ppls_s": "s",
    "filtering.filter_extremes_s": "s",
    "clustering.kmeans_s": "s",
    "clustering.kmeans_calls": "count",
    "clustering.lloyd_iterations": "count",
    "clustering.assign_gflop": "GFLOP-computed",
    "sampler.greedy_sample_cluster_s": "s",
    "sampler.greedy_wall_s": "s",
    "sampler.thread_idle_s": "s",
    "sampler.mmd_sample_cluster_s": "s",
    "sampler.allocate_budgets_s": "s",
    "sampler.accepted_steps": "count",
    "entropy.entropy_gains_s": "s",
    "entropy.entropy_gains_calls": "count",
    "entropy.gain_matrices": "count",
    "entropy.eig_work_g": "G-computed",
    "entropy.augment_s": "s",
    "entropy.augment_calls": "count",
    "entropy.von_neumann_entropy_s": "s",
    "entropy.von_neumann_entropy_calls": "count",
    "entropy.build_similarity_s": "s",
    "cli.main_s": "s",
    "trace.overhead_pct": "%",
}

# spans reported by self time, as "<span>_s"; a function a workload never
# calls reads 0 there
_SELF_TIMES = (
    "datamodel.load_sample_manifest",
    "datamodel.load_embedding_store",
    "datamodel.write_selection_manifest",
    "datamodel.write_embedding_store",
    "filtering.resolve_ppls",
    "filtering.filter_extremes",
    "clustering.kmeans",
    "sampler.greedy_sample_cluster",
    "sampler.mmd_sample_cluster",
    "sampler.allocate_budgets",
    "entropy.entropy_gains",
    "entropy.augment",
    "entropy.von_neumann_entropy",
    "entropy.build_similarity",
)


def _workers(argv: list[str]) -> int:
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def round_metrics(traces: list[dict]) -> dict[str, float]:
    """Layer metrics of one round from the trace of each of its processes."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    greedy_wall = idle = 0.0
    for trace in traces:
        spans = [(i, s) for i, s in enumerate(trace["spans"]) if s is not None]
        child = defaultdict(float)
        for _, (_, start, end, _, parent, _) in spans:
            if parent is not None:
                child[parent] += end - start
        greedy = []
        for i, (name, start, end, _, _, attrs) in spans:
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            calls[name] += 1
            if name == "clustering.kmeans":
                attr["iters"] += attrs["iters"]
                attr["assign_flop"] += 2.0 * attrs["n"] * attrs["d"] * attrs["L"] * (attrs["iters"] + 1)
            elif name == "entropy.entropy_gains":
                attr["m"] += attrs["m"]
                attr["eig"] += attrs["m"] * (attrs["t"] + 1) ** 3
            elif name in ("sampler.greedy_sample_cluster", "sampler.mmd_sample_cluster"):
                attr["selected"] += attrs["selected"]
                if name == "sampler.greedy_sample_cluster":
                    greedy.append((start, end))
            elif name.startswith("datamodel.load_"):
                attr["input_bytes"] += attrs["bytes"]
        if greedy:
            wall = max(e for _, e in greedy) - min(s for s, _ in greedy)
            greedy_wall += wall
            idle += _workers(trace["argv"]) * wall - sum(e - s for s, e in greedy)

    out = {f"{span}_s": self_s[span] for span in _SELF_TIMES}
    out.update({
        "datamodel.input_mib": attr["input_bytes"] / 2**20,
        "clustering.kmeans_calls": calls["clustering.kmeans"],
        "clustering.lloyd_iterations": int(attr["iters"]),
        "clustering.assign_gflop": attr["assign_flop"] / 1e9,
        "sampler.greedy_wall_s": greedy_wall,
        "sampler.thread_idle_s": idle,
        "sampler.accepted_steps": int(attr["selected"]),
        "entropy.entropy_gains_calls": calls["entropy.entropy_gains"],
        "entropy.gain_matrices": int(attr["m"]),
        "entropy.eig_work_g": attr["eig"] / 1e9,
        "entropy.augment_calls": calls["entropy.augment"],
        "entropy.von_neumann_entropy_calls": calls["entropy.von_neumann_entropy"],
        "cli.main_s": total_s["cli.main"],
    })
    return out

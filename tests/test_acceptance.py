"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The scale smoke test (criterion 9) takes a few
minutes; deselect it with ``-m "not slow"`` during development.
"""

import math
import resource
import time

import numpy as np
import pytest

from egms import (
    BenchmarkScores,
    EmbeddingStore,
    SelectionConfig,
    SimilarityState,
    allocate_budgets,
    augment,
    avg_rel,
    build_similarity,
    gen_synthetic,
    greedy_sample_cluster,
    oracle_max_entropy_subset,
    perplexity_from_nlls,
    select,
    serialize_selection_manifest,
    von_neumann_entropy,
)


def _report(num: int, name: str, passed: bool, detail: str = ""):
    line = f"{'PASS' if passed else 'FAIL'} criterion {num:2d}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def test_criterion_01_avg_rel_reproduction():
    rows = {
        "mmc_out_of_domain": (
            (19.70, 33.43, 46.96, 79.44, 31.25, 6.90, 20.60),
            (21.70, 33.55, 45.60, 73.36, 28.91, 7.20, 23.50),
            99.04,
        ),
        "ecd_out_of_domain": (
            (23.10, 54.16, 60.00, 81.84, 44.79, 12.00, 34.80),
            (22.80, 57.28, 61.68, 78.00, 50.69, 15.50, 40.20),
            92.92,
        ),
        "ecd_with_in_domain": (
            (23.10, 54.16, 60.00, 81.84, 44.79, 12.00, 34.80, 18.14, 40.03),
            (22.80, 57.28, 61.68, 78.00, 50.69, 15.50, 40.20, 23.04, 51.96),
            89.58,
        ),
    }
    got = {}
    ok = True
    for name, (subset, fullset, want) in rows.items():
        scores = BenchmarkScores(
            labels=tuple(f"b{i}" for i in range(len(subset))),
            subset_scores=subset,
            fullset_scores=fullset,
        )
        got[name] = avg_rel(scores)
        ok = ok and abs(got[name] - want) <= 0.01
    detail = " ".join(f"{k}={v:.4f}" for k, v in got.items())
    _report(1, "reference relative-accuracy scorecards reproduced within 0.01", ok, detail)


def test_criterion_02_incremental_equivalence():
    store, _ = gen_synthetic(400, 8, 4, 0.6, seed=202)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 65))
        rows = rng.choice(store.count, size=k, replace=False)
        sigma = float(rng.uniform(0.2, 1.5))
        chain = build_similarity(store, rows[:1], sigma)
        for r in rows[1:]:
            chain = augment(chain, store, int(r), sigma)
        scratch = build_similarity(store, rows, sigma)
        worst = max(worst, abs(von_neumann_entropy(chain) - von_neumann_entropy(scratch)))
    _report(2, "augment-chain entropy equals from-scratch within 1e-9", worst <= 1e-9, f"worst={worst:.2e}")


def test_criterion_03_greedy_step_exactness():
    store, _ = gen_synthetic(2000, 6, 8, 0.7, seed=303)
    rng = np.random.default_rng(3)
    start = time.monotonic()
    mismatches = 0
    for run in range(50):
        size = int(rng.integers(30, 201))
        members = np.sort(rng.choice(store.count, size=size, replace=False))
        budget = int(rng.integers(3, 15))
        res = greedy_sample_cluster(
            store, members, budget, size, 0.5, np.random.default_rng(9000 + run)
        )
        selected = res.selected[:2].tolist()
        for accepted in res.selected[len(selected):]:
            base = von_neumann_entropy(build_similarity(store, selected, 0.5))
            best_gain, best_row = None, None
            for cand in members:
                if cand in selected:
                    continue
                e = von_neumann_entropy(build_similarity(store, selected + [int(cand)], 0.5))
                gain = e - base
                if best_gain is None or gain > best_gain or (gain == best_gain and cand < best_row):
                    best_gain, best_row = gain, int(cand)
            if best_row != int(accepted):
                mismatches += 1
            selected.append(int(accepted))
    elapsed = time.monotonic() - start
    _report(
        3,
        "greedy accepts equal the naive full-recomputation argmax, exactly",
        mismatches == 0 and elapsed < 60.0,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


def test_criterion_04_entropy_bounds_and_extremes():
    store, _ = gen_synthetic(500, 6, 5, 0.6, seed=404)
    rng = np.random.default_rng(4)
    ok = True
    worst_low, worst_high = 0.0, 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 33))
        rows = rng.choice(store.count, size=t, replace=False)
        e = von_neumann_entropy(build_similarity(store, rows, float(rng.uniform(0.1, 3.0))))
        # upper bound checked with float headroom (ln t is attained exactly
        # in the mutually-dissimilar limit)
        ok = ok and (0.0 <= e <= math.log(t) + 1e-9)
        worst_low = min(worst_low, e)
        worst_high = max(worst_high, e - math.log(t))
    for n in (2, 3, 4, 8, 17, 33):
        ident = von_neumann_entropy(SimilarityState(np.eye(n), np.arange(n)))
        ones = von_neumann_entropy(SimilarityState(np.ones((n, n)), np.arange(n)))
        ok = ok and abs(ident - math.log(n)) <= 1e-9 and abs(ones) <= 1e-9
    _report(4, "entropy bounds hold; identity and all-ones hit the extremes", ok)


def test_criterion_05_budget_conservation():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        L = int(rng.integers(1, 50))
        sizes = rng.integers(1, 80, size=L)
        B = int(rng.integers(1, sizes.sum() + 1))
        budgets = allocate_budgets(sizes.tolist(), B)
        ok = ok and budgets.sum() == B and (budgets <= sizes).all()
        if B >= L:
            ok = ok and (budgets >= 1).all()
        ok = ok and (budgets >= 0).all()
    _report(5, "budgets sum exactly to B, capped by size, >=1 when feasible", ok)


def test_criterion_06_determinism_and_worker_invariance():
    store, metas = gen_synthetic(800, 8, 6, 0.4, seed=606)
    texts = []
    for _ in range(3):
        cfg = SelectionConfig(budget=90, clusters=8, candidate_size=25, seed=31, workers=2)
        texts.append(serialize_selection_manifest(select(store, metas, "exam", cfg)[0]))
    for workers in (1, 8):
        cfg = SelectionConfig(budget=90, clusters=8, candidate_size=25, seed=31, workers=workers)
        texts.append(serialize_selection_manifest(select(store, metas, "exam", cfg)[0]))
    ok = all(t == texts[0] for t in texts)
    _report(6, "manifests byte-identical across 3 runs and G in {1,2,8}", ok)


def test_criterion_07_diversity_superiority():
    # desk-scale stand-in for downstream fine-tuning comparisons: the
    # exp-scaled entropy ordering of the strategies must hold
    store, metas = gen_synthetic(1000, 8, 10, 0.15, seed=707)
    row_of = {m.id: i for i, m in enumerate(metas)}

    def exp_entropy(manifest):
        rows = np.array([row_of[s] for s in manifest.selected])
        return math.exp(von_neumann_entropy(build_similarity(store, rows, 0.5)))

    exam_vals, rand_vals, mmd_vals = [], [], []
    for seed in range(20):
        cfg = SelectionConfig(budget=100, clusters=10, candidate_size=100, seed=seed, workers=2)
        exam_vals.append(exp_entropy(select(store, metas, "exam", cfg)[0]))
        rand_vals.append(exp_entropy(select(store, metas, "random", cfg)[0]))
        mmd_vals.append(exp_entropy(select(store, metas, "mmd_minimize", cfg)[0]))
    exam_mean, rand_mean, mmd_mean = map(np.mean, (exam_vals, rand_vals, mmd_vals))
    ok = exam_mean > rand_mean and exam_mean > mmd_mean
    _report(
        7,
        "mean exp-scaled entropy: greedy beats random and mmd baselines",
        ok,
        f"exam={exam_mean:.2f} random={rand_mean:.2f} mmd={mmd_mean:.2f}",
    )


def test_criterion_08_oracle_proximity():
    # well-separated instances: unit minimum pairwise distance, bandwidth
    # chosen so the closest pair has similarity 0.3
    sigma = float(np.sqrt(1.0 / (-2.0 * np.log(0.3))))
    worst = 1.0
    for inst_seed in range(30):
        rng = np.random.default_rng(inst_seed)
        n = int(rng.integers(10, 15))
        k = int(rng.integers(3, 7))
        pts = rng.normal(size=(n, 4))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        pts /= np.sqrt(d2[~np.eye(n, dtype=bool)].min())
        store = EmbeddingStore(pts)
        res = greedy_sample_cluster(
            store, np.arange(n), k, n, sigma, np.random.default_rng(inst_seed + 7777)
        )
        greedy_ent = von_neumann_entropy(build_similarity(store, res.selected, sigma))
        _, oracle_ent = oracle_max_entropy_subset(store, np.arange(n), k, sigma)
        worst = min(worst, greedy_ent / oracle_ent)
    _report(8, "greedy entropy >= 0.95 x exhaustive oracle on 30 instances", worst >= 0.95, f"worst={worst:.4f}")


@pytest.mark.slow
def test_criterion_09_scale_smoke():
    store, metas = gen_synthetic(100_000, 64, 10, 1.0, seed=909)
    cfg = SelectionConfig(budget=20_000, clusters=1000, candidate_size=100, seed=7, workers=8)
    start = time.monotonic()
    manifest = select(store, metas, "exam", cfg)[0]
    elapsed = time.monotonic() - start
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    ok = len(manifest.selected) == 20_000 and elapsed < 600.0 and peak_gib < 4.0
    _report(
        9,
        "100k x 64 end-to-end run under 10 minutes and 4 GiB",
        ok,
        f"elapsed={elapsed:.0f}s peak={peak_gib:.2f}GiB selected={len(manifest.selected)}",
    )


def test_criterion_10_perplexity_closed_form():
    ok = perplexity_from_nlls([0.0, 0.0, 0.0]) == 1.0
    ok = ok and abs(perplexity_from_nlls([math.log(2), math.log(2)]) - 2.0) <= 1e-12
    rng = np.random.default_rng(10)
    for _ in range(1000):
        nlls = rng.exponential(0.8, size=int(rng.integers(1, 16)))
        bumped = nlls.copy()
        bumped[int(rng.integers(nlls.size))] += float(rng.uniform(1e-6, 1.0))
        ok = ok and perplexity_from_nlls(bumped) > perplexity_from_nlls(nlls)
    _report(10, "perplexity closed form exact; strictly monotone in NLLs", ok)

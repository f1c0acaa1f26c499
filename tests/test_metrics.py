"""Avg-Rel metric, diversity report, and the exhaustive entropy oracle."""

from dataclasses import replace

import numpy as np
import pytest

from egms import (
    BenchmarkScores,
    EmbeddingStore,
    InputError,
    SelectionConfig,
    avg_rel,
    build_similarity,
    diversity_report,
    gen_synthetic,
    greedy_sample_cluster,
    load_benchmark_scores,
    oracle_max_entropy_subset,
    select,
    von_neumann_entropy,
)


def make_scores(subs, fulls):
    return BenchmarkScores(
        labels=tuple(f"b{i}" for i in range(len(subs))),
        subset_scores=tuple(subs),
        fullset_scores=tuple(fulls),
    )


class TestAvgRel:
    def test_identity_is_100(self):
        s = make_scores([12.5, 80.0, 3.0], [12.5, 80.0, 3.0])
        assert avg_rel(s) == pytest.approx(100.0, abs=1e-12)

    def test_permutation_invariant(self):
        subs, fulls = [10.0, 20.0, 30.0], [12.0, 18.0, 33.0]
        base = avg_rel(make_scores(subs, fulls))
        perm = [2, 0, 1]
        assert avg_rel(make_scores([subs[i] for i in perm], [fulls[i] for i in perm])) == pytest.approx(base)

    def test_scales_linearly(self):
        subs, fulls = [10.0, 20.0, 30.0], [12.0, 18.0, 33.0]
        base = avg_rel(make_scores(subs, fulls))
        assert avg_rel(make_scores([3 * s for s in subs], fulls)) == pytest.approx(3 * base)

    def test_errors(self):
        with pytest.raises(InputError):
            make_scores([1.0], [1.0, 2.0])
        with pytest.raises(InputError):
            make_scores([1.0], [0.0])
        with pytest.raises(InputError):
            make_scores([], [])

    def test_scores_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("# benchmark, subset, fullset\nqa, 50.0, 40.0\nreason, 30.0, 60.0\n")
        s = load_benchmark_scores(path)
        assert s.labels == ("qa", "reason")
        assert avg_rel(s) == pytest.approx(100.0 / 2 * (50 / 40 + 30 / 60))

    def test_scores_file_bad_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("qa, 50.0\n")
        with pytest.raises(InputError, match="line 1"):
            load_benchmark_scores(path)

    def test_scores_file_non_utf8_byte_names_the_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"qa, 50.0, 40.0\nre\xffason, 30.0, 60.0\n")
        with pytest.raises(InputError, match=r"scores file .* line 2 is not UTF-8"):
            load_benchmark_scores(path)

    def test_missing_scores_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read scores file"):
            load_benchmark_scores(tmp_path / "absent.csv")


@pytest.fixture(scope="module")
def store():
    s, _ = gen_synthetic(64, 4, 4, 0.5, seed=9)
    return s


class TestOracle:

    def test_full_set_when_k_equals_rows(self, store):
        rows = [3, 8, 15]
        subset, ent = oracle_max_entropy_subset(store, rows, 3, 0.5)
        assert subset == (3, 8, 15)
        assert ent == pytest.approx(von_neumann_entropy(build_similarity(store, rows, 0.5)))

    def test_k_one_breaks_tie_to_lowest_index(self, store):
        subset, ent = oracle_max_entropy_subset(store, [30, 7, 19], 1, 0.5)
        assert subset == (7,)
        assert ent == 0.0

    def test_coincident_pairs_pick_one_each(self):
        rng = np.random.default_rng(13)
        centers = rng.normal(size=(4, 3)) * 8.0
        pts = np.repeat(centers, 2, axis=0)  # rows 0,1 | 2,3 | 4,5 | 6,7
        store = EmbeddingStore(pts)
        subset, _ = oracle_max_entropy_subset(store, np.arange(8), 4, 0.5)
        assert sorted(r // 2 for r in subset) == [0, 1, 2, 3]

    def test_guard_on_instance_size(self, store):
        with pytest.raises(InputError, match="too large"):
            oracle_max_entropy_subset(store, np.arange(21), 3, 0.5)

    def test_oracle_at_least_greedy(self, store):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rows = np.sort(rng.choice(store.count, size=12, replace=False))
            k = int(rng.integers(2, 7))
            res = greedy_sample_cluster(store, rows, k, rows.size, 0.5, np.random.default_rng(1))
            _, oracle_ent = oracle_max_entropy_subset(store, rows, k, 0.5)
            greedy_ent = von_neumann_entropy(build_similarity(store, res.selected, 0.5))
            assert oracle_ent >= greedy_ent - 1e-12


@pytest.fixture(scope="module")
def data():
    return gen_synthetic(300, 6, 4, 0.25, seed=30)


class TestDiversityReport:

    def test_random_vs_itself_is_exactly_zero(self, data):
        store, metas = data
        cfg = SelectionConfig(budget=40, clusters=4, candidate_size=10, seed=5)
        report = diversity_report(store, metas, "random", cfg, n_seeds=3)
        assert report.gain_ratio_pct == 0.0
        assert report.mean_exp_entropy == report.random_mean_exp_entropy

    def test_single_seed_degenerate_stats(self, data):
        store, metas = data
        cfg = SelectionConfig(budget=30, clusters=4, candidate_size=10, seed=2)
        report = diversity_report(store, metas, "exam", cfg, n_seeds=1)
        assert report.min_entropy == report.max_entropy == report.mean_entropy
        assert len(report.seeds) == 1

    def test_exam_beats_random_on_blobs(self, data):
        store, metas = data
        cfg = SelectionConfig(budget=40, clusters=4, candidate_size=20, seed=0)
        report = diversity_report(store, metas, "exam", cfg, n_seeds=4)
        assert report.gain_ratio_pct > 0.0

    def test_deterministic(self, data):
        store, metas = data
        cfg = SelectionConfig(budget=25, clusters=4, candidate_size=10, seed=8)
        a = diversity_report(store, metas, "exam", cfg, n_seeds=2)
        b = diversity_report(store, metas, "exam", cfg, n_seeds=2)
        assert a == b

    def test_normalize_matches_the_per_seed_runs(self, data):
        # each seed selects from the normalized rows and measures the subset
        # there, for the strategy and for the random reference alike
        store, metas = data
        cfg = SelectionConfig(budget=30, clusters=4, candidate_size=10, seed=4, normalize=True)
        report = diversity_report(store, metas, "exam", cfg, n_seeds=3)
        unit = store.l2_normalized()
        row_of = {meta.id: i for i, meta in enumerate(metas)}

        def entropies(strategy):
            ents = []
            for s in report.seeds:
                manifest, _ = select(store, metas, strategy, replace(cfg, seed=s))
                rows = [row_of[sid] for sid in manifest.selected]
                ents.append(von_neumann_entropy(build_similarity(unit, rows, cfg.sigma)))
            return np.asarray(ents)

        ents = entropies("exam")
        rand = entropies("random")
        assert report.seeds == (4, 5, 6)
        assert (report.mean_entropy, report.min_entropy, report.max_entropy) == (ents.mean(), ents.min(), ents.max())
        assert report.mean_exp_entropy == np.exp(ents).mean()
        assert report.random_mean_exp_entropy == np.exp(rand).mean()
        plain = diversity_report(store, metas, "exam", replace(cfg, normalize=False), n_seeds=3)
        assert plain.mean_entropy != report.mean_entropy

    def test_rejects_bad_seed_count(self, data):
        store, metas = data
        with pytest.raises(InputError):
            diversity_report(store, metas, "exam", SelectionConfig(budget=5), 0)

    def test_rejects_unknown_strategy(self, data):
        store, metas = data
        with pytest.raises(InputError, match="unknown strategy 'bogus'"):
            diversity_report(store, metas, "bogus", SelectionConfig(budget=5, clusters=2), 1)

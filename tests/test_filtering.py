"""Perplexity and extreme-tail filtering."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from egms import InputError, SampleMeta, filter_extremes, perplexity_from_nlls, resolve_ppls


class TestPerplexity:
    def test_zero_nlls_give_one(self):
        assert perplexity_from_nlls([0.0, 0.0, 0.0]) == 1.0

    def test_closed_form(self):
        assert perplexity_from_nlls([math.log(2), math.log(2)]) == pytest.approx(2.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="empty NLL"):
            perplexity_from_nlls([])

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            perplexity_from_nlls([0.1, -0.2])

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            perplexity_from_nlls([0.1, np.nan])

    def test_monotone_in_every_entry(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            nlls = rng.exponential(1.0, size=int(rng.integers(1, 12)))
            base = perplexity_from_nlls(nlls)
            bumped = nlls.copy()
            i = int(rng.integers(nlls.size))
            bumped[i] += float(rng.uniform(0.01, 2.0))
            assert perplexity_from_nlls(bumped) > base


class TestResolvePpls:
    def test_prefers_stored_ppl(self):
        metas = [SampleMeta(id="a", ppl=5.0, nlls=(0.0,)), SampleMeta(id="b", nlls=(math.log(3),))]
        out = resolve_ppls(metas)
        assert out[0] == 5.0
        assert out[1] == pytest.approx(3.0)

    def test_nll_only_matches_perplexity_from_nlls(self):
        rng = np.random.default_rng(7)
        metas = [SampleMeta(id=f"n{i}", nlls=tuple(rng.exponential(1.0, size=i % 9 + 1))) for i in range(50)]
        assert resolve_ppls(metas).tolist() == [perplexity_from_nlls(m.nlls) for m in metas]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e308) | st.just(-0.0), min_size=1, max_size=40))
    def test_packed_nlls_give_the_bits_of_a_tuple(self, nlls):
        meta = SampleMeta(id="a", nlls=nlls)
        try:
            expected = perplexity_from_nlls(tuple(nlls))
        except InputError as exc:  # an overflow: the same error, naming the sample
            with pytest.raises(InputError) as info:
                resolve_ppls([meta])
            assert str(info.value) == f"sample 'a' (row 0): {exc}"
        else:
            assert resolve_ppls([meta])[0].tobytes() == np.float64(expected).tobytes()

    def test_empty_nlls_rejected(self):
        with pytest.raises(InputError, match="empty NLL"):
            resolve_ppls([SampleMeta(id="a", nlls=())])

    def test_fails_loudly_without_signal(self):
        with pytest.raises(InputError, match="neither ppl nor nlls"):
            resolve_ppls([SampleMeta(id="a", ppl=2.0), SampleMeta(id="nosignal")])


def brute_force_filter(ppls, tail_low, tail_high):
    """Oracle: sort-and-cut with the documented tie rule."""
    n = len(ppls)
    n_low = math.floor(n * tail_low)
    n_high = math.floor(n * tail_high)
    asc = sorted(range(n), key=lambda i: (ppls[i], i))
    removed_low = set(asc[:n_low])
    rest = [i for i in asc if i not in removed_low]
    desc = sorted(rest, key=lambda i: (-ppls[i], i))
    removed_high = set(desc[:n_high])
    kept = [i for i in range(n) if i not in removed_low and i not in removed_high]
    return kept, removed_low, removed_high


class TestFilterExtremes:
    def test_five_percent_each_side(self):
        rng = np.random.default_rng(0)
        ppls = rng.lognormal(1.0, 0.5, size=100)
        fs = filter_extremes(ppls, 0.05, 0.05)
        assert fs.kept.size == 90
        assert fs.removed_low.size == 5 and fs.removed_high.size == 5

    def test_empty_sequence_is_an_input_error(self):
        with pytest.raises(InputError, match="empty"):
            filter_extremes([], 0.05, 0.05)

    def test_zero_tails_keep_everything(self):
        ppls = np.array([3.0, 1.0, 2.0])
        fs = filter_extremes(ppls, 0.0, 0.0)
        assert np.array_equal(fs.kept, [0, 1, 2])
        assert fs.removed_low.size == 0 and fs.removed_high.size == 0

    def test_matches_sort_and_cut_oracle(self):
        ppls = np.arange(1.0, 11.0)
        fs = filter_extremes(ppls, 0.1, 0.1)
        kept, low, high = brute_force_filter(ppls.tolist(), 0.1, 0.1)
        assert low == {0} and high == {9}
        assert set(fs.removed_low) == low
        assert set(fs.removed_high) == high
        assert fs.kept.tolist() == kept

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            ppls = rng.lognormal(0.5, 0.6, size=n)
            if rng.random() < 0.3:  # force heavy ties
                ppls = np.round(ppls, 1) + 0.1
            tl, th = rng.uniform(0, 0.45), rng.uniform(0, 0.45)
            fs = filter_extremes(ppls, tl, th)
            kept, low, high = brute_force_filter(ppls.tolist(), tl, th)
            assert fs.kept.tolist() == kept
            assert set(fs.removed_low) == low and set(fs.removed_high) == high
            # partition and size formula
            assert fs.kept.size == n - math.floor(n * tl) - math.floor(n * th)
            together = np.concatenate([fs.kept, fs.removed_low, fs.removed_high])
            assert np.array_equal(np.sort(together), np.arange(n))
            # kept values inside the reported thresholds
            assert ppls[fs.kept].min() >= fs.thresholds[0]
            assert ppls[fs.kept].max() <= fs.thresholds[1]

    def test_ties_removed_by_ascending_index(self):
        ppls = np.full(10, 2.5)
        fs = filter_extremes(ppls, 0.2, 0.2)
        assert fs.removed_low.tolist() == [0, 1]
        # the high tail takes the lowest indices among what is left
        assert fs.removed_high.tolist() == [2, 3]

    def test_order_insensitive(self):
        rng = np.random.default_rng(21)
        ppls = rng.lognormal(0.7, 0.4, size=40)
        ids = [f"s{i}" for i in range(40)]
        fs = filter_extremes(ppls, 0.1, 0.15)
        kept_ids = {ids[i] for i in fs.kept}
        perm = rng.permutation(40)
        fs_p = filter_extremes(ppls[perm], 0.1, 0.15)
        kept_ids_p = {ids[perm[i]] for i in fs_p.kept}
        assert kept_ids == kept_ids_p

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            filter_extremes([1.0, 2.0], 0.6, 0.5)
        with pytest.raises(InputError):
            filter_extremes([1.0, np.inf], 0.1, 0.1)
        with pytest.raises(InputError):
            filter_extremes([1.0, -2.0], 0.1, 0.1)

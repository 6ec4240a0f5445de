import itertools
import math

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.dist import (NEG_INF, Bernoulli, Categorical, Deterministic,
                         DistributionError, GaussianMixture, Normal,
                         PlackettLuce, top_k)
from ecosim.rng import RngStream
from ecosim.tensor import Tape, Tensor

from conftest import relative_error


def stream(seed=0, tag="test"):
    return RngStream(seed, tag, "x", 0)


class TestDeterministic:
    def test_sample_returns_loc_exactly(self):
        d = Deterministic(np.array([3.0, 4.0]))
        np.testing.assert_array_equal(d.sample(stream()), [3.0, 4.0])

    def test_log_prob_zero_when_consistent(self):
        # elementwise: one log-prob per element, not per batch row
        d = Deterministic(Tensor(np.zeros((3, 2))))
        np.testing.assert_array_equal(d.log_prob(Tensor(np.zeros((3, 2)))).data,
                                      np.zeros((3, 2)))

    def test_log_prob_sentinel_on_mismatch(self):
        d = Deterministic(Tensor(np.zeros(3)))
        lp = d.log_prob(Tensor(np.array([0.0, 1.0, 0.0]))).data
        assert lp[0] == 0.0 and lp[1] == NEG_INF

    def test_integer_payloads_compared_exactly(self):
        d = Deterministic(np.array([1, 2], dtype=np.int64))
        assert d.is_consistent(np.array([1, 2]))
        assert not d.is_consistent(np.array([1, 3]))

    def test_consistency_verdicts_past_the_exact_match(self):
        loc = np.array([[0.5, -2.0], [3.0, 0.0]])
        d = Deterministic(Tensor(loc))
        assert d.is_consistent(Tensor(loc.copy()))
        assert d.is_consistent(Tensor(loc + 1e-13))           # within 1e-12
        assert not d.is_consistent(Tensor(loc + 1e-11))
        nan = loc.copy()
        nan[1, 0] = np.nan
        assert not d.is_consistent(Tensor(nan))
        assert not Deterministic(Tensor(nan)).is_consistent(Tensor(nan.copy()))
        # an infinite loc matches itself exactly, but not the other infinity
        inf = loc.copy()
        inf[0, 1] = np.inf
        assert Deterministic(Tensor(inf)).is_consistent(Tensor(inf.copy()))
        assert Deterministic(Tensor(inf)).is_consistent(Tensor(inf + 1e-13))
        flipped = inf.copy()
        flipped[0, 1] = -np.inf
        assert not Deterministic(Tensor(inf)).is_consistent(Tensor(flipped))
        lp = Deterministic(Tensor(np.array([np.inf, -np.inf, np.inf, 1.0, np.nan]))).log_prob(
            Tensor(np.array([np.inf, -np.inf, -np.inf, np.inf, np.nan]))).data
        np.testing.assert_array_equal(lp, [0.0, 0.0, NEG_INF, NEG_INF, NEG_INF])
        assert not Deterministic(np.array([4, 5])).is_consistent(np.array([4, 6]))
        assert not d.is_consistent(Tensor(loc[:1]))


class TestNormal:
    def test_log_prob_standard_at_zero(self):
        lp = Normal(0.0, 1.0).log_prob(0.0).item()
        assert abs(lp - (-0.9189385332046727)) < 1e-15

    def test_moments_within_mc_error(self):
        n = 100_000
        d = Normal(np.full(n, 0.7), np.full(n, 1.3))
        x = d.sample(stream(1))
        se_mean = 1.3 / math.sqrt(n)
        se_var = 1.3**2 * math.sqrt(2.0 / n)
        assert abs(x.mean() - 0.7) < 4 * se_mean
        assert abs(x.var() - 1.3**2) < 4 * se_var

    def test_scale_must_be_positive(self):
        with pytest.raises(DistributionError, match="positive"):
            Normal(0.0, 0.0)

    def test_dloc_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        loc = rng.normal(size=6)
        value = rng.normal(size=6)
        tape = Tape()
        loct = tape.watch(loc)
        lp = T.reduce_sum(Normal(loct, 0.8).log_prob(Tensor(value)))
        g = tape.backward(lp)[loct].data
        h = 1e-6
        fd = np.zeros(6)
        for i in range(6):
            lo, hi = loc.copy(), loc.copy()
            hi[i] += h
            lo[i] -= h
            fd[i] = (float(T.reduce_sum(Normal(Tensor(hi), 0.8).log_prob(Tensor(value))).data)
                     - float(T.reduce_sum(Normal(Tensor(lo), 0.8).log_prob(Tensor(value))).data)) / (2 * h)
        assert relative_error(g, fd) < 1e-5


class TestCategorical:
    def test_symmetric_two_way_log_prob(self):
        lp = Categorical(Tensor(np.zeros((1, 2)))).log_prob(np.array([1])).data
        assert abs(lp[0] - math.log(0.5)) < 1e-12

    def test_empirical_frequency_within_band(self):
        d = Categorical(Tensor(np.zeros((100_000, 2))))
        draws = d.sample(stream(2))
        assert 0.494 <= (draws == 0).mean() <= 0.506

    def test_support_probabilities_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        d = Categorical(logits)
        total = sum(np.exp(d.log_prob(np.full(4, i)).data) for i in range(5))
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_rejects_nonfinite_logits(self):
        with pytest.raises(DistributionError, match="finite"):
            Categorical(Tensor(np.array([0.0, np.inf])))

    def test_rejects_logits_without_an_axis(self):
        with pytest.raises(DistributionError, match="at least one axis"):
            Categorical(Tensor(np.array(0.0)))

    def test_inverse_cdf_frequencies_match_softmax(self):
        # Pearson chi-square over 5 unequal categories at a fixed seed,
        # against the 0.999 quantile of chi-square with 4 degrees of freedom.
        logits = np.array([1.5, 0.0, -0.7, 0.4, -2.0])
        n = 20_000
        draws = Categorical(Tensor(np.tile(logits, (n, 1)))).sample(stream(9))
        p = np.exp(logits) / np.exp(logits).sum()
        observed = np.bincount(draws, minlength=5)
        chi2 = float(((observed - n * p) ** 2 / (n * p)).sum())
        assert chi2 < 18.467

    def test_one_uniform_per_row(self):
        s = stream(4)
        Categorical(Tensor(np.zeros((6, 3, 20)))).sample(s)
        assert s._cursor == 3

    def test_zero_mass_category_is_never_drawn(self):
        class Fixed:
            def __init__(self, u):
                self.u = u

            def uniform_field(self, shape):
                return np.full(shape, self.u)

        # exp(-800) underflows to 0: those categories have no mass.
        logits = Tensor(np.array([[-800.0, 0.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0, -800.0],
                                  [0.0, -800.0, 0.0, -800.0],
                                  [-800.0, -800.0, -800.0, 0.0]]))
        d = Categorical(logits)
        # 1.0 itself: RngStream maps the all-ones 53 bits to (2^53 - 0.5)
        # * 2^-53, which rounds to 1.0, so the scaled uniform can reach
        # the row total.
        for top in (1.0 - 2.0**-53, 1.0):
            np.testing.assert_array_equal(d.sample(Fixed(top)), [3, 2, 2, 3])
        np.testing.assert_array_equal(d.sample(Fixed(2.0**-54)), [1, 0, 0, 3])

    def test_batch_row_matches_batch_one_draw_at_its_offset(self):
        logits = np.random.default_rng(3).normal(size=(6, 3, 5))
        big = Categorical(Tensor(logits)).sample(RngStream(4, "v", "topic", 2))
        for row in range(6):
            solo = Categorical(Tensor(logits[row:row + 1])).sample(
                RngStream(4, "v", "topic", 2, row_offset=row))
            np.testing.assert_array_equal(big[row:row + 1], solo)


class TestBernoulli:
    def test_log_prob_matches_closed_form(self):
        logit = 0.67
        d = Bernoulli(Tensor(np.array([logit])))
        p = 1.0 / (1.0 + math.exp(-logit))
        assert abs(d.log_prob(np.array([1])).data[0] - math.log(p)) < 1e-12
        assert abs(d.log_prob(np.array([0])).data[0] - math.log(1 - p)) < 1e-12

    def test_sample_frequency(self):
        d = Bernoulli(Tensor(np.full(50_000, 1.2)))
        draws = d.sample(stream(3))
        p = 1.0 / (1.0 + math.exp(-1.2))
        assert abs(draws.mean() - p) < 4 * math.sqrt(p * (1 - p) / 50_000)


class TestGaussianMixture:
    def test_moments_match_analytic(self):
        n = 100_000
        w = np.tile([0.25, 0.75], (n, 1))
        locs = np.tile([[[-1.0], [2.0]]], (n, 1, 1))
        scales = np.full((n, 2, 1), 0.5)
        d = GaussianMixture(w, locs, scales)
        x = d.sample(stream(4))[:, 0]
        mean = 0.25 * -1.0 + 0.75 * 2.0
        var = 0.25 * (0.5**2 + 1.0**2) + 0.75 * (0.5**2 + 4.0) - mean**2
        assert abs(x.mean() - mean) < 4 * math.sqrt(var / n)
        assert abs(x.var() - var) < 4 * var * math.sqrt(2.0 / n)

    def test_log_prob_matches_direct_density(self):
        w = np.array([[0.3, 0.7]])
        locs = np.array([[[-1.0, 0.0], [1.0, 1.0]]])
        scales = np.full((1, 2, 2), 0.9)
        d = GaussianMixture(w, locs, scales)
        x = np.array([[0.2, -0.3]])
        direct = 0.0
        for i, wi in enumerate([0.3, 0.7]):
            comp = np.prod(np.exp(-0.5 * ((x[0] - locs[0, i]) / 0.9) ** 2)
                           / (0.9 * math.sqrt(2 * math.pi)))
            direct += wi * comp
        assert abs(d.log_prob(Tensor(x)).data[0] - math.log(direct)) < 1e-12

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DistributionError, match="sum to 1"):
            GaussianMixture(np.array([[0.5, 0.6]]),
                            np.zeros((1, 2, 1)), np.ones((1, 2, 1)))


class TestPlackettLuce:
    def test_strong_leader_is_ranked_first(self):
        d = PlackettLuce(Tensor(np.tile([10.0, -10.0, -10.0], (10_000, 1))), k=2)
        draws = d.sample(stream(5))
        assert (draws[:, 0] == 0).mean() > 0.999

    def test_log_prob_matches_sequential_softmax_enumeration(self):
        logits = np.array([0.4, -1.2, 0.9])
        d = PlackettLuce(Tensor(logits[None, :]), k=3)
        total = 0.0
        for perm in itertools.permutations(range(3)):
            lp = d.log_prob(np.array([perm])).data[0]
            remaining = list(range(3))
            expected = 0.0
            for i in perm:
                expected += logits[i] - math.log(sum(math.exp(logits[j])
                                                     for j in remaining))
                remaining.remove(i)
            assert abs(lp - expected) < 1e-12
            total += math.exp(lp)
        assert abs(total - 1.0) < 1e-9

    def test_top_k_support_sums_to_one(self):
        logits = np.random.default_rng(1).normal(size=4)
        d = PlackettLuce(Tensor(logits[None, :]), k=2)
        total = sum(math.exp(d.log_prob(np.array([pair])).data[0])
                    for pair in itertools.permutations(range(4), 2))
        assert abs(total - 1.0) < 1e-9

    def test_gumbel_top_k_matches_sequential_frequencies(self):
        # Empirical check that Gumbel-top-k sampling follows the
        # sequential-softmax law it is scored by.
        logits = np.array([1.0, 0.0, -1.0])
        n = 60_000
        d = PlackettLuce(Tensor(np.tile(logits, (n, 1))), k=2)
        draws = d.sample(stream(6))
        for pair in itertools.permutations(range(3), 2):
            p = math.exp(d.log_prob(np.tile(pair, (n, 1))).data[0])
            freq = np.mean((draws[:, 0] == pair[0]) & (draws[:, 1] == pair[1]))
            assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_top_k_ranks_equal_the_stable_sort(self, k):
        # Tied logits: only the Gumbel noise separates the tied items.
        logits = np.tile([0.5, 0.0, 0.5, -1.0, 0.0, 0.5], (400, 1))
        noisy = logits + stream(8).gumbels(logits.shape)
        expected = np.argsort(-noisy, axis=-1, kind="stable")[..., :k]
        np.testing.assert_array_equal(top_k(noisy.copy(), k), expected)
        drawn = PlackettLuce(Tensor(logits), k=k).sample(stream(8))
        np.testing.assert_array_equal(drawn, expected)

    def test_k_out_of_range(self):
        with pytest.raises(DistributionError, match="out of range"):
            PlackettLuce(Tensor(np.zeros((1, 3))), k=4)


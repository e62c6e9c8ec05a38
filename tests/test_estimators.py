import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualratio import (
    Population,
    SampleDesign,
    Weights,
    dual_terms,
    estimate_arithmetic,
    estimate_classic_ratio,
    estimate_geometric,
    estimate_harmonic,
    estimate_mean_per_unit,
    estimate_product,
)
from dualratio.errors import (
    NegativeWeight,
    NonPositiveTerm,
    ZeroDualMean,
    ZeroSampleMean,
)
from conftest import random_nonneg_weights, random_population


def sample_with_means(ybar, xbar):
    """A one-unit sample whose means are exactly ``ybar`` and ``xbar``."""
    return Population(y=[ybar], x=[list(xbar)])


def drawn(pop, subset):
    """The units ``subset`` of ``pop`` as a sample, the form ``estimate`` reads."""
    return Population(pop.y[list(subset)], pop.x[list(subset)])


class TestSampleMeans:
    def test_hand_mean(self):
        pop = Population(y=[2.0, 4.0, 6.0], x=[[1.0], [2.0], [3.0]])
        assert drawn(pop, (0, 2)).ybar == 4.0

    def test_census_recovers_population_mean(self):
        pop = Population(y=[2.0, 4.0, 6.0, 8.0], x=[[1.0], [2.0], [3.0], [4.0]])
        assert drawn(pop, (0, 1, 2, 3)).ybar == pytest.approx(pop.ybar, rel=1e-15)

    def test_auxiliary_column(self):
        pop = Population(y=[0.0, 0.0, 0.0, 0.0], x=[[1.0], [2.0], [3.0], [4.0]])
        assert drawn(pop, (1, 3)).xbar[0] == 3.0


class TestDualTransform:
    # The term is (ybar / xstar) * xbar_pop: with ybar == xbar == xbar_pop it
    # is xbar_pop exactly only if xstar is, and with ybar == 1 it is
    # xbar_pop / xstar.
    def test_fixed_point_is_exact(self):
        for g in (0.1, 0.3246753246753247, 1.0, 2.5):
            for xbar in (3.0, 7.7, 26441.0):
                assert dual_terms(sample_with_means(xbar, [xbar]), [xbar], g)[0] == xbar

    def test_hand_values(self):
        term = dual_terms(sample_with_means(1.0, [8.0]), [10.0], 0.5)[0]
        assert 10.0 / term == pytest.approx(11.0, rel=1e-15)
        term = dual_terms(sample_with_means(1.0, [2.0]), [3.5], 1.0)[0]
        assert 3.5 / term == pytest.approx(5.0, rel=1e-15)


class TestDualRatios:
    def test_at_population_means(self):
        # xstar = (4, 6), so r = (3, 2) and the terms are r * (4, 6)
        terms = dual_terms(sample_with_means(12.0, [4.0, 6.0]), np.array([4.0, 6.0]), g=0.7)
        assert terms / np.array([4.0, 6.0]) == pytest.approx([3.0, 2.0])
        assert terms == pytest.approx([12.0, 12.0])
        assert (terms > 0.0).all()

    def test_hand_division(self):
        # xbar_pop = 4, g = 1, xbar = 3 -> xstar = 5; ybar = 10 -> r = 2
        terms = dual_terms(sample_with_means(10.0, [3.0]), np.array([4.0]), g=1.0)
        assert terms[0] == 2.0 * 4.0

    def test_constructed_zero_raises(self):
        # g = 1, xbar_pop = 1, xbar = 2 -> xstar = 1 + (1 - 2) = 0 exactly
        with pytest.raises(ZeroDualMean) as err:
            dual_terms(sample_with_means(10.0, [2.0]), np.array([1.0]), g=1.0)
        assert err.value.aux == 1

    def test_negative_xstar_flagged_not_fatal(self):
        # xstar = (-1, 1): a negative term, which gp/hp refuse downstream
        terms = dual_terms(sample_with_means(10.0, [3.0, 1.0]), np.array([1.0, 1.0]), g=1.0)
        assert list(terms) == [-10.0, 10.0]

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10**6))
    def test_consistency_r_times_xstar(self, seed):
        rng = np.random.default_rng(seed)
        ss = sample_with_means(float(rng.uniform(1, 100)), rng.uniform(1, 100, size=3))
        xbar_pop = rng.uniform(50, 100, size=3)
        g = float(rng.uniform(0.05, 1.5))
        xstar = xbar_pop + g * (xbar_pop - ss.xbar)
        r = dual_terms(ss, xbar_pop, g) / xbar_pop
        np.testing.assert_allclose(r * xstar, ss.ybar, rtol=1e-12)


class TestCombinations:
    def test_arithmetic_hand_mean(self):
        terms = np.array([12.0, 8.0])
        assert estimate_arithmetic(terms, Weights.equal(2)) == pytest.approx(10.0)

    def test_arithmetic_degenerate_weight(self):
        terms = np.array([12.0, 8.0])
        assert estimate_arithmetic(terms, Weights([1.0, 0.0])) == pytest.approx(12.0)

    def test_geometric_hand_value(self):
        terms = np.array([12.0, 8.0])
        assert estimate_geometric(terms, Weights.equal(2)) == pytest.approx(
            math.sqrt(96.0), rel=1e-14
        )

    def test_harmonic_hand_value(self):
        terms = np.array([12.0, 8.0])
        assert estimate_harmonic(terms, Weights.equal(2)) == pytest.approx(9.6, rel=1e-14)

    def test_equal_terms_collapse(self):
        terms = np.array([7.5, 7.5, 7.5])
        w = Weights([0.2, 0.5, 0.3])
        for fn in (estimate_arithmetic, estimate_geometric, estimate_harmonic):
            assert fn(terms, w) == pytest.approx(7.5, rel=1e-14)

    def test_product_hand_values(self):
        assert estimate_product(np.array([12.0, 8.0])) == pytest.approx(96.0)
        assert estimate_product(np.array([5.0])) == pytest.approx(5.0)

    def test_product_absorbs_zero(self):
        assert estimate_product(np.array([0.0, 6.0])) == 0.0

    def test_geometric_refuses_nonpositive_terms(self):
        terms = np.array([2.0, -1.0])
        with pytest.raises(NonPositiveTerm) as err:
            estimate_geometric(terms, Weights.equal(2))
        assert err.value.aux == 2
        with pytest.raises(NonPositiveTerm):
            estimate_harmonic(terms, Weights.equal(2))

    def test_geometric_refuses_negative_weights(self):
        terms = np.array([12.0, 8.0])
        w = Weights([1.5, -0.5])
        with pytest.raises(NegativeWeight):
            estimate_geometric(terms, w)
        with pytest.raises(NegativeWeight):
            estimate_harmonic(terms, w)

    def test_single_term_collapse(self):
        terms = np.array([37.25])
        w = Weights([1.0])
        am = estimate_arithmetic(terms, w)
        gm = estimate_geometric(terms, w)
        hm = estimate_harmonic(terms, w)
        assert gm == pytest.approx(am, rel=1e-12)
        assert hm == pytest.approx(am, rel=1e-12)


class TestMeanAndRatio:
    def test_mean_per_unit(self):
        assert estimate_mean_per_unit(sample_with_means(4.0, [1.0])) == 4.0
        pop = Population(y=[2.0, 4.0, 6.0, 8.0], x=[[1.0]] * 4)
        assert estimate_mean_per_unit(drawn(pop, (0, 3))) == 5.0

    def test_classic_ratio_fixed_point(self):
        ss = sample_with_means(9.0, [20.0])
        assert estimate_classic_ratio(ss, 20.0, 0) == pytest.approx(9.0, rel=1e-15)

    def test_classic_ratio_hand_value(self):
        ss = sample_with_means(10.0, [25.0])
        assert estimate_classic_ratio(ss, 20.0, 0) == pytest.approx(8.0)

    def test_classic_ratio_zero_mean(self):
        ss = sample_with_means(10.0, [0.0])
        with pytest.raises(ZeroSampleMean):
            estimate_classic_ratio(ss, 20.0, 0)


class TestEstimatorProperties:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 10**6))
    def test_mean_order_inequality(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        terms = rng.uniform(0.5, 50.0, size=k)
        w = random_nonneg_weights(rng, k)
        am = estimate_arithmetic(terms, w)
        gm = estimate_geometric(terms, w)
        hm = estimate_harmonic(terms, w)
        assert hm <= gm * (1 + 1e-12)
        assert gm <= am * (1 + 1e-12)
        if terms.max() / terms.min() > 1 + 1e-6:
            assert hm < gm < am

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10**6))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        xbar_pop = rng.uniform(10, 60, size=k)
        # sample means near the population means keep every ratio term positive
        ss = sample_with_means(float(rng.uniform(5, 50)),
                               xbar_pop * rng.uniform(0.8, 1.2, size=k))
        w = random_nonneg_weights(rng, k)
        g = float(rng.uniform(0.05, 0.4))
        perm = rng.permutation(k)

        terms = dual_terms(ss, xbar_pop, g)
        terms_p = dual_terms(sample_with_means(ss.ybar, ss.xbar[perm]), xbar_pop[perm], g)
        w_p = Weights(w.alpha[perm])
        for fn in (estimate_arithmetic, estimate_geometric, estimate_harmonic):
            assert fn(terms_p, w_p) == pytest.approx(fn(terms, w), rel=1e-14)
        assert estimate_product(terms_p) == pytest.approx(estimate_product(terms), rel=1e-14)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10**6))
    def test_unbiased_point_at_population_means(self, seed):
        # With xbar == xbar_pop every estimator returns ybar (up to last-bit
        # rounding of the float operations involved).
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        xbar_pop = rng.uniform(5, 500, size=k)
        ss = sample_with_means(float(rng.uniform(1, 1000)), xbar_pop)
        g = float(rng.uniform(0.05, 2.0))
        terms = dual_terms(ss, xbar_pop, g)
        w = random_nonneg_weights(rng, k)
        assert estimate_arithmetic(terms, w) == pytest.approx(ss.ybar, rel=1e-14)
        assert estimate_geometric(terms, w) == pytest.approx(ss.ybar, rel=1e-14)
        assert estimate_harmonic(terms, w) == pytest.approx(ss.ybar, rel=1e-14)
        for i in range(k):
            assert estimate_classic_ratio(ss, float(xbar_pop[i]), i) == pytest.approx(
                ss.ybar, rel=1e-14
            )

    def test_k1_collapse_on_samples(self, rng):
        # Three combinations coincide for a single auxiliary on real samples.
        pop = random_population(rng, N=40, k=1)
        design = SampleDesign(N=40, n=8)
        w = Weights([1.0])
        for _ in range(50):
            idx = np.sort(rng.choice(40, size=8, replace=False))
            terms = dual_terms(drawn(pop, idx), pop.xbar, design.g)
            am = estimate_arithmetic(terms, w)
            gm = estimate_geometric(terms, w)
            hm = estimate_harmonic(terms, w)
            assert gm == pytest.approx(am, rel=1e-12)
            assert hm == pytest.approx(am, rel=1e-12)

import dataclasses

import numpy as np
import pytest

from dualratio import (
    MomentMode,
    Population,
    SampleDesign,
    Weights,
    bias_arithmetic,
    bias_classic_ratio,
    bias_gap,
    bias_geometric,
    bias_harmonic,
    bias_ordering_holds,
    compare_all,
    compute_moments,
    dual_beats_mean,
    moments_from_summary,
    mse_classic_ratio,
    mse_dual_common,
    optimal_weights,
    ratio_beats_mean,
    variance_mean_per_unit,
)
from dualratio.errors import DegenerateVariance, SingularMomentMatrix
from dualratio.moments import MomentSet
from conftest import random_affine_weights, random_moments, random_nonneg_weights, random_population


def make_moments(*, ybar, c0_sq, ci_sq, c0i, cij=None, g=0.5, theta=1.0,
                 mode=MomentMode.PAPER_LITERAL):
    """Hand-built MomentSet; ``cij`` defaults to diag(ci_sq), whose diagonal
    MomentSet reads ``ci_sq`` from."""
    if cij is None:
        cij = np.diag(ci_sq)
    return MomentSet(ybar=ybar, xbar=np.full(len(ci_sq), 10.0), c0_sq=c0_sq, c0i=c0i,
                     cij=cij, g=g, theta=theta, mode=mode)


class TestBiasFormulas:
    def test_arithmetic_hand_value(self):
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[0.04], c0i=[0.02], g=0.5)
        assert bias_arithmetic(m, Weights([1.0])) == pytest.approx(2.0, rel=1e-14)

    def test_zero_moments_give_zero_bias(self):
        m = make_moments(ybar=100.0, c0_sq=0.0, ci_sq=[0.0, 0.0], c0i=[0.0, 0.0])
        w = Weights.equal(2)
        assert bias_arithmetic(m, w) == 0.0
        assert bias_geometric(m, w) == 0.0
        assert bias_harmonic(m, w) == 0.0

    def test_k1_collapse_is_bitwise(self):
        m = make_moments(ybar=321.0, c0_sq=0.07, ci_sq=[0.05], c0i=[0.03], g=0.8)
        w = Weights([1.0])
        assert bias_arithmetic(m, w) == bias_geometric(m, w) == bias_harmonic(m, w)

    def test_symmetric_pair_with_full_correlation_matches_arithmetic(self):
        c = 0.04
        m = make_moments(ybar=50.0, c0_sq=0.09, ci_sq=[c, c], c0i=[0.02, 0.02],
                         cij=[[c, c], [c, c]], g=0.5)
        w = Weights.equal(2)
        assert bias_geometric(m, w) == pytest.approx(bias_arithmetic(m, w), rel=1e-14)

    def test_equal_spacing_identity(self, rng):
        for _ in range(200):
            m = random_moments(rng)
            w = random_nonneg_weights(rng, m.k)
            b_ap = bias_arithmetic(m, w)
            b_gp = bias_geometric(m, w)
            b_hp = bias_harmonic(m, w)
            scale = max(abs(b_ap), abs(b_gp), abs(b_hp), 1e-300)
            assert abs(b_hp + b_ap - 2.0 * b_gp) <= 1e-12 * scale
            delta = bias_gap(m, w)
            assert b_gp - b_ap == pytest.approx(delta, rel=1e-10, abs=1e-12 * scale)
            assert b_hp - b_gp == pytest.approx(delta, rel=1e-10, abs=1e-12 * scale)


class TestMatrixForm:
    """Each analytic against its definition through explicit k x k coefficient
    matrices B_ap = diag(alpha), B_gp = (diag(alpha) + alpha alpha')/2 and
    B_hp = alpha alpha': bias = ybar [g alpha'c0 + g^2 tr(B C)]."""

    @pytest.mark.parametrize("draw_weights", [random_nonneg_weights, random_affine_weights])
    def test_biases_gap_and_mse_match_matrix_form(self, rng, draw_weights):
        for _ in range(100):
            m = random_moments(rng)
            w = draw_weights(rng, m.k)
            a, g, ybar = w.alpha, m.g, m.ybar
            lin = g * float(a @ m.c0i)
            diag, outer = np.diag(a), np.outer(a, a)
            # (analytic, B, weight of the linear term g alpha'c0)
            for analytic, b, lin_weight in ((bias_arithmetic, diag, 1.0),
                                            (bias_geometric, (diag + outer) / 2.0, 1.0),
                                            (bias_harmonic, outer, 1.0),
                                            (bias_gap, (outer - diag) / 2.0, 0.0)):
                expected = ybar * (lin_weight * lin + g * g * float(np.trace(b @ m.cij)))
                # the terms may cancel, so the tolerance is rel 1e-12 of their magnitudes
                size = lin_weight * abs(lin) + g * g * float(np.sum(np.abs(b * m.cij)))
                assert analytic(m, w) == pytest.approx(expected, rel=1e-12,
                                                       abs=1e-12 * abs(ybar) * size)
            expected = ybar * ybar * (m.c0_sq + g * g * float(a @ m.cij @ a) + 2.0 * lin)
            size = m.c0_sq + g * g * float(np.sum(np.abs(outer * m.cij))) + 2.0 * abs(lin)
            assert mse_dual_common(m, w) == pytest.approx(expected, rel=1e-12,
                                                          abs=1e-12 * ybar * ybar * size)


class TestBiasGap:
    def test_single_auxiliary_gap_is_zero(self):
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[0.04], c0i=[0.02])
        assert bias_gap(m, Weights([1.0])) == 0.0

    def test_symmetric_pair_formula(self):
        ybar, g, c = 80.0, 0.6, 0.05
        for rho in (0.0, 0.4, 1.0):
            m = make_moments(ybar=ybar, c0_sq=0.09, ci_sq=[c, c], c0i=[0.01, 0.01],
                             cij=[[c, rho * c], [rho * c, c]], g=g)
            expected = ybar * g * g * c * (rho - 1.0) / 4.0
            assert bias_gap(m, Weights.equal(2)) == pytest.approx(expected, abs=1e-15)

    def test_orthogonal_pair_formula(self):
        ybar, g = 120.0, 0.3
        c1, c2 = 0.04, 0.09
        m = make_moments(ybar=ybar, c0_sq=0.05, ci_sq=[c1, c2], c0i=[0.01, 0.02],
                         cij=[[c1, 0.0], [0.0, c2]], g=g)
        expected = -ybar * g * g * (c1 + c2) / 8.0
        assert bias_gap(m, Weights.equal(2)) == pytest.approx(expected, rel=1e-12)

    def test_gap_nonpositive_for_nonneg_weights(self, rng):
        # alpha' C alpha <= sum_i alpha_i C_ii for any convex alpha and valid
        # correlation structure (Cauchy-Schwarz + Jensen), so Delta <= 0: the
        # harmonic/geometric combinations are then never the more biased ones.
        for _ in range(100):
            m = random_moments(rng)
            w = random_nonneg_weights(rng, m.k)
            assert bias_gap(m, w) <= 1e-12 * abs(m.ybar)


class TestMse:
    def test_dual_common_hand_value(self):
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[0.04], c0i=[0.02], g=0.5)
        assert mse_dual_common(m, Weights([1.0])) == pytest.approx(1200.0, rel=1e-14)

    def test_no_auxiliary_information_collapses_to_mean_variance(self):
        m = make_moments(ybar=70.0, c0_sq=0.04, ci_sq=[0.0, 0.0], c0i=[0.0, 0.0])
        w = Weights.equal(2)
        assert mse_dual_common(m, w) == variance_mean_per_unit(m) == 70.0**2 * 0.04

    def test_variance_mean_per_unit_survey_values(self, table41):
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        v = variance_mean_per_unit(m)
        assert v == pytest.approx(2389.76**2, rel=1e-12)
        assert abs(v - 5710952) <= 2.0
        m_exact = moments_from_summary(table41, MomentMode.SRSWOR_EXACT)
        assert variance_mean_per_unit(m_exact) == pytest.approx(
            (1 / 50 - 1 / 204) * 2389.76**2, rel=1e-12
        )

    def test_classic_ratio_zero_bias_case(self):
        m = make_moments(ybar=90.0, c0_sq=0.05, ci_sq=[0.03], c0i=[0.03])
        assert bias_classic_ratio(m, 0) == 0.0

    def test_classic_ratio_no_information_case(self):
        m = make_moments(ybar=90.0, c0_sq=0.05, ci_sq=[0.0], c0i=[0.0])
        assert mse_classic_ratio(m, 0) == variance_mean_per_unit(m)

    def test_classic_ratio_survey_value(self, table41):
        # The published table prints this value (2802810) on its x2-labeled row.
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        assert mse_classic_ratio(m, 0) == pytest.approx(2802810, rel=5e-3)


class TestPredicates:
    def test_ratio_beats_mean_zero_correlation(self):
        m = make_moments(ybar=10.0, c0_sq=0.04, ci_sq=[0.03], c0i=[0.0])
        assert ratio_beats_mean(m, 0) is False

    def test_ratio_beats_mean_boundary_is_strict(self):
        c = 0.04
        m = make_moments(ybar=10.0, c0_sq=c, ci_sq=[c], c0i=[0.5 * c])  # rho = 0.5
        assert ratio_beats_mean(m, 0) is False

    def test_ratio_beats_mean_survey_data(self, table41):
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        # x2: 0.94 * (2389.76/966) / (2521.40/1014) = 0.935 > 1/2
        assert ratio_beats_mean(m, 1) is True

    def test_ratio_beats_mean_degenerate(self):
        m = make_moments(ybar=10.0, c0_sq=0.04, ci_sq=[0.0], c0i=[0.0])
        with pytest.raises(DegenerateVariance):
            ratio_beats_mean(m, 0)

    def test_dual_beats_mean_strict_at_equality(self):
        m = make_moments(ybar=70.0, c0_sq=0.04, ci_sq=[0.0, 0.0], c0i=[0.0, 0.0])
        assert dual_beats_mean(m, Weights.equal(2)) is False

    def test_dual_beats_mean_negative_quadratic(self):
        # Negative y-x covariance makes the dual correction profitable.
        m = make_moments(ybar=50.0, c0_sq=0.09, ci_sq=[0.02], c0i=[-0.03], g=0.5)
        assert dual_beats_mean(m, Weights([1.0])) is True

    def test_dual_beats_mean_survey_equal_weights(self, table41):
        # Positive y-x correlation: the dual combination loses to the plain
        # mean on this dataset (documented behavior, the predicate just
        # reports it).
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        assert dual_beats_mean(m, Weights.equal(2)) is False


class TestBiasOrdering:
    def test_k1_is_false(self):
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[0.04], c0i=[0.02])
        assert bias_ordering_holds(m, Weights([1.0])) is False

    def test_positive_gap_region(self):
        # Delta > 0 needs weights outside the simplex; alpha = (2, -1) with
        # weakly coupled auxiliaries gives Delta = ybar g^2 (c1 + c2 - 2 C12) > 0.
        c1, c2, c12 = 0.04, 0.01, 0.01
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[c1, c2], c0i=[0.02, 0.005],
                         cij=[[c1, c12], [c12, c2]], g=0.5)
        w = Weights([2.0, -1.0])
        assert bias_gap(m, w) > 0.0
        assert bias_arithmetic(m, w) > 0.0
        assert bias_ordering_holds(m, w) is True
        assert abs(bias_harmonic(m, w)) > abs(bias_geometric(m, w)) > abs(bias_arithmetic(m, w))

    def test_negative_gap_region(self):
        c = 0.05
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[c, c], c0i=[0.02, 0.02],
                         cij=[[c, 0.4 * c], [0.4 * c, c]], g=0.5)
        assert bias_ordering_holds(m, Weights.equal(2)) is False

    def test_ordering_with_nonneg_weights_and_negative_gap(self):
        # Delta <= 0 for nonnegative weights, yet |b_hp| > |b_gp| > |b_ap| holds
        # whenever b_ap < |Delta|/2: the exact condition, Delta (2b + Delta) > 0
        # and Delta (2b + 3 Delta) > 0, which the predicate tests.
        c, rho = 0.04, 0.4
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[c, c], c0i=[-0.05, -0.05],
                         cij=[[c, rho * c], [rho * c, c]], g=0.5)
        w = Weights.equal(2)
        b_ap, b_gp, b_hp = bias_arithmetic(m, w), bias_geometric(m, w), bias_harmonic(m, w)
        delta = bias_gap(m, w)
        assert (b_ap, b_gp, b_hp, delta) == pytest.approx((-1.50, -1.65, -1.80, -0.15), rel=1e-12)
        assert delta < 0.0 and b_ap < abs(delta) / 2.0
        assert bias_ordering_holds(m, w) is True
        assert abs(b_hp) > abs(b_gp) > abs(b_ap)


class TestScaleEquivariance:
    def test_power_of_two_scale_is_exact(self, rng):
        m = random_moments(rng, k=3)
        w = random_nonneg_weights(rng, 3)
        m2 = dataclasses.replace(m, ybar=2.0 * m.ybar)
        assert bias_arithmetic(m2, w) == 2.0 * bias_arithmetic(m, w)
        assert bias_geometric(m2, w) == 2.0 * bias_geometric(m, w)
        assert bias_harmonic(m2, w) == 2.0 * bias_harmonic(m, w)
        assert mse_dual_common(m2, w) == 4.0 * mse_dual_common(m, w)
        assert variance_mean_per_unit(m2) == 4.0 * variance_mean_per_unit(m)

    def test_general_scale(self, rng):
        m = random_moments(rng, k=2)
        w = random_nonneg_weights(rng, 2)
        s = 3.7
        m2 = dataclasses.replace(m, ybar=s * m.ybar)
        assert bias_arithmetic(m2, w) == pytest.approx(s * bias_arithmetic(m, w), rel=1e-14)
        assert mse_dual_common(m2, w) == pytest.approx(s * s * mse_dual_common(m, w), rel=1e-14)


class TestOptimalWeights:
    def test_k1_forced_by_constraint(self):
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[0.04], c0i=[0.02])
        w = optimal_weights(m)
        assert w.alpha[0] == pytest.approx(1.0, rel=1e-12)

    def test_exchangeable_pair_splits_evenly(self):
        c = 0.05
        m = make_moments(ybar=100.0, c0_sq=0.09, ci_sq=[c, c], c0i=[0.02, 0.02],
                         cij=[[c, 0.3 * c], [0.3 * c, c]], g=0.4)
        w = optimal_weights(m)
        np.testing.assert_allclose(w.alpha, [0.5, 0.5], rtol=1e-12)

    def test_beats_random_feasible_weights(self, rng):
        for _ in range(5):
            m = random_moments(rng, k=3)
            w_star = optimal_weights(m)
            best = mse_dual_common(m, w_star)
            for _ in range(300):
                w = random_affine_weights(rng, 3)
                assert best <= mse_dual_common(m, w) + 1e-9

    def test_singular_matrix_rejected(self, rng):
        pop = random_population(rng, N=50, k=1)
        x = np.column_stack([pop.x[:, 0], 2.0 * pop.x[:, 0]])  # exactly collinear
        dup = Population(y=pop.y, x=x)
        m = compute_moments(dup, SampleDesign(50, 10))
        with pytest.raises(SingularMomentMatrix):
            optimal_weights(m)


class TestCompareAll:
    def test_row_structure_and_shared_mse(self, table41):
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        w = Weights.equal(2)
        table = compare_all(m, w, weight_scheme="equal", source="summary")
        names = [r.estimator for r in table.rows]
        assert names == ["mean", "ratio(1)", "ratio(2)", "ap", "gp", "hp", "product"]
        mean_row = table.rows[0]
        assert mean_row.aux_used == "none"
        assert mean_row.abs_bias == 0.0
        assert abs(mean_row.mse - 5710952) <= 2.0
        ap, gp, hp = table.rows[3], table.rows[4], table.rows[5]
        assert ap.mse == gp.mse == hp.mse  # one shared MSE value, bitwise
        product = table.rows[6]
        assert product.abs_bias is None and product.mse is None
        assert "non-comparable" in product.notes

    def test_zero_variance_auxiliaries_collapse_to_mean_row(self):
        m = make_moments(ybar=70.0, c0_sq=0.04, ci_sq=[0.0, 0.0], c0i=[0.0, 0.0])
        table = compare_all(m, Weights.equal(2))
        mean_mse = table.rows[0].mse
        for row in table.rows[1:6]:
            assert row.mse == mean_mse
            assert row.abs_bias == 0.0

    def test_negative_weights_flagged(self, table41):
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        w = optimal_weights(m)
        assert not w.nonneg
        table = compare_all(m, w, weight_scheme="optimal", source="summary")
        assert "negative weights" in table.rows[4].notes

    def test_duplicate_rows_rejected(self):
        from dualratio.analytics import ComparisonRow, ComparisonTable

        row = ComparisonRow("mean", "none", 0.0, 1.0)
        with pytest.raises(ValueError):
            ComparisonTable(rows=(row, row), mode=MomentMode.PAPER_LITERAL,
                            weight_scheme="equal", weights=(1.0,), source="summary")

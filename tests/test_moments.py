import statistics

import numpy as np
import pytest

from dualratio import (
    MomentMode,
    Population,
    SampleDesign,
    SummaryStats,
    compute_moments,
    moments_from_summary,
)
from dualratio.errors import (
    DegeneratePopulation,
    DegenerateVariance,
    InconsistentDimensions,
    InconsistentStats,
    ZeroMean,
)
from dualratio.moments import MomentSet
from conftest import random_population


class TestSummaryPath:
    def test_survey_values_paper_mode(self, table41):
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        assert m.g == pytest.approx(50 / 154, rel=1e-15)
        assert m.theta == 1.0
        # C_0^2 = (S_y / ybar)^2
        assert m.c0_sq == pytest.approx((2389.76 / 966) ** 2, rel=1e-12)
        assert m.c0_sq == pytest.approx(6.1200, abs=5e-5)
        # C_01 = S_yx1 / (ybar * xbar1)
        assert m.c0i[0] == pytest.approx(77372777 / (966 * 26441), rel=1e-12)
        assert m.c0i[0] == pytest.approx(3.0292, abs=5e-5)

    def test_survey_values_srswor_mode(self, table41):
        m = moments_from_summary(table41, MomentMode.SRSWOR_EXACT)
        assert m.theta == pytest.approx(1 / 50 - 1 / 204, rel=1e-15)
        assert m.c0_sq == pytest.approx((154 / 10200) * (2389.76 / 966) ** 2, rel=1e-12)

    def test_zero_covariances_give_zero_c0i(self):
        stats = SummaryStats(N=50, n=10, ybar=10.0, xbar=np.array([5.0, 8.0]),
                             sy=2.0, sx=np.array([1.0, 2.0]),
                             syx=np.array([0.0, 0.0]),
                             rho_x=np.array([[1.0, 0.2], [0.2, 1.0]]))
        m = moments_from_summary(stats, MomentMode.PAPER_LITERAL)
        assert np.all(m.c0i == 0.0)

    def test_implied_rho_above_one_rejected(self):
        stats = SummaryStats(N=50, n=10, ybar=10.0, xbar=np.array([5.0]),
                             sy=1.0, sx=np.array([1.0]), syx=np.array([2.0]),
                             rho_x=np.array([[1.0]]))
        with pytest.raises(InconsistentStats):
            moments_from_summary(stats, MomentMode.PAPER_LITERAL)

    def test_implied_rho_above_one_rejected_at_tiny_relative_moments(self):
        # means of 1e100 make every relative moment ~1e-200, whose square underflows
        stats = SummaryStats(N=50, n=10, ybar=1e100, xbar=np.array([1e100]),
                             sy=1.0, sx=np.array([1.0]), syx=np.array([1e30]),
                             rho_x=np.array([[1.0]]))
        with pytest.raises(InconsistentStats):
            moments_from_summary(stats, MomentMode.PAPER_LITERAL)

    def test_matches_unit_level_path(self, rng):
        pop = random_population(rng, N=80, k=3)
        design = SampleDesign(N=80, n=20)
        direct = compute_moments(pop, design)
        data = np.column_stack([pop.y, pop.x])
        cov = np.cov(data, rowvar=False, ddof=1)
        stats = SummaryStats(
            N=80, n=20, ybar=pop.ybar, xbar=pop.xbar,
            sy=float(np.sqrt(cov[0, 0])), sx=np.sqrt(np.diagonal(cov)[1:]),
            syx=cov[0, 1:],
            rho_x=np.corrcoef(pop.x, rowvar=False),
        )
        summary = moments_from_summary(stats, MomentMode.SRSWOR_EXACT)
        assert summary.c0_sq == pytest.approx(direct.c0_sq, rel=1e-10)
        np.testing.assert_allclose(summary.ci_sq, direct.ci_sq, rtol=1e-10)
        np.testing.assert_allclose(summary.c0i, direct.c0i, rtol=1e-10)
        np.testing.assert_allclose(summary.cij, direct.cij, rtol=1e-10)


class TestSummaryStatsValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(InconsistentDimensions):
            SummaryStats(N=50, n=10, ybar=1.0, xbar=np.array([1.0, 2.0]),
                         sy=1.0, sx=np.array([1.0]), syx=np.array([0.5, 0.5]),
                         rho_x=np.eye(2))

    def test_asymmetric_rho_rejected(self):
        with pytest.raises(InconsistentStats):
            SummaryStats(N=50, n=10, ybar=1.0, xbar=np.array([1.0, 2.0]),
                         sy=1.0, sx=np.array([1.0, 1.0]), syx=np.array([0.5, 0.5]),
                         rho_x=np.array([[1.0, 0.3], [0.4, 1.0]]))

    def test_rho_magnitude_rejected(self):
        with pytest.raises(InconsistentStats):
            SummaryStats(N=50, n=10, ybar=1.0, xbar=np.array([1.0, 2.0]),
                         sy=1.0, sx=np.array([1.0, 1.0]), syx=np.array([0.5, 0.5]),
                         rho_x=np.array([[1.0, 1.5], [1.5, 1.0]]))

    @pytest.mark.parametrize("field", ["ybar", "xbar", "sy", "sx", "syx", "rho_x"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_field_rejected(self, field, bad):
        fields = dict(ybar=1.0, xbar=np.array([1.0, 2.0]), sy=1.0, sx=np.array([1.0, 1.0]),
                      syx=np.array([0.5, 0.5]), rho_x=np.eye(2))
        value = np.array(fields[field], dtype=float)
        value.flat[-1] = bad
        fields[field] = value if value.ndim else float(value)
        with pytest.raises(InconsistentStats, match=f"^{field} must be finite$"):
            SummaryStats(N=50, n=10, **fields)


class TestUnitLevelPath:
    def test_tiny_population_hand_values(self):
        # Same arithmetic as the two-unit textbook case: variance([1, 3]) = 2
        # and C_0^2 = 2 / 2^2 = 0.5 (a valid design additionally needs n < N,
        # so the smallest constructible case has N = 3).
        assert statistics.variance([1, 3]) == 2
        assert statistics.variance([1, 3]) / 2**2 == 0.5

        pop = Population(y=[1.0, 3.0, 2.0], x=[[1.0], [2.0], [3.0]])
        m = compute_moments(pop, SampleDesign(3, 2, MomentMode.PAPER_LITERAL))
        assert m.ybar == pytest.approx(2.0)
        assert m.c0_sq == pytest.approx(statistics.variance([1.0, 3.0, 2.0]) / 4, rel=1e-14)
        assert m.ci_sq[0] == pytest.approx(1.0 / 4.0, rel=1e-14)  # S_x^2 = 1, xbar = 2
        # cov(y, x) = 0.5 over the N-1 divisor
        assert m.c0i[0] == pytest.approx(0.5 / (2.0 * 2.0), rel=1e-14)

    def test_constant_auxiliary_rejected(self):
        pop = Population(y=[1.0, 2.0, 3.0], x=[[5.0], [5.0], [5.0]])
        with pytest.raises(DegenerateVariance) as err:
            compute_moments(pop, SampleDesign(3, 2))
        assert err.value.label == "x1"

    def test_constant_study_variable_rejected(self):
        pop = Population(y=[4.0, 4.0, 4.0], x=[[1.0], [2.0], [3.0]])
        with pytest.raises(DegenerateVariance):
            compute_moments(pop, SampleDesign(3, 2))

    def test_zero_means_rejected(self):
        pop = Population(y=[-1.0, 0.0, 1.0], x=[[1.0], [2.0], [3.0]])
        with pytest.raises(ZeroMean):
            compute_moments(pop, SampleDesign(3, 2))
        pop = Population(y=[1.0, 2.0, 3.0], x=[[-1.0], [0.0], [1.0]])
        with pytest.raises(ZeroMean):
            compute_moments(pop, SampleDesign(3, 2))

    def test_single_unit_rejected(self):
        pop = Population(y=[1.0], x=[[1.0]])
        with pytest.raises(DegeneratePopulation):
            compute_moments(pop, SampleDesign(10, 2))

    def test_design_population_mismatch(self, rng):
        pop = random_population(rng, N=30, k=1)
        with pytest.raises(ValueError):
            compute_moments(pop, SampleDesign(40, 5))


class TestMomentInvariants:
    def test_mode_scaling_is_exact(self, rng):
        for _ in range(10):
            pop = random_population(rng)
            n = int(rng.integers(2, pop.N))
            paper = compute_moments(pop, SampleDesign(pop.N, n, MomentMode.PAPER_LITERAL))
            exact = compute_moments(pop, SampleDesign(pop.N, n, MomentMode.SRSWOR_EXACT))
            theta = exact.theta
            assert exact.c0_sq == theta * paper.c0_sq
            assert np.array_equal(exact.ci_sq, theta * paper.ci_sq)
            assert np.array_equal(exact.c0i, theta * paper.c0i)
            assert np.array_equal(exact.cij, theta * paper.cij)

    def test_cij_positive_semidefinite(self, rng):
        for _ in range(10):
            pop = random_population(rng)
            m = compute_moments(pop, SampleDesign(pop.N, 2))
            eigs = np.linalg.eigvalsh(m.cij)
            assert eigs.min() >= -1e-10 * max(1.0, eigs.max())

    def test_correlations_match_raw_data(self, rng):
        for _ in range(5):
            pop = random_population(rng, k=3)
            m = compute_moments(pop, SampleDesign(pop.N, 5))
            corr = np.corrcoef(np.column_stack([pop.y, pop.x]), rowvar=False)
            rho0i = m.c0i / np.sqrt(m.c0_sq * m.ci_sq)
            rhoij = m.cij / np.sqrt(np.outer(m.ci_sq, m.ci_sq))
            np.testing.assert_allclose(rho0i, corr[0, 1:], rtol=1e-10)
            np.testing.assert_allclose(rhoij, corr[1:, 1:], rtol=1e-10)

    def test_diagonal_of_cij_is_ci_sq(self, rng):
        pop = random_population(rng, k=4)
        mom = compute_moments(pop, SampleDesign(pop.N, 3))
        assert np.array_equal(np.diagonal(mom.cij), mom.ci_sq)
        assert mom.ci_sq.flags.c_contiguous
        assert not mom.ci_sq.flags.writeable


def hand_moments(*, c0_sq=0.09, c0i=(0.02, 0.01), cij=((0.04, 0.01), (0.01, 0.16))):
    return MomentSet(ybar=100.0, xbar=np.array([10.0, 20.0]), c0_sq=c0_sq,
                     c0i=np.array(c0i), cij=np.array(cij), g=0.5, theta=1.0,
                     mode=MomentMode.PAPER_LITERAL)


class TestCorrelationBound:
    # |rho| = 1 + excess for C_01, with C_0^2 = 0.09 and C_1^2 = 0.04
    @pytest.mark.parametrize("excess", [0.0, 5e-10, 1e-9 - 1e-12])
    def test_c0i_within_slack_accepted(self, excess):
        m = hand_moments(c0i=(0.06 * (1.0 + excess), 0.01))
        assert m.c0i[0] == 0.06 * (1.0 + excess)

    def test_c0i_beyond_slack_rejected(self):
        with pytest.raises(InconsistentStats, match="implied correlation magnitude exceeds 1"):
            hand_moments(c0i=(-0.06 * (1.0 + 2e-9), 0.01))

    def test_cij_beyond_slack_rejected(self):
        c12 = 0.08 * (1.0 + 2e-9)  # sqrt(0.04 * 0.16) = 0.08
        with pytest.raises(InconsistentStats, match="implied correlation magnitude exceeds 1"):
            hand_moments(cij=((0.04, c12), (c12, 0.16)))

    def test_zero_variances_pass(self):
        m = hand_moments(c0_sq=0.0, c0i=(0.0, 0.0), cij=((0.0, 0.0), (0.0, 0.0)))
        assert np.array_equal(m.ci_sq, [0.0, 0.0])

    def test_covariance_with_a_zero_variance_rejected(self):
        with pytest.raises(InconsistentStats):
            hand_moments(c0_sq=0.0, c0i=(0.01, 0.0))

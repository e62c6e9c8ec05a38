import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualratio import (
    MomentMode,
    Population,
    SampleDesign,
    Weights,
    gamma,
    validate_population,
)
from dualratio.errors import InvalidDesign, InvalidWeights
from dualratio.model import TABLE_MIN_COLUMNS


class TestGamma:
    def test_survey_design(self):
        # The published data summary prints 0.3246 for this design, which is a
        # truncated rendering of 50/154 = 0.32467...
        assert gamma(204, 50) == pytest.approx(50 / 154, rel=1e-15)

    def test_half_sample_is_one(self):
        assert gamma(40, 20) == 1.0
        assert gamma(8, 4) == 1.0

    def test_hand_value(self):
        assert gamma(100, 20) == 0.25

    @pytest.mark.parametrize("N,n", [(10, 1), (10, 10), (10, 12), (2, 2), (3, 1)])
    def test_invalid_designs(self, N, n):
        with pytest.raises(InvalidDesign):
            gamma(N, n)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidDesign):
            gamma(10.0, 5)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(3, 10**6), st.data())
    def test_inverse_identity(self, N, data):
        n = data.draw(st.integers(2, N - 1))
        assert gamma(N, n) * (N - n) == pytest.approx(n, rel=1e-14)


class TestDesignFactor:
    def test_survey_design_srswor(self):
        d = SampleDesign(204, 50, MomentMode.SRSWOR_EXACT)
        assert d.theta == pytest.approx(154 / 10200, rel=1e-12)
        assert d.theta == pytest.approx(0.0150980, abs=5e-8)

    def test_paper_literal_is_one(self):
        for N, n in [(204, 50), (10, 5), (1000, 2)]:
            assert SampleDesign(N, n, MomentMode.PAPER_LITERAL).theta == 1.0

    def test_hand_value(self):
        assert SampleDesign(10, 5).theta == pytest.approx(0.1, rel=1e-14)

    def test_strictly_decreasing_in_n(self):
        N = 30
        values = [SampleDesign(N, n).theta for n in range(2, N)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSampleDesign:
    def test_g_and_theta_are_derived(self):
        d = SampleDesign(100, 20)
        assert d.g == gamma(100, 20)
        assert d.theta == 1.0 / 20 - 1.0 / 100
        assert d.mode is MomentMode.SRSWOR_EXACT  # default

    def test_invalid(self):
        with pytest.raises(InvalidDesign):
            SampleDesign(5, 5)
        with pytest.raises(InvalidDesign):
            SampleDesign(5, 2, mode="paper")  # not a MomentMode


class TestPopulation:
    def test_means_and_shapes(self):
        pop = Population(y=[1.0, 2.0, 3.0], x=[[2.0, 1.0], [4.0, 3.0], [6.0, 5.0]])
        assert pop.N == 3 and pop.k == 2
        assert pop.ybar == pytest.approx(2.0)
        assert pop.xbar == pytest.approx([4.0, 3.0])

    def test_1d_x_coerced_to_single_column(self):
        pop = Population(y=[1.0, 2.0], x=[3.0, 4.0])
        assert pop.k == 1

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Population(y=[1.0, 2.0], x=[[1.0], [2.0], [3.0]])

    def test_arrays_read_only(self):
        pop = Population(y=[1.0, 2.0], x=[[1.0], [2.0]])
        with pytest.raises(ValueError):
            pop.y[0] = 9.0

    def test_xbar_computed_once_and_read_only(self):
        pop = Population(y=[1.0, 2.0, 4.0], x=[[2.0, 1.0], [4.0, 3.0], [7.0, 5.0]])
        assert np.array_equal(pop.xbar, pop.x.mean(axis=0))
        assert pop.xbar is pop.xbar
        with pytest.raises(ValueError):
            pop.xbar[0] = 9.0
        # ybar is a stored float, set at construction, not a property
        assert type(pop.ybar) is float and pop.ybar == float(np.mean(pop.y))
        assert vars(pop)["ybar"] is pop.ybar
        with pytest.raises(dataclasses.FrozenInstanceError):
            pop.ybar = 9.0
        assert repr(pop) == f"Population(y={pop.y!r}, x={pop.x!r})"

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 10])
    def test_table_holds_y_x_and_zero_padding(self, k):
        # The sampling harness gathers every sample mean from these rows; x
        # in Fortran order comes out as C-ordered rows all the same.
        rng = np.random.default_rng(k)
        y, x = rng.uniform(1.0, 2.0, 7), np.asfortranarray(rng.uniform(1.0, 2.0, (7, k)))
        table = Population(y, x).table
        assert TABLE_MIN_COLUMNS == 4
        assert table.shape == (7, max(4, k + 1)) and table.dtype == np.float64
        assert table.flags.c_contiguous and not table.flags.writeable
        assert np.array_equal(table[:, 0], y) and np.array_equal(table[:, 1:1 + k], x)
        assert not table[:, 1 + k:].any()
        with pytest.raises(ValueError):
            table[0, 0] = 9.0


class TestValidatePopulation:
    def test_clean_population_is_valid(self):
        pop = Population(y=[1.0, 2.0, 3.0], x=[[1.0], [2.0], [3.0]])
        assert validate_population(pop) == []

    def test_zero_auxiliary_mean_reported(self):
        pop = Population(y=[1.0, 2.0], x=[[-1.0], [1.0]])
        assert "ZeroAuxiliaryMean(1)" in validate_population(pop)

    def test_zero_mean_is_that_of_xbar(self):
        # x2 sums to 0 row by row (pop.xbar, which the moments divide by) but
        # not pairwise (x[:, 1].mean()).
        x2 = [1e16, 1, -1e16, 2, 0.5, -1, 1e16, -3, -1e16]
        pop = Population(y=np.arange(1.0, 10.0), x=np.column_stack([np.ones(9), x2]))
        assert pop.xbar[1] == 0.0 and pop.x[:, 1].mean() != 0.0
        assert validate_population(pop) == ["ZeroAuxiliaryMean(2)"]

    def test_non_finite_reported(self):
        pop = Population(y=[1.0, float("nan")], x=[[1.0], [2.0]])
        assert "NonFiniteValue(y)" in validate_population(pop)
        pop = Population(y=[1.0, 2.0], x=[[1.0], [float("inf")]])
        assert "NonFiniteValue(x1)" in validate_population(pop)

    def test_too_few_units(self):
        pop = Population(y=[1.0], x=[[1.0]])
        assert "TooFewUnits(1)" in validate_population(pop)


class TestWeights:
    def test_equal(self):
        w = Weights.equal(3)
        assert w.k == 3 and w.nonneg
        assert float(np.sum(w.alpha)) == pytest.approx(1.0, abs=1e-12)

    def test_sum_tolerance_boundary(self):
        Weights([0.5, 0.5 + 5e-10])  # inside the tolerance
        with pytest.raises(InvalidWeights):
            Weights([0.5, 0.5 + 5e-9])

    def test_negative_components_allowed_but_flagged(self):
        w = Weights([1.5, -0.5])
        assert not w.nonneg

    def test_rejects_non_finite_and_empty(self):
        with pytest.raises(InvalidWeights):
            Weights([float("nan")])
        with pytest.raises(InvalidWeights):
            Weights([])

    def test_alpha_read_only(self):
        w = Weights([1.0])
        with pytest.raises(ValueError):
            w.alpha[0] = 2.0

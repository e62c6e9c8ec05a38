import itertools
import math
from math import fsum

import numpy as np
import pytest

from dualratio import (
    MomentMode,
    Population,
    SampleDesign,
    SampleIndices,
    Weights,
    bias_arithmetic,
    bias_classic_ratio,
    bias_geometric,
    bias_harmonic,
    compare_all,
    compare_analytic_empirical,
    compute_moments,
    draw_srswor,
    enumerate_exact,
    estimates_for_samples,
    mse_dual_common,
    run_monte_carlo,
    sample_means,
    variance_mean_per_unit,
)
from dualratio import estimators as est
from dualratio.errors import (
    ModeMismatch,
    NegativeWeight,
    NonPositiveTerm,
    TooLarge,
    TooManyInvalid,
    ZeroDualMean,
)
from dualratio.simulation import CV_ESTIMATORS, control_variance
from dualratio.synth import correlated_population
from conftest import synthetic_population_2000, toy_population


def brute_force_exact(pop, design, w):
    """Independent oracle: scalar estimators over itertools.combinations."""
    names = ["mean"] + [f"ratio({i + 1})" for i in range(pop.k)] + ["ap", "gp", "hp", "product"]
    values = {nm: [] for nm in names}
    for subset in itertools.combinations(range(pop.N), design.n):
        ss = sample_means(pop, SampleIndices(subset))
        values["mean"].append(est.estimate_mean_per_unit(ss))
        for i in range(pop.k):
            values[f"ratio({i + 1})"].append(
                est.estimate_classic_ratio(ss, float(pop.xbar[i]), i)
            )
        try:
            dr = est.dual_ratios(ss, pop.xbar, design.g)
        except ZeroDualMean:
            continue
        values["ap"].append(est.estimate_arithmetic(dr, pop.xbar, w))
        values["product"].append(est.estimate_product(dr, pop.xbar))
        try:
            values["gp"].append(est.estimate_geometric(dr, pop.xbar, w))
            values["hp"].append(est.estimate_harmonic(dr, pop.xbar, w))
        except NonPositiveTerm:
            pass
    out = {}
    for nm, vals in values.items():
        d = [v - pop.ybar for v in vals]
        out[nm] = (
            len(vals),
            fsum(d) / len(vals),
            fsum(x * x for x in d) / len(vals),
        )
    return out


@pytest.fixture(scope="module")
def small_pop():
    return Population(
        y=np.array([3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 4.0]),
        x=np.column_stack([
            np.array([10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 11.0]),
            np.array([5.0, 6.0, 8.0, 9.0, 11.0, 12.0, 7.0]),
        ]),
    )


class TestDrawSrswor:
    def test_fixed_seed_reproduces_sequence(self):
        design = SampleDesign(20, 5)
        a = [draw_srswor(design, np.random.default_rng(42)).idx for _ in range(3)]
        b = [draw_srswor(design, np.random.default_rng(42)).idx for _ in range(3)]
        assert a == b

    def test_output_sorted_distinct(self, rng):
        design = SampleDesign(15, 6)
        for _ in range(100):
            s = draw_srswor(design, rng)
            assert len(set(s.idx)) == 6
            assert list(s.idx) == sorted(s.idx)
            assert s.idx[-1] < 15

    def test_subset_frequencies_uniform(self):
        # N=5, n=2: 10 subsets, each with probability 0.1.
        design = SampleDesign(5, 2)
        rng = np.random.default_rng(7)
        draws = 100_000
        counts = {}
        for _ in range(draws):
            s = draw_srswor(design, rng).idx
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == 10
        sigma = math.sqrt(0.1 * 0.9 / draws)
        for subset, count in counts.items():
            assert abs(count / draws - 0.1) <= 4 * sigma, (subset, count)

    def test_complement_symmetry(self):
        # n = N-1: the single excluded index must be uniform.
        design = SampleDesign(6, 5)
        rng = np.random.default_rng(11)
        draws = 30_000
        missing = np.zeros(6)
        for _ in range(draws):
            s = set(draw_srswor(design, rng).idx)
            missing[(set(range(6)) - s).pop()] += 1
        sigma = math.sqrt((1 / 6) * (5 / 6) / draws)
        np.testing.assert_allclose(missing / draws, 1 / 6, atol=4 * sigma)


class TestEnumerateExact:
    def test_subset_count(self):
        pop = Population(y=[1.0, 2.0, 3.0, 4.0], x=[[2.0], [3.0], [4.0], [5.0]])
        out = enumerate_exact(pop, SampleDesign(4, 2), Weights([1.0]))
        assert out.requested == 6
        assert out.exact and out.seed is None
        assert all(e.se_bias == 0.0 and e.se_mse == 0.0 for e in out.estimators)

    def test_mean_is_design_unbiased(self, small_pop):
        out = enumerate_exact(small_pop, SampleDesign(7, 3), Weights.equal(2))
        assert abs(out.by_name("mean").bias) <= 1e-12 * abs(small_pop.ybar)

    def test_mean_mse_textbook_identity(self, small_pop):
        # exact MSE of the sample mean = (1/n - 1/N) S_y^2
        out = enumerate_exact(small_pop, SampleDesign(7, 3), Weights.equal(2))
        sy_sq = float(np.var(small_pop.y, ddof=1))
        expected = (1 / 3 - 1 / 7) * sy_sq
        assert out.by_name("mean").mse == pytest.approx(expected, rel=1e-10)

    def test_matches_scalar_brute_force(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        oracle = brute_force_exact(small_pop, design, w)
        out = enumerate_exact(small_pop, design, w)
        for e in out.estimators:
            used, bias, mse = oracle[e.name]
            assert e.used == used
            assert e.bias == pytest.approx(bias, rel=1e-12, abs=1e-12)
            assert e.mse == pytest.approx(mse, rel=1e-12)

    def test_cap(self):
        rng = np.random.default_rng(0)
        pop = Population(y=rng.uniform(1, 2, 40), x=rng.uniform(1, 2, (40, 1)))
        with pytest.raises(TooLarge):
            enumerate_exact(pop, SampleDesign(40, 20), Weights([1.0]))

    def test_deterministic(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        assert enumerate_exact(small_pop, design, w) == enumerate_exact(small_pop, design, w)


class TestRunMonteCarlo:
    def test_bit_identical_across_runs_and_workers(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        a = run_monte_carlo(small_pop, design, w, 40_000, seed=5)
        b = run_monte_carlo(small_pop, design, w, 40_000, seed=5)
        c = run_monte_carlo(small_pop, design, w, 40_000, seed=5, workers=2)
        assert a == b == c

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        import multiprocessing.process

        starts = []
        real_start = multiprocessing.process.BaseProcess.start

        def counting_start(self):
            starts.append(self)
            return real_start(self)

        pop = synthetic_population_2000()
        design = SampleDesign(2000, 50)
        w = Weights.equal(2)
        serial = run_monte_carlo(pop, design, w, 6000, seed=4)  # two 4000-row chunks
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        pooled = run_monte_carlo(pop, design, w, 6000, seed=4, workers=3)
        assert 1 <= len(starts) <= 2
        assert pooled == serial

    def test_different_seeds_differ(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        a = run_monte_carlo(small_pop, design, w, 5_000, seed=1)
        b = run_monte_carlo(small_pop, design, w, 5_000, seed=2)
        assert a != b

    def test_constant_auxiliary_makes_ap_track_mean(self):
        pop = Population(y=np.linspace(3.0, 9.0, 8), x=np.full((8, 1), 5.0))
        out = run_monte_carlo(pop, SampleDesign(8, 4), Weights([1.0]), 20_000, seed=3)
        ap, mean = out.by_name("ap"), out.by_name("mean")
        assert ap.bias == pytest.approx(mean.bias, rel=1e-12, abs=1e-12)
        assert ap.mse == pytest.approx(mean.mse, rel=1e-12)

    def test_single_replicate_mse_is_squared_deviation(self, small_pop):
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 1, seed=9)
        e = out.by_name("mean")
        assert e.used == 1
        assert e.mse == pytest.approx(e.bias**2, rel=1e-12)

    def test_matches_enumeration_within_monte_carlo_error(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        exact = enumerate_exact(small_pop, design, w)
        bad = 0
        for seed in range(20):
            mc = run_monte_carlo(small_pop, design, w, 20_000, seed=seed)
            ok = all(
                abs(mc.by_name(nm).bias - exact.by_name(nm).bias) <= 4 * mc.by_name(nm).se_bias
                and abs(mc.by_name(nm).mse - exact.by_name(nm).mse) <= 4 * mc.by_name(nm).se_mse
                for nm in ("mean", "ratio(1)", "ap", "gp", "hp", "product")
            )
            bad += not ok
        assert bad <= 1

    def test_mse_dominates_squared_bias(self, small_pop):
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 5_000, seed=4)
        for e in out.estimators:
            assert e.mse >= e.bias**2 - 1e-9 * small_pop.ybar**2

    def test_too_many_invalid(self):
        # g = 1 and x = (-1,-1,1,1,1,1): samples of three +1 units push the
        # dual-transformed mean negative, so GM/HM lose 4/20 = 20% of subsets.
        pop = Population(y=np.full(6, 10.0) + np.arange(6), x=np.array(
            [[-1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]]))
        with pytest.raises(TooManyInvalid):
            run_monte_carlo(pop, SampleDesign(6, 3), Weights([1.0]), 2_000, seed=0)

    def test_invalid_replicates_counted_and_excluded(self):
        pop = Population(y=np.full(6, 10.0) + np.arange(6), x=np.array(
            [[-1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]]))
        out = enumerate_exact(pop, SampleDesign(6, 3), Weights([1.0]))
        gp = out.by_name("gp")
        assert gp.invalid == 4  # C(4,3) all-positive-x subsets
        assert gp.used == 16
        assert out.by_name("mean").invalid == 0

    def test_negative_weights_rejected(self, small_pop):
        with pytest.raises(NegativeWeight):
            run_monte_carlo(small_pop, SampleDesign(7, 3), Weights([1.5, -0.5]), 10, seed=0)

    def test_r_must_be_positive(self, small_pop):
        with pytest.raises(ValueError):
            run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 0, seed=0)


class TestControlVariate:
    @pytest.mark.parametrize("N", [8, 10, 12])
    def test_exact_enumeration_equals_raw(self, N):
        # Sum of L over all subsets is exactly Ybar * C(N, n), so under
        # enumeration the control changes nothing but rounding.
        pop = toy_population(N)
        out = enumerate_exact(pop, SampleDesign(N, N // 2), Weights.equal(2))
        for e in out.estimators:
            if e.name in CV_ESTIMATORS:
                assert e.bias_cv == pytest.approx(e.bias, rel=1e-12)
                assert e.mse_cv == pytest.approx(e.mse, rel=1e-12)
                assert e.se_bias_cv == 0.0 and e.se_mse_cv == 0.0
            else:
                assert (e.bias_cv, e.mse_cv, e.se_bias_cv, e.se_mse_cv) == (None,) * 4

    def test_matches_enumeration_within_monte_carlo_error(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        exact = enumerate_exact(small_pop, design, w)
        bad = 0
        for seed in range(20):
            mc = run_monte_carlo(small_pop, design, w, 20_000, seed=seed)
            ok = True
            for nm in CV_ESTIMATORS:
                e, x = mc.by_name(nm), exact.by_name(nm)
                # the control must actually reduce the noise of the raw estimate
                assert e.se_bias_cv < e.se_bias / 4
                ok &= abs(e.bias_cv - x.bias) <= 4 * e.se_bias_cv
                ok &= abs(e.mse_cv - x.mse) <= 4 * e.se_mse_cv
            bad += not ok
        assert bad <= 1

    @pytest.mark.parametrize("which", ["small", "toy10", "n2000"])
    def test_control_variance_is_first_order_mse(self, small_pop, which):
        pop, n = {
            "small": (small_pop, 3),
            "toy10": (toy_population(10), 5),
            "n2000": (synthetic_population_2000(), 100),
        }[which]
        w = Weights([0.3, 0.7])
        design = SampleDesign(pop.N, n)
        expected = mse_dual_common(compute_moments(pop, design), w)
        assert control_variance(pop, design, w) == pytest.approx(expected, rel=1e-12)

    def test_absent_when_replicates_invalid(self):
        pop = Population(y=np.full(6, 10.0) + np.arange(6), x=np.array(
            [[-1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]]))
        out = enumerate_exact(pop, SampleDesign(6, 3), Weights([1.0]))
        for e in out.estimators:
            if e.name in CV_ESTIMATORS and e.invalid == 0:
                assert e.bias_cv is not None
            else:
                assert (e.bias_cv, e.mse_cv, e.se_bias_cv, e.se_mse_cv) == (None,) * 4
        assert out.by_name("gp").invalid > 0


class TestEstimatesForSamples:
    def test_pointwise_ordering(self, rng):
        pop = toy_population(10)
        design = SampleDesign(10, 5)
        w = Weights.equal(2)
        idx = np.array([
            np.sort(rng.choice(10, size=5, replace=False)) for _ in range(500)
        ])
        names, vals, valid = estimates_for_samples(pop, design, w, idx)
        iap, igp, ihp = names.index("ap"), names.index("gp"), names.index("hp")
        ok = valid[:, igp] & valid[:, ihp]
        assert ok.any()
        scale = 1e-12 * np.abs(vals[ok, iap])
        assert np.all(vals[ok, ihp] <= vals[ok, igp] + scale)
        assert np.all(vals[ok, igp] <= vals[ok, iap] + scale)

    def test_matches_scalar_estimators(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights([0.3, 0.7])
        idx = np.array([[0, 2, 5], [1, 3, 6]])
        names, vals, valid = estimates_for_samples(small_pop, design, w, idx)
        for row, subset in enumerate(((0, 2, 5), (1, 3, 6))):
            ss = sample_means(small_pop, SampleIndices(subset))
            dr = est.dual_ratios(ss, small_pop.xbar, design.g)
            expected = {
                "mean": ss.ybar,
                "ratio(1)": est.estimate_classic_ratio(ss, float(small_pop.xbar[0]), 0),
                "ap": est.estimate_arithmetic(dr, small_pop.xbar, w),
                "gp": est.estimate_geometric(dr, small_pop.xbar, w),
                "hp": est.estimate_harmonic(dr, small_pop.xbar, w),
                "product": est.estimate_product(dr, small_pop.xbar),
            }
            for nm, val in expected.items():
                assert vals[row, names.index(nm)] == pytest.approx(val, rel=1e-12)


class TestCompareAnalyticEmpirical:
    def test_mode_mismatch(self, small_pop):
        design_paper = SampleDesign(7, 3, MomentMode.PAPER_LITERAL)
        m = compute_moments(small_pop, design_paper)
        sim = enumerate_exact(small_pop, SampleDesign(7, 3), Weights.equal(2))
        with pytest.raises(ModeMismatch):
            compare_analytic_empirical(m, sim)

    def test_analytic_values_are_the_signed_compare_all_rows(self):
        # cv_y * rho_yx > cv_x makes the classical-ratio biases negative.
        pop = correlated_population(10, ybar=100.0, xbar=(50.0, 200.0), cv_y=0.3, cv_x=0.1,
                                    rho_yx=0.8, rho_xx=0.3, seed=2)
        design = SampleDesign(10, 4)
        m = compute_moments(pop, design)
        w = Weights.equal(2)
        rows = {r.estimator: r for r in compare_all(m, w).rows}
        assert rows["ratio(1)"].bias == bias_classic_ratio(m, 0) < 0.0
        assert rows["ratio(2)"].bias == bias_classic_ratio(m, 1) < 0.0
        assert rows["ap"].bias == bias_arithmetic(m, w)
        assert rows["gp"].bias == bias_geometric(m, w)
        assert rows["hp"].bias == bias_harmonic(m, w)
        assert rows["product"].bias is None and rows["product"].abs_bias is None
        for row in rows.values():
            if row.bias is not None:
                assert row.abs_bias == abs(row.bias)
        gaps = compare_analytic_empirical(m, enumerate_exact(pop, design, w))
        assert {g.estimator for g in gaps} == {nm for nm, r in rows.items() if r.mse is not None}
        for g in gaps:
            row = rows[g.estimator]
            assert g.analytic == (row.bias if g.quantity == "bias" else row.mse)

    def test_exact_mean_row_identity(self, small_pop):
        # analytic ybar^2 C0^2 (srswor) equals the enumerated MSE of the mean.
        design = SampleDesign(7, 3)
        m = compute_moments(small_pop, design)
        sim = enumerate_exact(small_pop, design, Weights.equal(2))
        rows = {(r.estimator, r.quantity): r for r in compare_analytic_empirical(m, sim)}
        row = rows[("mean", "mse")]
        assert row.analytic == pytest.approx(variance_mean_per_unit(m), rel=1e-15)
        assert row.rel_gap <= 1e-10
        assert row.gap_se is None  # exact results carry no SE units
        assert rows[("mean", "bias")].analytic == 0.0

    def test_zero_variance_auxiliaries_have_zero_dual_gaps(self):
        # Constant auxiliary: every dual estimator degenerates to the mean.
        pop = Population(y=np.linspace(3.0, 9.0, 8), x=np.full((8, 1), 5.0))
        design = SampleDesign(8, 4)
        sim = enumerate_exact(pop, design, Weights([1.0]))
        data = np.column_stack([pop.y, pop.x])
        sy_sq = float(np.cov(data, rowvar=False, ddof=1)[0, 0])
        from dualratio.moments import MomentSet

        m = MomentSet(
            ybar=pop.ybar, xbar=pop.xbar,
            c0_sq=design.theta * sy_sq / pop.ybar**2,
            ci_sq=np.array([0.0]), c0i=np.array([0.0]), cij=np.array([[0.0]]),
            rho0i=np.array([0.0]), rhoij=np.array([[1.0]]),
            g=design.g, theta=design.theta, mode=MomentMode.SRSWOR_EXACT,
        )
        rows = {(r.estimator, r.quantity): r for r in compare_analytic_empirical(m, sim)}
        mean_scale = rows[("mean", "mse")].empirical
        for nm in ("ap", "gp", "hp"):
            assert rows[(nm, "mse")].abs_gap <= 1e-9 * mean_scale
            assert rows[(nm, "bias")].abs_gap <= 1e-9 * abs(pop.ybar)

    def test_first_order_mse_equality_sharpens_with_n(self):
        # ap/gp/hp empirical MSEs coincide to first order; their spread
        # shrinks as n grows at a fixed sampling fraction (fixed g), the
        # regime where the first-order error term actually decays.
        spreads = []
        for N in (16, 32, 64):
            pop = correlated_population(
                N, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.1, cv_x=0.1,
                rho_yx=0.6, rho_xx=0.3, seed=3,
            )
            sim = run_monte_carlo(pop, SampleDesign(N, N // 4), Weights.equal(2),
                                  200_000, seed=9)
            mses = [sim.by_name(nm).mse for nm in ("ap", "gp", "hp")]
            spreads.append(max(mses) - min(mses))
        assert spreads[0] > spreads[1] > spreads[2]


class TestSimResultShape:
    def test_requested_and_weights_recorded(self, small_pop):
        w = Weights([0.25, 0.75])
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), w, 123, seed=17)
        assert out.requested == 123
        assert out.seed == 17
        assert not out.exact
        assert out.weights == (0.25, 0.75)
        assert [e.name for e in out.estimators] == [
            "mean", "ratio(1)", "ratio(2)", "ap", "gp", "hp", "product",
        ]

    def test_by_name_unknown(self, small_pop):
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 10, seed=0)
        with pytest.raises(KeyError):
            out.by_name("nope")

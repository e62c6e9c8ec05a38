"""The benchmark's checks pass real program output and reject corrupted output.

    python3 -m pytest bench/test_checks.py

Each corruption is one a faulty program could produce: estimator rows
swapped, a bias shifted by 10 standard errors, an MSE scaled by 1.1, a wrong
count. The named check must reject it.
"""

import copy
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dualratio  # noqa: E402
from dualratio import cli  # noqa: E402

import checks  # noqa: E402
from child import _parse_cli_csv, _sim_dict  # noqa: E402
from workloads import WORKLOADS, population, write_csv  # noqa: E402

R = 20_000  # large enough that a 10 % MSE error is over 10 SE for the mean


def _small_pop(N, seed):
    w = WORKLOADS["mc_survey"]
    y, x = population(w, seed)
    return y[:N], x[:N]


@pytest.fixture(scope="module")
def mc():
    y, x = _small_pop(300, 5)
    pop = dualratio.Population(y, x)
    sim = dualratio.run_monte_carlo(pop, dualratio.SampleDesign(300, 30),
                                    dualratio.Weights.equal(2), R, seed=11)
    return _sim_dict(sim), checks.Truth(y, 30)


@pytest.fixture(scope="module")
def exact():
    y, x = _small_pop(12, 6)
    pop = dualratio.Population(y, x)
    w = dualratio.Weights.equal(2)
    sim = dualratio.enumerate_exact(pop, dualratio.SampleDesign(12, 4), w)
    return _sim_dict(sim), checks.exact_reference(y, x, 4, w.alpha), checks.Truth(y, 4)


def _swap(res, a, b):
    res = copy.deepcopy(res)
    rows = res["rows"]
    rows[a], rows[b] = rows[b], rows[a]
    return res


def _edit(res, name, **changes):
    res = copy.deepcopy(res)
    for key, fn in changes.items():
        res["rows"][name][key] = fn(res["rows"][name][key], res["rows"][name])
    return res


def test_fourth_moment_of_mean_matches_brute_force():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(9) ** 3 + 2.0
    brute = np.mean([(y[list(c)].mean() - y.mean()) ** 4
                     for c in itertools.combinations(range(9), 4)])
    assert checks.Truth(y, 4).m4_mean == pytest.approx(brute, rel=1e-12)


def test_all_subsets_is_lexicographic_combinations():
    got = checks.all_subsets(9, 4)
    assert got.tolist() == [list(c) for c in itertools.combinations(range(9), 4)]


def test_monte_carlo_result_passes(mc):
    res, truth = mc
    assert checks.check_monte_carlo(res, truth, R, control_variate=True) == []


def test_swapped_ap_hp_rejected(mc):
    res, _ = mc
    assert checks.check_ordering(_swap(res, "ap", "hp"))


def test_mean_bias_shifted_10_se_rejected(mc):
    res, truth = mc
    se = math.sqrt(truth.var_mean / R)
    assert checks.check_mean_unbiased(_edit(res, "mean", bias=lambda v, r: v + 10 * se), truth, R)


def test_dual_bias_shifted_10_se_rejected(mc):
    res, _ = mc
    bad = _edit(res, "ap", bias=lambda v, r: v + 10 * r["se_bias"])
    assert checks.check_control_variate(bad)


def test_mean_mse_scaled_rejected(mc):
    res, truth = mc
    assert checks.check_mean_mse(_edit(res, "mean", mse=lambda v, r: 1.1 * v), truth, R)


def test_dual_mse_scaled_rejected(mc):
    res, truth = mc
    bad = _edit(res, "gp", mse=lambda v, r: 1.1 * v)
    assert checks.check_control_variate(bad)
    assert checks.check_standard_errors(bad, truth, R)


def test_padded_standard_error_rejected(mc):
    res, truth = mc
    assert checks.check_standard_errors(_edit(res, "hp", se_bias=lambda v, r: 2 * v), truth, R)


def test_invalid_replicates_rejected(mc):
    res, _ = mc
    bad = _edit(res, "hp", invalid=lambda v, r: 1, used=lambda v, r: R - 1)
    assert checks.check_counts(bad, R)


def test_cli_csv_checked_and_corruption_rejected(tmp_path):
    w = WORKLOADS["cli_census"]
    y, x = population(w, 4)
    y, x = y[:400], x[:400]
    data, out = tmp_path / "pop.csv", tmp_path / "out.csv"
    write_csv(data, w, y, x)
    code = cli.main(["simulate", "--data", str(data), "--y", "y", "--x", "x1,x2", "--n", "20",
                     "--reps", str(R), "--seed", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    res, truth = _parse_cli_csv(out, R), checks.Truth(y, 20)
    assert checks.check_monte_carlo(res, truth, R, control_variate=False) == []
    # the csv carries no mean_estimate: the ordering check reads emp_bias
    assert checks.check_ordering(_swap(res, "ap", "hp"))
    assert checks.check_mean_mse(_edit(res, "mean", mse=lambda v, r: 1.1 * v), truth, R)


def test_exact_result_passes(exact):
    res, ref, truth = exact
    assert checks.check_exact(res, ref, truth) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: _swap(r, "ap", "hp"),
    lambda r: _edit(r, "gp", mse=lambda v, row: 1.1 * v),
    lambda r: _edit(r, "ratio(1)", bias=lambda v, row: v * (1 + 1e-6)),
    lambda r: _edit(r, "mean", bias=lambda v, row: v + 1e-6 * math.sqrt(row["mse"])),
    lambda r: {**r, "requested": r["requested"] + 1},
], ids=["swap-ap-hp", "mse-x1.1", "bias-shift", "mean-bias-nonzero", "wrong-total"])
def test_exact_corruption_rejected(exact, corrupt):
    res, ref, truth = exact
    assert checks.check_exact(corrupt(res), ref, truth)

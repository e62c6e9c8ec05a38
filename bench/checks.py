"""Correctness checks that do not trust the program.

Every reference value here is computed by the benchmark from the population
it generated, using exact SRSWOR facts (Cochran, *Sampling Techniques*, 1977,
ch. 2): the sample mean is unbiased with variance (1/n - 1/N) S_y^2, and its
fourth central moment follows from the population power sums (below). No
check compares against stored program output.

A result is a plain dict, so that API results and parsed CLI csv output go
through the same code:

    {"requested": int,
     "rows": {estimator: {"used", "invalid", "bias", "se_bias", "mse",
                          "se_mse", and optionally "mean_estimate",
                          "bias_cv", "se_bias_cv", "mse_cv", "se_mse_cv"}}}

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

#: Monte Carlo tolerance in standard errors. A run makes thousands of these
#: tests; at 5 SE a valid stream would fail one in ~1.7 million (normal
#: tails), at 6 SE one in ~500 million, which keeps the several hundred runs
#: of a comparison between commits clear of false alarms, while a real fault
#: shows by far more.
TOL_SE = 6.0

#: Relative agreement demanded of exact enumeration against the reference.
TOL_EXACT = 1e-9

#: Relative slack on standard errors recomputed from the reported moments
#: (covers an N or N-1 divisor; a padded SE is off by far more).
TOL_SE_IDENTITY = 1e-3

#: Relative slack on the reported SE of the mean's MSE against its exact value.
TOL_SE_MSE = 0.25

CV_ESTIMATORS = ("ap", "gp", "hp")


class Truth:
    """Exact sampling moments of the sample mean of ``y`` under SRSWOR(n)."""

    def __init__(self, y: np.ndarray, n: int):
        y = np.asarray(y, dtype=float)
        N = y.size
        self.N, self.n = N, n
        self.ybar = float(np.mean(y))
        self.sy2 = float(np.var(y, ddof=1))
        self.var_mean = (1.0 / n - 1.0 / N) * self.sy2
        self.m4_mean = _fourth_moment_of_mean(y - self.ybar, n)


def _fourth_moment_of_mean(z: np.ndarray, n: int) -> float:
    """E[(ybar - Ybar)^4] under SRSWOR, from the centred values ``z``.

    Expands (sum over the sample of z)^4 into sums over ordered tuples of r
    distinct units, each included with probability n!/(n-r)! / (N!/(N-r)!),
    and writes those population sums in power sums p_r (p_1 = 0).
    """
    N = z.size
    p2, p4 = float(np.sum(z**2)), float(np.sum(z**4))

    def incl(r):
        return math.perm(n, r) / math.perm(N, r)

    es4 = (
        incl(1) * p4
        + 4 * incl(2) * (-p4)
        + 3 * incl(2) * (p2 * p2 - p4)
        + 6 * incl(3) * (2 * p4 - p2 * p2)
        + incl(4) * (3 * p2 * p2 - 6 * p4)
    )
    return es4 / n**4


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def check_counts(res: dict, expected_total: int) -> list[str]:
    """Every estimator used every replicate (or subset); none was invalid."""
    out = []
    if res["requested"] != expected_total:
        out.append(f"requested {res['requested']} != {expected_total}")
    for name, row in res["rows"].items():
        if row["used"] != expected_total or row["invalid"] != 0:
            out.append(f"{name}: used {row['used']}, invalid {row['invalid']} of {expected_total}")
    return out


def check_mean_unbiased(res: dict, truth: Truth, R: int) -> list[str]:
    """The sample mean's Monte Carlo bias lies within TOL_SE SE of 0."""
    bias = res["rows"]["mean"]["bias"]
    se = math.sqrt(truth.var_mean / R)
    if not _finite(bias) or abs(bias) > TOL_SE * se:
        return [f"mean: bias {bias!r} is {abs(bias) / se:.2f} SE from 0 (limit {TOL_SE})"]
    return []


def check_mean_mse(res: dict, truth: Truth, R: int) -> list[str]:
    """The sample mean's MSE lies within TOL_SE SE of (1/n - 1/N) S_y^2."""
    mse = res["rows"]["mean"]["mse"]
    se = math.sqrt((truth.m4_mean - truth.var_mean**2) / R)
    if not _finite(mse) or abs(mse - truth.var_mean) > TOL_SE * se:
        gap = abs(mse - truth.var_mean) / se
        return [f"mean: mse {mse!r} vs {truth.var_mean!r} is {gap:.2f} SE apart (limit {TOL_SE})"]
    return []


def check_ordering(res: dict) -> list[str]:
    """HM <= GM <= AM per replicate, so the averages keep that order.

    Reads ``mean_estimate`` when the result carries it, else ``bias`` (the
    same order, shifted by the population mean).
    """
    rows = res["rows"]
    key = "mean_estimate" if rows["ap"].get("mean_estimate") is not None else "bias"
    hp, gp, ap = (rows[name][key] for name in ("hp", "gp", "ap"))
    if not (_finite(hp, gp, ap) and hp <= gp <= ap):
        return [f"{key}: hp {hp!r} <= gp {gp!r} <= ap {ap!r} does not hold"]
    return []


def check_standard_errors(res: dict, truth: Truth, R: int) -> list[str]:
    """Reported SEs are the ones the reported moments imply.

    se_bias^2 = (mse - bias^2) / (R - 1) holds exactly for the sample
    standard error, so a padded or shrunk se_bias shows; the mean's se_mse
    must be near its exact value sqrt((E d^4 - sigma^4) / R).
    """
    out = []
    for name, row in res["rows"].items():
        bias, mse, se = row["bias"], row["mse"], row["se_bias"]
        if not _finite(bias, mse, se):
            out.append(f"{name}: non-finite bias/mse/se_bias")
            continue
        implied = math.sqrt(max(mse - bias * bias, 0.0) / (R - 1))
        if abs(se - implied) > TOL_SE_IDENTITY * implied:
            out.append(f"{name}: se_bias {se!r} but bias and mse imply {implied!r}")
    exact = math.sqrt((truth.m4_mean - truth.var_mean**2) / R)
    se_mse = res["rows"]["mean"]["se_mse"]
    if not _finite(se_mse) or abs(se_mse - exact) > TOL_SE_MSE * exact:
        out.append(f"mean: se_mse {se_mse!r} vs exact {exact!r}")
    return out


def check_control_variate(res: dict) -> list[str]:
    """bias_cv/mse_cv agree with the raw bias/mse within TOL_SE combined SE."""
    out = []
    for name in CV_ESTIMATORS:
        row = res["rows"][name]
        for raw, cv in (("bias", "bias_cv"), ("mse", "mse_cv")):
            a, b = row[raw], row.get(cv)
            sa, sb = row[f"se_{raw}"], row.get(f"se_{cv}")
            if not _finite(a, b, sa, sb):
                out.append(f"{name}: {cv} or its SE missing or non-finite")
                continue
            se = math.hypot(sa, sb)
            if abs(a - b) > TOL_SE * se:
                out.append(f"{name}: {raw} {a!r} vs {cv} {b!r} is {abs(a - b) / se:.2f} SE apart")
    return out


def check_monte_carlo(res: dict, truth: Truth, R: int, *, control_variate: bool) -> list[str]:
    """Every Monte Carlo check; ``control_variate`` is False for csv output,
    which does not carry the control-variate fields."""
    out = (
        check_counts(res, R)
        + check_mean_unbiased(res, truth, R)
        + check_mean_mse(res, truth, R)
        + check_ordering(res)
        + check_standard_errors(res, truth, R)
    )
    if control_variate:
        out += check_control_variate(res)
    return out


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def all_subsets(N: int, n: int) -> np.ndarray:
    """Every n-subset of range(N) as sorted rows, in lexicographic order."""
    combos = np.arange(N, dtype=np.int64)[:, None]
    for _ in range(n - 1):
        last = combos[:, -1]
        counts = N - 1 - last
        keep = counts > 0
        combos, last, counts = combos[keep], last[keep], counts[keep]
        starts = np.cumsum(counts) - counts
        offsets = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        nxt = np.repeat(last + 1, counts) + offsets
        combos = np.column_stack([np.repeat(combos, counts, axis=0), nxt])
    return combos


def exact_reference(y: np.ndarray, x: np.ndarray, n: int, alpha: np.ndarray) -> dict:
    """(bias, mse) of every estimator over all n-subsets, from the definitions:
    ratio(i) = ybar Xbar_i / xbar_i; x*_i = (1+g) Xbar_i - g xbar_i;
    t_i = ybar Xbar_i / x*_i; ap/gp/hp the weighted arithmetic, geometric
    and harmonic means of the t_i; product their plain product."""
    N, k = x.shape
    g = n / (N - n)
    Y, X = float(np.mean(y)), x.mean(axis=0)
    idx = all_subsets(N, n)
    ybar = y[idx].mean(axis=1)
    xbar = np.stack([x[:, i][idx].mean(axis=1) for i in range(k)], axis=1)
    t = ybar[:, None] * X / ((1.0 + g) * X - g * xbar)
    est = {"mean": ybar}
    for i in range(k):
        est[f"ratio({i + 1})"] = ybar * X[i] / xbar[:, i]
    est["ap"] = t @ alpha
    est["gp"] = np.prod(t**alpha, axis=1)
    est["hp"] = 1.0 / (alpha / t).sum(axis=1)
    est["product"] = np.prod(t, axis=1)
    ref = {}
    for name, v in est.items():
        d = v - Y
        ref[name] = (float(np.mean(d)), float(np.mean(d * d)))
    return {"total": idx.shape[0], "estimators": ref}


def check_exact(res: dict, ref: dict, truth: Truth) -> list[str]:
    """Enumeration matches the benchmark's own enumeration to TOL_EXACT."""
    out = check_counts(res, math.comb(truth.N, truth.n))
    if ref["total"] != math.comb(truth.N, truth.n):
        out.append(f"reference enumerated {ref['total']} subsets")
    rows = res["rows"]
    if set(rows) != set(ref["estimators"]):
        return out + [f"estimators {sorted(rows)} != {sorted(ref['estimators'])}"]
    for name, (bias_ref, mse_ref) in ref["estimators"].items():
        bias, mse = rows[name]["bias"], rows[name]["mse"]
        # the mean's bias is zero by design: compare it on the scale of its spread
        scale = math.sqrt(mse_ref) if name == "mean" else max(abs(bias_ref), 1e-3 * math.sqrt(mse_ref))
        if not _finite(bias) or abs(bias - bias_ref) > TOL_EXACT * scale:
            out.append(f"{name}: bias {bias!r} vs reference {bias_ref!r}")
        if not _finite(mse) or abs(mse - mse_ref) > TOL_EXACT * mse_ref:
            out.append(f"{name}: mse {mse!r} vs reference {mse_ref!r}")
    mse_mean = rows["mean"]["mse"]
    if not _finite(mse_mean) or abs(mse_mean - truth.var_mean) > TOL_EXACT * truth.var_mean:
        out.append(f"mean: mse {mse_mean!r} vs (1/n - 1/N) S_y^2 = {truth.var_mean!r}")
    return out

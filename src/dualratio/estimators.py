"""Point estimators of the population mean from a drawn SRSWOR sample.

All precision-mean estimators share the dual-transformed ratio terms
t_i = r_i * xbar_pop_i with r_i = ybar / xstar_i and
xstar_i = (1 + g) * xbar_pop_i - g * xbar_i. The arithmetic, geometric and
harmonic combinations weight those terms by alpha; the unweighted product
variant multiplies all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    NegativeWeight,
    NonPositiveTerm,
    ZeroDenominator,
    ZeroDualMean,
    ZeroSampleMean,
)
from .model import Population, SampleIndices, Weights, _frozen_array


@dataclass(frozen=True)
class SampleSummary:
    """Sample means of the study and auxiliary variables."""

    ybar: float
    xbar: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xbar", np.atleast_1d(_frozen_array(self.xbar)))
        object.__setattr__(self, "ybar", float(self.ybar))


@dataclass(frozen=True)
class DualRatios:
    """Dual-transformed auxiliary means and the ratios built on them.

    r[i] * xstar[i] equals the sample mean of y for every i (up to rounding).
    ``nonpositive`` lists the 1-based auxiliary positions whose transformed
    mean is <= 0; those are not fatal here but make the geometric/harmonic
    combinations undefined downstream.
    """

    xstar: np.ndarray
    r: np.ndarray
    nonpositive: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        xstar = np.atleast_1d(_frozen_array(self.xstar))
        r = np.atleast_1d(_frozen_array(self.r))
        if xstar.shape != r.shape:
            raise ValueError("xstar and r must have the same shape")
        object.__setattr__(self, "xstar", xstar)
        object.__setattr__(self, "r", r)


def sample_means(pop: Population, s: SampleIndices) -> SampleSummary:
    """Arithmetic means of y and each auxiliary column over the indexed units."""
    idx = np.asarray(s.idx, dtype=np.intp)
    if idx[-1] >= pop.N:
        raise IndexOutOfRange(f"index {int(idx[-1])} out of range for N={pop.N}")
    return SampleSummary(ybar=float(np.mean(pop.y[idx])), xbar=pop.x[idx].mean(axis=0))


def dual_transform(xbar_i: float, xbar_pop_i: float, g: float) -> float:
    """(1 + g) * xbar_pop - g * xbar, evaluated as xbar_pop + g * (xbar_pop - xbar).

    The rearranged form makes xbar == xbar_pop map to xbar_pop exactly.
    """
    return xbar_pop_i + g * (xbar_pop_i - xbar_i)


def dual_ratios(ss: SampleSummary, xbar_pop, g: float) -> DualRatios:
    """Dual-transformed means xstar and ratios r = ybar / xstar for all auxiliaries.

    Raises ZeroDualMean when some xstar_i is exactly zero. Negative xstar are
    flagged in ``nonpositive`` rather than raised.
    """
    xbar_pop = np.atleast_1d(np.asarray(xbar_pop, dtype=float))
    xstar = xbar_pop + g * (xbar_pop - ss.xbar)
    zero = np.flatnonzero(xstar == 0.0)
    if zero.size:
        raise ZeroDualMean(int(zero[0]) + 1)
    nonpos = tuple(int(j) + 1 for j in np.flatnonzero(xstar < 0.0))
    return DualRatios(xstar=xstar, r=ss.ybar / xstar, nonpositive=nonpos)


def _terms(dr: DualRatios, xbar_pop) -> np.ndarray:
    return dr.r * np.atleast_1d(np.asarray(xbar_pop, dtype=float))


def _require_nonneg(w: Weights) -> None:
    if not w.nonneg:
        j = int(np.flatnonzero(w.alpha < 0.0)[0]) + 1
        raise NegativeWeight(f"alpha_{j} = {float(w.alpha[j - 1])!r} is negative")


def _require_positive_terms(terms: np.ndarray) -> None:
    bad = np.flatnonzero(~(terms > 0.0))
    if bad.size:
        raise NonPositiveTerm(int(bad[0]) + 1)


def estimate_arithmetic(dr: DualRatios, xbar_pop, w: Weights) -> float:
    """Weighted arithmetic mean of the ratio terms (negative weights permitted)."""
    return float(np.dot(w.alpha, _terms(dr, xbar_pop)))


def estimate_geometric(dr: DualRatios, xbar_pop, w: Weights) -> float:
    """Weighted geometric mean of the ratio terms, computed in log space.

    Requires strictly positive terms and nonnegative weights.
    """
    _require_nonneg(w)
    terms = _terms(dr, xbar_pop)
    _require_positive_terms(terms)
    return float(np.exp(np.dot(w.alpha, np.log(terms))))


def estimate_harmonic(dr: DualRatios, xbar_pop, w: Weights) -> float:
    """Weighted harmonic mean of the ratio terms.

    Requires strictly positive terms and nonnegative weights.
    """
    _require_nonneg(w)
    terms = _terms(dr, xbar_pop)
    _require_positive_terms(terms)
    denom = float(np.dot(w.alpha, 1.0 / terms))
    if denom == 0.0:
        raise ZeroDenominator("weighted reciprocal sum is zero")
    return 1.0 / denom


def estimate_product(dr: DualRatios, xbar_pop) -> float:
    """Unweighted product of all ratio terms.

    For k > 1 the result scales like ybar**k and is not comparable to the
    other estimators; it is reported as a point estimate only.
    """
    return float(np.prod(_terms(dr, xbar_pop)))


def estimate_mean_per_unit(ss: SampleSummary) -> float:
    """The plain sample mean (no-auxiliary baseline)."""
    return ss.ybar


def estimate_classic_ratio(ss: SampleSummary, xbar_pop_i: float, aux: int) -> float:
    """Classical ratio estimate ybar * xbar_pop_i / xbar_i for auxiliary ``aux`` (0-based)."""
    denom = float(ss.xbar[aux])
    if denom == 0.0:
        raise ZeroSampleMean(aux + 1)
    return ss.ybar * float(xbar_pop_i) / denom

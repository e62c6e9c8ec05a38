"""Point estimators of the population mean from a drawn SRSWOR sample.

All precision-mean estimators share one vector of dual-transformed ratio
terms, built by :func:`dual_terms`: t_i = (ybar / xstar_i) * xbar_pop_i with
xstar_i = (1 + g) * xbar_pop_i - g * xbar_i. The arithmetic, geometric and
harmonic combinations weight those terms by alpha; the unweighted product
variant multiplies all of them.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NegativeWeight,
    NonPositiveTerm,
    ZeroDenominator,
    ZeroDualMean,
    ZeroSampleMean,
)
from .model import Population, Weights


def dual_terms(sample: Population, xbar_pop, g: float) -> np.ndarray:
    """Ratio terms t_i = (ybar / xstar_i) * xbar_pop_i of a drawn ``sample``.

    xstar_i is evaluated as xbar_pop_i + g * (xbar_pop_i - xbar_i), so that
    xbar == xbar_pop maps to xbar_pop exactly. Raises ZeroDualMean when some
    xstar_i is exactly zero; a negative xstar_i gives a negative term, which
    the geometric/harmonic combinations refuse. A term beyond the float64
    range is inf, whose reciprocal the harmonic combination sums as zero.
    """
    xbar_pop = np.atleast_1d(np.asarray(xbar_pop, dtype=float))
    xstar = xbar_pop + g * (xbar_pop - sample.xbar)
    zero = np.flatnonzero(xstar == 0.0)
    if zero.size:
        raise ZeroDualMean(int(zero[0]) + 1)
    with np.errstate(over="ignore"):
        return (sample.ybar / xstar) * xbar_pop


def _require_nonneg(w: Weights) -> None:
    if not w.nonneg:
        j = int(np.flatnonzero(w.alpha < 0.0)[0]) + 1
        raise NegativeWeight(f"alpha_{j} = {float(w.alpha[j - 1])!r} is negative")


def _require_positive_terms(terms: np.ndarray) -> None:
    bad = np.flatnonzero(~(terms > 0.0))
    if bad.size:
        raise NonPositiveTerm(int(bad[0]) + 1)


def estimate_arithmetic(terms: np.ndarray, w: Weights) -> float:
    """Weighted arithmetic mean of the ratio terms (negative weights permitted)."""
    return float(np.dot(w.alpha, terms))


def estimate_geometric(terms: np.ndarray, w: Weights) -> float:
    """Weighted geometric mean of the ratio terms, computed in log space.

    Requires strictly positive terms and nonnegative weights.
    """
    _require_nonneg(w)
    _require_positive_terms(terms)
    return float(np.exp(np.dot(w.alpha, np.log(terms))))


def estimate_harmonic(terms: np.ndarray, w: Weights) -> float:
    """Weighted harmonic mean of the ratio terms.

    Requires strictly positive terms and nonnegative weights.
    """
    _require_nonneg(w)
    _require_positive_terms(terms)
    denom = float(np.dot(w.alpha, 1.0 / terms))
    if denom == 0.0:
        raise ZeroDenominator("weighted reciprocal sum is zero")
    return 1.0 / denom


def estimate_product(terms: np.ndarray) -> float:
    """Unweighted product of all ratio terms.

    For k > 1 the result scales like ybar**k and is not comparable to the
    other estimators; it is reported as a point estimate only.
    """
    return float(np.prod(terms))


def estimate_mean_per_unit(sample: Population) -> float:
    """The plain sample mean (no-auxiliary baseline)."""
    return sample.ybar


def estimate_classic_ratio(sample: Population, xbar_pop_i: float, aux: int) -> float:
    """Classical ratio estimate ybar * xbar_pop_i / xbar_i for auxiliary ``aux`` (0-based)."""
    denom = float(sample.xbar[aux])
    if denom == 0.0:
        raise ZeroSampleMean(aux + 1)
    return sample.ybar * float(xbar_pop_i) / denom

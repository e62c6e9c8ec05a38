"""Core domain types: populations, SRSWOR designs, and weight vectors.

All types are immutable after construction (arrays are marked read-only), so
they can be shared freely across threads and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidDesign, InvalidWeights

#: Accepted absolute deviation of sum(alpha) from 1.
WEIGHT_SUM_TOL = 1e-9

#: Fewest columns of Population.table: numpy's take copies its 32-byte rows
#: ~2.2x as fast as 24-byte ones (k = 2 unpadded).
TABLE_MIN_COLUMNS = 4


class MomentMode(Enum):
    """Scaling convention for the relative variances/covariances.

    PAPER_LITERAL keeps the population coefficients of variation unscaled
    (theta = 1), which is the convention implied by published comparison
    tables that quote an S_y^2-sized MSE for the sample mean. SRSWOR_EXACT
    applies the finite-population factor theta = 1/n - 1/N, the standard
    choice for sample means under SRSWOR, and is the default everywhere.
    """

    PAPER_LITERAL = "paper"
    SRSWOR_EXACT = "srswor"


def gamma(N: int, n: int) -> float:
    """Dual-transform coefficient g = n / (N - n).

    Raises InvalidDesign unless 2 <= n < N.
    """
    if not isinstance(N, (int, np.integer)) or not isinstance(n, (int, np.integer)):
        raise InvalidDesign(f"N and n must be integers, got N={N!r}, n={n!r}")
    if n < 2 or n >= N:
        raise InvalidDesign(f"need 2 <= n < N, got n={n}, N={N}")
    return n / (N - n)


@dataclass(frozen=True)
class SampleDesign:
    """SRSWOR design: n units drawn from N.

    ``g`` and ``theta`` are recomputed on access, never stored, so they can
    not drift out of sync with (N, n, mode).
    """

    N: int
    n: int
    mode: MomentMode = MomentMode.SRSWOR_EXACT

    def __post_init__(self) -> None:
        gamma(self.N, self.n)  # validates 2 <= n < N
        if not isinstance(self.mode, MomentMode):
            raise InvalidDesign(f"mode must be a MomentMode, got {self.mode!r}")

    @property
    def g(self) -> float:
        return gamma(self.N, self.n)

    @property
    def theta(self) -> float:
        """Moment scale: 1 in paper-literal mode, 1/n - 1/N under exact SRSWOR."""
        if self.mode is MomentMode.PAPER_LITERAL:
            return 1.0
        return 1.0 / self.n - 1.0 / self.N


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Population:
    """Finite population: study column ``y`` (N,) and auxiliary matrix ``x`` (N, k).

    Construction only enforces structural consistency; content-level
    invariants (finite values, nonzero auxiliary means, N >= 2) are checked
    by :func:`validate_population` so that callers can collect a full report
    instead of failing on the first problem. ``ybar``, the population mean
    of the study variable, and ``xbar``, those of the auxiliaries (k,), are
    computed once here, as is ``table``: one C-ordered row per unit, y in
    column 0 and the auxiliaries in columns 1..k, zero-padded to
    max(TABLE_MIN_COLUMNS, k + 1) columns, from which the sampling harness
    gathers every sample mean (see the simulation module docstring).
    """

    y: np.ndarray
    x: np.ndarray
    ybar: float = field(init=False, repr=False, compare=False)
    xbar: np.ndarray = field(init=False, repr=False, compare=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        y = _frozen_array(self.y)
        x = _frozen_array(self.x)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if y.ndim != 1 or x.ndim != 2:
            raise ValueError("y must be one-dimensional and x two-dimensional")
        if y.shape[0] == 0:
            raise ValueError("population must contain at least one unit")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"y has {y.shape[0]} rows but x has {x.shape[0]}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "ybar", float(np.mean(y)))
        object.__setattr__(self, "xbar", _frozen_array(x.mean(axis=0)))
        table = np.zeros((y.size, max(TABLE_MIN_COLUMNS, 1 + x.shape[1])))
        table[:, 0], table[:, 1:1 + x.shape[1]] = y, x
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def N(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]


def validate_population(pop: Population) -> list[str]:
    """Collect invariant violations; an empty list means the population is valid.

    Entries are stable machine-checkable codes: ``TooFewUnits(N)``,
    ``NoAuxiliaryColumns``, ``NonFiniteValue(col)``, ``ZeroAuxiliaryMean(j)``
    with j the 1-based auxiliary position.
    """
    issues: list[str] = []
    if pop.N < 2:
        issues.append(f"TooFewUnits({pop.N})")
    if pop.k < 1:
        issues.append("NoAuxiliaryColumns")
    if not np.isfinite(pop.y).all():
        issues.append("NonFiniteValue(y)")
    for j in range(pop.k):
        if not np.isfinite(pop.x[:, j]).all():
            issues.append(f"NonFiniteValue(x{j + 1})")
        elif pop.xbar[j] == 0.0:  # the mean every later step divides by
            issues.append(f"ZeroAuxiliaryMean({j + 1})")
    return issues


@dataclass(frozen=True)
class Weights:
    """Affine weight vector alpha with sum(alpha) = 1 within WEIGHT_SUM_TOL.

    Negative components are legal at this level (the arithmetic combination
    and the weight optimizer accept them); the geometric/harmonic estimators
    check :attr:`nonneg` and refuse otherwise.
    """

    alpha: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.atleast_1d(_frozen_array(self.alpha))
        if alpha.ndim != 1 or alpha.size < 1:
            raise InvalidWeights("alpha must be a non-empty vector")
        if not np.isfinite(alpha).all():
            raise InvalidWeights("alpha must be finite")
        total = float(np.sum(alpha))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidWeights(f"sum(alpha) = {total!r} is not 1 within {WEIGHT_SUM_TOL}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def k(self) -> int:
        return self.alpha.size

    @property
    def nonneg(self) -> bool:
        """True iff every component is >= 0 (required by GM/HM estimators)."""
        return bool(np.all(self.alpha >= 0.0))

    @staticmethod
    def equal(k: int) -> "Weights":
        """Equal weights alpha_i = 1/k."""
        if k < 1:
            raise InvalidWeights("k must be >= 1")
        return Weights(np.full(k, 1.0 / k))

"""Core domain types: populations, SRSWOR designs, samples, and weight vectors.

All types are immutable after construction (arrays are marked read-only), so
they can be shared freely across threads and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidDesign, InvalidWeights

#: Accepted absolute deviation of sum(alpha) from 1.
WEIGHT_SUM_TOL = 1e-9


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
        return design_factor(self)


def design_factor(design: SampleDesign) -> float:
    """Moment scale theta: 1 in paper-literal mode, 1/n - 1/N under exact SRSWOR."""
    if design.mode is MomentMode.PAPER_LITERAL:
        return 1.0
    return 1.0 / design.n - 1.0 / design.N


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
    instead of failing on the first problem.
    """

    y: np.ndarray
    x: np.ndarray

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

    @property
    def N(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def ybar(self) -> float:
        """Population mean of the study variable."""
        return float(np.mean(self.y))

    @property
    def xbar(self) -> np.ndarray:
        """Population means of the auxiliary variables, shape (k,)."""
        return self.x.mean(axis=0)


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
        col = pop.x[:, j]
        if not np.isfinite(col).all():
            issues.append(f"NonFiniteValue(x{j + 1})")
        elif float(col.mean()) == 0.0:
            issues.append(f"ZeroAuxiliaryMean({j + 1})")
    return issues


@dataclass(frozen=True)
class SampleIndices:
    """Sorted distinct unit indices of one drawn sample."""

    idx: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(v) for v in self.idx)
        if len(idx) < 1:
            raise ValueError("a sample must contain at least one index")
        if idx[0] < 0:
            raise ValueError("sample indices must be nonnegative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("sample indices must be strictly increasing")
        object.__setattr__(self, "idx", idx)

    def __len__(self) -> int:
        return len(self.idx)


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

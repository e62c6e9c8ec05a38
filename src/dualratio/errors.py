"""Semantic exception hierarchy.

Every failure mode that callers are expected to branch on gets its own class;
plain ValueError/TypeError remain reserved for programmer errors (wrong shapes,
wrong types). Exceptions referring to an auxiliary variable carry its 1-based
position in ``aux`` to match the x1..xk naming used in reports.
"""

from __future__ import annotations


class DualRatioError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DualRatioError):
    """The input is at fault (a flag, a file, a design, weights); the CLI exits
    1 on these and 2 on every other DualRatioError."""


class InvalidDesign(InputError):
    """Sampling design violates 2 <= n < N."""


class InvalidWeights(InputError):
    """Weight vector is empty, non-finite, or does not sum to 1."""


class NegativeWeight(DualRatioError):
    """Geometric/harmonic estimation requires nonnegative weights."""


class ZeroMean(DualRatioError):
    """A population mean required as a divisor is zero."""


class DegeneratePopulation(DualRatioError):
    """Population too small to carry dispersion statistics (N < 2)."""


class DegenerateVariance(DualRatioError):
    """A variable is constant, so its relative variance/correlation is undefined."""

    def __init__(self, label: str):
        super().__init__(f"zero variance for {label}")
        self.label = label


class ZeroDualMean(DualRatioError):
    """A dual-transformed auxiliary mean is exactly zero."""

    def __init__(self, aux: int):
        super().__init__(f"dual-transformed mean of auxiliary x{aux} is zero")
        self.aux = aux


class NonPositiveTerm(DualRatioError):
    """A ratio term r_i * xbar_pop_i is not strictly positive."""

    def __init__(self, aux: int):
        super().__init__(f"ratio term for auxiliary x{aux} is not positive")
        self.aux = aux


class ZeroDenominator(DualRatioError):
    """Weighted reciprocal sum of the harmonic combination is zero."""


class ZeroSampleMean(DualRatioError):
    """Classic ratio estimation hit a zero sample mean."""

    def __init__(self, aux: int):
        super().__init__(f"sample mean of auxiliary x{aux} is zero")
        self.aux = aux


class SingularMomentMatrix(DualRatioError):
    """Relative covariance matrix too ill-conditioned for weight optimization."""


class TooManyInvalid(DualRatioError):
    """More than the tolerated fraction of replicates was invalid for an estimator."""


class TooLarge(DualRatioError):
    """Exact enumeration would exceed the subset cap."""


class ModeMismatch(DualRatioError):
    """Analytic-vs-empirical comparison needs exact-SRSWOR moments."""


class InconsistentStats(InputError):
    """Summary statistics are internally inconsistent (e.g. an implied |rho| > 1)."""


class InconsistentDimensions(InputError):
    """Summary statistic vectors/matrices disagree on the number of auxiliaries."""


class MissingField(InputError):
    """A required field is absent from a summary-statistics document."""


class MissingColumn(InputError):
    """A mapped column is absent from a CSV header."""


class UnparseableValue(InputError):
    """A CSV cell could not be parsed as a decimal number."""

    def __init__(self, row: int, column: str, raw: str):
        super().__init__(f"row {row}, column {column!r}: cannot parse {raw!r} as a number")
        self.row = row
        self.column = column
        self.raw = raw


class EmptyFile(InputError):
    """A data file contains no usable rows."""

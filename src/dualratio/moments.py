"""Relative moments (coefficients of variation and relative covariances).

Population dispersion uses the N-1 divisor throughout; the S-statistics in
published data summaries are quoted in that convention, and at survey-scale N
the difference from the N divisor is far below every tolerance used here.

Every relative quantity is theta * base where ``base`` is mode-free, so the
two moment modes differ exactly by the factor theta (bitwise, not just
approximately).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePopulation,
    DegenerateVariance,
    InconsistentDimensions,
    InconsistentStats,
    ZeroMean,
)
from .model import MomentMode, Population, SampleDesign, _frozen_array, design_factor, gamma

_RHO_SLACK = 1e-9  # tolerated |rho| excess over 1 before declaring stats inconsistent


@dataclass(frozen=True)
class MomentSet:
    """All relative moments needed by the first-order analytics.

    c0_sq, ci_sq, c0i and cij carry the mode factor theta; the correlations
    are scale-free. ``cij`` is symmetric with diagonal exactly equal to
    ``ci_sq``.
    """

    ybar: float
    xbar: np.ndarray
    c0_sq: float
    ci_sq: np.ndarray
    c0i: np.ndarray
    cij: np.ndarray
    rho0i: np.ndarray
    rhoij: np.ndarray
    g: float
    theta: float
    mode: MomentMode

    def __post_init__(self) -> None:
        xbar = _frozen_array(self.xbar)
        ci_sq = _frozen_array(self.ci_sq)
        c0i = _frozen_array(self.c0i)
        cij = _frozen_array(self.cij)
        rho0i = _frozen_array(self.rho0i)
        rhoij = _frozen_array(self.rhoij)
        k = xbar.size
        for name, arr, shape in (
            ("ci_sq", ci_sq, (k,)),
            ("c0i", c0i, (k,)),
            ("cij", cij, (k, k)),
            ("rho0i", rho0i, (k,)),
            ("rhoij", rhoij, (k, k)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        if self.c0_sq < 0.0 or np.any(ci_sq < 0.0):
            raise ValueError("relative variances must be nonnegative")
        if not np.array_equal(cij, cij.T):
            raise ValueError("cij must be symmetric")
        if not np.array_equal(np.diagonal(cij), ci_sq):
            raise ValueError("diagonal of cij must equal ci_sq exactly")
        if np.any(np.abs(rho0i) > 1.0 + 1e-12) or np.any(np.abs(rhoij) > 1.0 + 1e-12):
            raise ValueError("correlations must lie in [-1, 1]")
        # c0i must agree with rho0i * sqrt(c0_sq * ci_sq) (both are theta-scaled)
        implied = rho0i * np.sqrt(self.c0_sq * ci_sq)
        scale = np.maximum(np.abs(c0i), np.abs(implied))
        bad = np.abs(c0i - implied) > 1e-10 * np.maximum(scale, 1e-300)
        if np.any(bad & (scale > 0)):
            raise ValueError("c0i inconsistent with rho0i and the variances")
        for name, arr in (
            ("xbar", xbar),
            ("ci_sq", ci_sq),
            ("c0i", c0i),
            ("cij", cij),
            ("rho0i", rho0i),
            ("rhoij", rhoij),
        ):
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.xbar.size


@dataclass(frozen=True)
class SummaryStats:
    """Published-table style summary: means, dispersions, y-x covariances,
    and the auxiliary correlation matrix.

    ``metadata`` carries any extra key/values from the source document
    (pass-through, unused by computations).
    """

    N: int
    n: int
    ybar: float
    xbar: np.ndarray
    sy: float
    sx: np.ndarray
    syx: np.ndarray
    rho_x: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        gamma(self.N, self.n)  # validates the design
        xbar = _frozen_array(self.xbar)
        sx = _frozen_array(self.sx)
        syx = _frozen_array(self.syx)
        rho_x = _frozen_array(self.rho_x)
        k = xbar.size
        if sx.shape != (k,) or syx.shape != (k,):
            raise InconsistentDimensions(
                f"xbar, sx, syx must all have length k={k}; got {sx.shape} and {syx.shape}"
            )
        if rho_x.shape != (k, k):
            raise InconsistentDimensions(f"rho_x must be {k}x{k}, got {rho_x.shape}")
        if self.sy < 0.0 or np.any(sx < 0.0):
            raise InconsistentStats("dispersion statistics must be nonnegative")
        # exact symmetry is not demanded of inputs (computed correlation
        # matrices can be off in the last bit); anything beyond rounding is.
        if not np.allclose(rho_x, rho_x.T, rtol=0.0, atol=1e-12):
            raise InconsistentStats("rho_x must be symmetric")
        rho_x = _frozen_array(0.5 * (rho_x + rho_x.T))
        if not np.allclose(np.diagonal(rho_x), 1.0, rtol=0.0, atol=1e-12):
            raise InconsistentStats("rho_x must have a unit diagonal")
        if np.any(np.abs(rho_x) > 1.0 + _RHO_SLACK):
            raise InconsistentStats("rho_x entries must lie in [-1, 1]")
        for name, arr in (("xbar", xbar), ("sx", sx), ("syx", syx), ("rho_x", rho_x)):
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.xbar.size


def _build_moments(
    ybar: float,
    xbar: np.ndarray,
    sy_sq: float,
    syx: np.ndarray,
    sxx: np.ndarray,
    N: int,
    n: int,
    mode: MomentMode,
) -> MomentSet:
    """Assemble a MomentSet from population covariances (N-1 divisor)."""
    if ybar == 0.0:
        raise ZeroMean("population mean of y is zero")
    if np.any(xbar == 0.0):
        j = int(np.flatnonzero(xbar == 0.0)[0]) + 1
        raise ZeroMean(f"population mean of auxiliary x{j} is zero")
    if sy_sq == 0.0:
        raise DegenerateVariance("y")
    sii = np.diagonal(sxx).copy()
    if np.any(sii == 0.0):
        j = int(np.flatnonzero(sii == 0.0)[0]) + 1
        raise DegenerateVariance(f"x{j}")

    design = SampleDesign(N=N, n=n, mode=mode)
    theta = design_factor(design)

    base0 = sy_sq / (ybar * ybar)
    basei = sii / (xbar * xbar)
    base0i = syx / (ybar * xbar)
    baseij = sxx / np.outer(xbar, xbar)

    c0_sq = theta * base0
    ci_sq = theta * basei
    c0i = theta * base0i
    cij = theta * baseij
    cij = 0.5 * (cij + cij.T)
    cij[np.diag_indices_from(cij)] = ci_sq

    sy = np.sqrt(sy_sq)
    si = np.sqrt(sii)
    rho0i = syx / (sy * si)
    rhoij = sxx / np.outer(si, si)
    rhoij = 0.5 * (rhoij + rhoij.T)
    rhoij[np.diag_indices_from(rhoij)] = 1.0

    if np.any(np.abs(rho0i) > 1.0 + _RHO_SLACK) or np.any(np.abs(rhoij) > 1.0 + _RHO_SLACK):
        raise InconsistentStats("implied correlation magnitude exceeds 1")
    rho0i = np.clip(rho0i, -1.0, 1.0)
    rhoij = np.clip(rhoij, -1.0, 1.0)

    return MomentSet(
        ybar=float(ybar),
        xbar=xbar,
        c0_sq=float(c0_sq),
        ci_sq=ci_sq,
        c0i=c0i,
        cij=cij,
        rho0i=rho0i,
        rhoij=rhoij,
        g=design.g,
        theta=theta,
        mode=mode,
    )


def compute_moments(pop: Population, design: SampleDesign) -> MomentSet:
    """Relative moments of a unit-level population under the design's mode.

    Raises DegeneratePopulation for N < 2, ZeroMean when a required mean is
    zero, and DegenerateVariance when any variable is constant.
    """
    if pop.N < 2:
        raise DegeneratePopulation(f"need N >= 2 units, got {pop.N}")
    if design.N != pop.N:
        raise ValueError(f"design N={design.N} does not match population N={pop.N}")
    data = np.column_stack([pop.y, pop.x])
    cov = np.cov(data, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return _build_moments(
        ybar=pop.ybar,
        xbar=pop.xbar,
        sy_sq=float(cov[0, 0]),
        syx=cov[0, 1:].copy(),
        sxx=cov[1:, 1:].copy(),
        N=pop.N,
        n=design.n,
        mode=design.mode,
    )


def moments_from_summary(stats: SummaryStats, mode: MomentMode) -> MomentSet:
    """Relative moments from summary statistics.

    The auxiliary cross-covariances, absent from the summary form, are
    reconstructed as rho_x[i, j] * sx[i] * sx[j].
    """
    sxx = stats.rho_x * np.outer(stats.sx, stats.sx)
    return _build_moments(
        ybar=stats.ybar,
        xbar=stats.xbar,
        sy_sq=stats.sy * stats.sy,
        syx=stats.syx.copy(),
        sxx=sxx,
        N=stats.N,
        n=stats.n,
        mode=mode,
    )

"""First-order bias/MSE analytics, efficiency predicates, optimal weights,
and comparison-table assembly.

Sign conventions: biases are in study-variable units, MSEs in squared units.

The bias formulas are polynomials in alpha and are therefore evaluated for
any affine weight vector, including ones with negative components (the point
estimators are the place where negative weights are refused).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, SingularMomentMatrix
from .model import MomentMode, Weights
from .moments import MomentSet

_COND_LIMIT = 1e12


# B_est, the coefficient matrix of each combination's quadratic term:
# est - ybar = ybar [e0 + g alpha'e + g e0 alpha'e + g^2 e' B_est e] + O(e^3)
# with e0 = ybar_s/ybar - 1, e_i = xbar_s,i/xbar_i - 1, B_ap = diag(alpha),
# B_gp = (diag(alpha) + alpha alpha')/2, B_hp = alpha alpha' and "gap" = B_gp - B_ap.
# An entry holds B_est's diagonal as a function of alpha and its weight on the
# upper triangle Sum_{i<j} alpha_i alpha_j C_ij. tr(B_est C) is their sum, which
# keeps the identities between ap, gp and hp to machine precision.
_B_EST = {
    "ap": (lambda a: a, 0.0),
    "gp": (lambda a: a * (a + 1.0) / 2.0, 1.0),
    "hp": (lambda a: a * a, 2.0),
    "gap": (lambda a: a * (a - 1.0) / 2.0, 1.0),
}


def _trace_bc(m: MomentSet, w: Weights, est: str) -> float:
    """tr(B_est C) for the ``_B_EST`` entry ``est``."""
    diag, upper = _B_EST[est]
    trace = float(np.dot(diag(w.alpha), m.ci_sq))
    if upper:
        trace += upper * float(np.sum(np.triu(np.outer(w.alpha, w.alpha) * m.cij, k=1)))
    return trace


def _bias(m: MomentSet, w: Weights, est: str) -> float:
    """First-order bias of combination ``est``: ybar [g^2 tr(B_est C) + g alpha'c0]."""
    g = m.g
    return m.ybar * (g * g * _trace_bc(m, w, est) + g * float(np.dot(w.alpha, m.c0i)))


def bias_arithmetic(m: MomentSet, w: Weights) -> float:
    """First-order bias of the weighted arithmetic combination (B_ap = diag(alpha))."""
    return _bias(m, w, "ap")


def bias_geometric(m: MomentSet, w: Weights) -> float:
    """First-order bias of the weighted geometric combination
    (B_gp = (diag(alpha) + alpha alpha')/2)."""
    return _bias(m, w, "gp")


def bias_harmonic(m: MomentSet, w: Weights) -> float:
    """First-order bias of the weighted harmonic combination (B_hp = alpha alpha')."""
    return _bias(m, w, "hp")


def bias_gap(m: MomentSet, w: Weights) -> float:
    """Common spacing Delta = ybar g^2 tr((alpha alpha' - diag(alpha)) C) / 2, so that
    bias_geometric - bias_arithmetic = bias_harmonic - bias_geometric = Delta."""
    return m.ybar * m.g * m.g * _trace_bc(m, w, "gap")


def mse_dual_common(m: MomentSet, w: Weights) -> float:
    """Shared first-order MSE of the arithmetic/geometric/harmonic combinations:
    ybar^2 * [C_0^2 + g^2 tr(B_hp C) + 2 g alpha'c0], tr(B_hp C) = alpha' C alpha."""
    g = m.g
    quad = _trace_bc(m, w, "hp")
    return m.ybar * m.ybar * (m.c0_sq + g * g * quad + 2.0 * g * float(np.dot(w.alpha, m.c0i)))


def variance_mean_per_unit(m: MomentSet) -> float:
    """Variance of the plain sample mean: ybar^2 * C_0^2."""
    return m.ybar * m.ybar * m.c0_sq


def bias_classic_ratio(m: MomentSet, aux: int) -> float:
    """First-order bias of the classical ratio estimator on auxiliary ``aux``
    (0-based): ybar * (C_i^2 - C_0i)."""
    return m.ybar * (float(m.ci_sq[aux]) - float(m.c0i[aux]))


def mse_classic_ratio(m: MomentSet, aux: int) -> float:
    """First-order MSE of the classical ratio estimator on auxiliary ``aux``
    (0-based): ybar^2 * (C_0^2 + C_i^2 - 2 C_0i)."""
    return m.ybar * m.ybar * (m.c0_sq + float(m.ci_sq[aux]) - 2.0 * float(m.c0i[aux]))


def ratio_beats_mean(m: MomentSet, aux: int) -> bool:
    """True iff rho_0i * sqrt(C_0^2 / C_i^2) > 1/2 (strict) for auxiliary ``aux``,
    tested as C_0i / C_i^2 > 1/2, the same quantity since
    rho_0i = C_0i / sqrt(C_0^2 C_i^2)."""
    ci = float(m.ci_sq[aux])
    if ci <= 0.0:
        raise DegenerateVariance(f"x{aux + 1}")
    return bool(float(m.c0i[aux]) / ci > 0.5)


def dual_beats_mean(m: MomentSet, w: Weights) -> bool:
    """True iff the shared dual MSE is strictly below the mean-per-unit variance."""
    return mse_dual_common(m, w) < variance_mean_per_unit(m)


def bias_ordering_holds(m: MomentSet, w: Weights) -> bool:
    """True iff |bias_harmonic| > |bias_geometric| > |b|, b = bias_arithmetic:
    with the spacing Delta those biases are b + 2 Delta, b + Delta and b, so
    the condition is Delta (2b + Delta) > 0 and Delta (2b + 3 Delta) > 0.
    Delta <= 0 for every nonnegative alpha; there it holds iff Delta < 0 and
    b < |Delta|/2."""
    b, gap = bias_arithmetic(m, w), bias_gap(m, w)
    return gap * (2.0 * b + gap) > 0.0 and gap * (2.0 * b + 3.0 * gap) > 0.0


def optimal_weights(m: MomentSet) -> Weights:
    """Minimum-MSE weights over {alpha : sum(alpha) = 1}.

    Solves the stationarity system of ybar^2 [g^2 alpha' C alpha + 2 g c' alpha]
    + mu (1' alpha - 1) as a (k+1) x (k+1) linear system. Components may come
    out negative; callers that feed geometric/harmonic estimation must check
    ``nonneg``.
    """
    k = m.k
    cond = np.linalg.cond(m.cij)
    if not np.isfinite(cond) or cond >= _COND_LIMIT:
        raise SingularMomentMatrix(f"cond(C) = {cond:.3e} exceeds {_COND_LIMIT:.0e}")
    g = m.g
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = 2.0 * g * g * m.cij
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    rhs = np.concatenate([-2.0 * g * m.c0i, [1.0]])
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMomentMatrix(str(exc)) from exc
    return Weights(sol[:k])


@dataclass(frozen=True)
class ComparisonRow:
    """One estimator row: identifier, auxiliaries used, signed bias and MSE
    (None where no first-order analytics exist)."""

    estimator: str
    aux_used: str
    bias: float | None
    mse: float | None
    notes: str = ""

    @property
    def abs_bias(self) -> float | None:
        """|bias|, the magnitude that published comparison tables print."""
        return None if self.bias is None else abs(self.bias)


@dataclass(frozen=True)
class ComparisonTable:
    """Ordered comparison rows plus the provenance needed to reproduce them."""

    rows: tuple[ComparisonRow, ...]
    mode: MomentMode
    weight_scheme: str
    weights: tuple[float, ...]
    source: str  # "population" or "summary"

    def __post_init__(self) -> None:
        ids = [r.estimator for r in self.rows]
        if len(ids) != len(set(ids)):
            raise ValueError("row estimator identifiers must be unique")


def compare_all(
    m: MomentSet,
    w: Weights,
    *,
    weight_scheme: str = "explicit",
    source: str = "population",
) -> ComparisonTable:
    """Comparison table in published order: mean, one classical-ratio row per
    auxiliary, then the three dual combinations (one shared MSE value) and the
    product variant (no analytics)."""
    if w.k != m.k:
        raise ValueError(f"weights have k={w.k} but moments have k={m.k}")
    all_aux = ",".join(f"x{i + 1}" for i in range(m.k))
    rows = [ComparisonRow("mean", "none", 0.0, variance_mean_per_unit(m))]
    for i in range(m.k):
        rows.append(
            ComparisonRow(
                f"ratio({i + 1})",
                f"x{i + 1}",
                bias_classic_ratio(m, i),
                mse_classic_ratio(m, i),
            )
        )
    shared_mse = mse_dual_common(m, w)
    neg_note = "" if w.nonneg else "negative weights: point estimation undefined for gp/hp"
    for est, note in (("ap", ""), ("gp", neg_note), ("hp", neg_note)):
        rows.append(ComparisonRow(est, all_aux, _bias(m, w, est), shared_mse, note))
    product_note = "no first-order analytics"
    if m.k > 1:
        product_note += "; dimensionally non-comparable for k>1"
    rows.append(ComparisonRow("product", all_aux, None, None, product_note))
    return ComparisonTable(
        rows=tuple(rows),
        mode=m.mode,
        weight_scheme=weight_scheme,
        weights=tuple(float(a) for a in w.alpha),
        source=source,
    )

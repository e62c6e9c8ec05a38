"""Dual-to-ratio estimation toolkit for finite-population means under SRSWOR.

Point estimators built on dual-transformed auxiliary ratios (weighted
arithmetic/geometric/harmonic combinations and the unweighted product),
their first-order bias/MSE analytics, minimum-MSE weighting, and a
simulation/enumeration harness that validates the analytics empirically.
"""

__version__ = "0.1.0"

from .analytics import (
    ComparisonRow,
    ComparisonTable,
    bias_arithmetic,
    bias_classic_ratio,
    bias_gap,
    bias_geometric,
    bias_harmonic,
    bias_ordering_holds,
    compare_all,
    dual_beats_mean,
    mse_classic_ratio,
    mse_dual_common,
    optimal_weights,
    ratio_beats_mean,
    variance_mean_per_unit,
)
from .dataio import (
    bundled_summary_stats,
    load_population_csv,
    load_summary_stats,
    render_table,
    save_population_csv,
)
from .errors import DualRatioError
from .estimators import (
    dual_terms,
    estimate_arithmetic,
    estimate_classic_ratio,
    estimate_geometric,
    estimate_harmonic,
    estimate_mean_per_unit,
    estimate_product,
)
from .model import (
    MomentMode,
    Population,
    SampleDesign,
    Weights,
    gamma,
    validate_population,
)
from .moments import MomentSet, SummaryStats, compute_moments, moments_from_summary
from .simulation import (
    EstimatorStats,
    SamplingRow,
    SimResult,
    compare_analytic_empirical,
    enumerate_exact,
    run_monte_carlo,
)

__all__ = [
    "ComparisonRow",
    "ComparisonTable",
    "DualRatioError",
    "EstimatorStats",
    "MomentMode",
    "MomentSet",
    "Population",
    "SampleDesign",
    "SamplingRow",
    "SimResult",
    "SummaryStats",
    "Weights",
    "bias_arithmetic",
    "bias_classic_ratio",
    "bias_gap",
    "bias_geometric",
    "bias_harmonic",
    "bias_ordering_holds",
    "bundled_summary_stats",
    "compare_all",
    "compare_analytic_empirical",
    "compute_moments",
    "dual_beats_mean",
    "dual_terms",
    "enumerate_exact",
    "estimate_arithmetic",
    "estimate_classic_ratio",
    "estimate_geometric",
    "estimate_harmonic",
    "estimate_mean_per_unit",
    "estimate_product",
    "gamma",
    "load_population_csv",
    "load_summary_stats",
    "moments_from_summary",
    "mse_classic_ratio",
    "mse_dual_common",
    "optimal_weights",
    "ratio_beats_mean",
    "render_table",
    "run_monte_carlo",
    "save_population_csv",
    "validate_population",
    "variance_mean_per_unit",
]

"""Command-line interface.

Exit codes: 0 on success; 1 on input/configuration problems, the
``errors.InputError`` classes (the message names the offending flag or field);
2 on any other DualRatioError, a computation failure (singular moment matrix,
too many invalid replicates, enumeration above the cap, ...).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import __version__, analytics, dataio, simulation
from .errors import (
    DualRatioError,
    InputError,
    InvalidDesign,
    InvalidWeights,
    NegativeWeight,
    NonPositiveTerm,
    ZeroDenominator,
    ZeroSampleMean,
)
from .estimators import (
    dual_terms,
    estimate_arithmetic,
    estimate_classic_ratio,
    estimate_geometric,
    estimate_harmonic,
    estimate_mean_per_unit,
    estimate_product,
)
from .model import MomentMode, SampleDesign, Weights, gamma, validate_population
from .moments import MomentSet, compute_moments, moments_from_summary


class CliUsage(InputError):
    """Bad flags or unusable input files."""

# Published comparison-table values (|bias|, MSE per row), quoted verbatim for
# the reproduction report.
_PUBLISHED_TABLE42 = (
    ("mean", "none", "0", "5710952"),
    ("ratio(1)", "x1", "649.0", "4165443"),
    ("ratio(2)", "x2", "1190", "2802810"),
    ("ap", "x1,x2", "3389", "4239.70"),
    ("gp", "x1,x2", "3501", "4239.70"),
    ("hp", "x1,x2", "3690", "4239.70"),
)


_OUT_HELP = "output path (default stdout); an existing file is overwritten in place"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise CliUsage(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dualratio",
        description="Dual-to-ratio estimation toolkit: analytics, point estimation, "
        "and SRSWOR simulation for finite-population means.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p, *, stats=True):
        p.add_argument("--data", help="unit-level population CSV (header row)")
        p.add_argument("--y", help="study-variable column name")
        p.add_argument("--x", help="comma-separated auxiliary column names (order = index)")
        p.add_argument("--n", type=int, help="sample size of the design")
        if stats:
            p.add_argument("--stats", help="summary-statistics JSON document")

    def add_common(p, *, weights=True):
        p.add_argument("--mode", choices=["paper", "srswor"], default="srswor",
                       help="moment scaling: srswor (default) or paper-literal")
        if weights:
            p.add_argument("--weights", default="equal",
                           help="equal | optimal | list:<a1,...,ak>")
        p.add_argument("--format", choices=["text", "csv", "json"], default="text")
        p.add_argument("--out", default=None, help=_OUT_HELP)

    p = sub.add_parser("analyze", help="first-order bias/MSE comparison table")
    add_source(p)
    add_common(p)
    p.set_defaults(runner=_cmd_analyze)

    p = sub.add_parser("estimate", help="point estimates from a drawn sample CSV")
    p.add_argument("--data", required=True, help="sample CSV (one drawn unit per row)")
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--stats", required=True,
                   help="summary-statistics JSON supplying N and the population auxiliary means")
    add_common(p)
    p.set_defaults(runner=_cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo SRSWOR validation run")
    add_source(p, stats=False)
    p.add_argument("--reps", type=int, default=100_000, help="replicates (default 100000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="most worker processes to use; a run too small to gain from a "
                        "pool runs in one process (the output never depends on it)")
    add_common(p)
    p.set_defaults(runner=_cmd_simulate)

    p = sub.add_parser("enumerate", help="exact sampling distribution of a small population")
    add_source(p, stats=False)
    add_common(p)
    p.set_defaults(runner=_cmd_enumerate)

    p = sub.add_parser("weights", help="minimum-MSE weights for the dual combinations")
    add_source(p)
    add_common(p, weights=False)
    p.set_defaults(runner=_cmd_weights)

    p = sub.add_parser(
        "table42",
        help="reproduction report against the published comparison table "
        "(paper-literal moments, bundled fixture by default)",
    )
    p.add_argument("--stats", default=None,
                   help="summary-statistics JSON (default: bundled fixture)")
    p.add_argument("--out", default=None, help=_OUT_HELP)
    p.set_defaults(runner=_cmd_table42)

    return parser


def _mode(value: str) -> MomentMode:
    return MomentMode.PAPER_LITERAL if value == "paper" else MomentMode.SRSWOR_EXACT


def _x_columns(args) -> list[str]:
    if not args.x:
        raise CliUsage("--x: auxiliary column names are required with --data")
    cols = [c.strip() for c in args.x.split(",") if c.strip()]
    if not cols:
        raise CliUsage("--x: no auxiliary column names given")
    return cols


def _read_data(args):
    if not args.y:
        raise CliUsage("--y: study-variable column name is required with --data")
    try:
        return dataio.load_population_csv(args.data, args.y, _x_columns(args))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliUsage(f"--data: {exc}") from exc


def _load_population(args):
    pop = _read_data(args)
    issues = validate_population(pop)
    if issues:
        raise CliUsage(f"--data: population invalid: {', '.join(issues)}")
    return pop


def _load_stats(path):
    try:
        return dataio.load_summary_stats(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliUsage(f"--stats: {exc}") from exc


def _moments_from_args(args, mode: MomentMode) -> tuple[MomentSet, str]:
    has_data = bool(args.data)
    has_stats = bool(args.stats)
    if has_data == has_stats:
        raise CliUsage("exactly one of --data and --stats must be given")
    if has_stats:
        for flag in ("n", "y", "x"):
            if getattr(args, flag) is not None:
                raise CliUsage(f"--{flag}: the design comes from --stats")
        return moments_from_summary(_load_stats(args.stats), mode), "summary"
    pop = _load_population(args)
    if args.n is None:
        raise CliUsage("--n: sample size is required with --data")
    design = _design(pop.N, args.n, mode)
    return compute_moments(pop, design), "population"


def _resolve_weights(spec: str, m: MomentSet) -> tuple[Weights, str]:
    if spec == "equal":
        return Weights.equal(m.k), "equal"
    if spec == "optimal":
        return analytics.optimal_weights(m), "optimal"
    if spec.startswith("list:"):
        try:
            alpha = [float(v) for v in spec[len("list:"):].split(",")]
        except ValueError as exc:
            raise CliUsage(f"--weights: cannot parse {spec!r}: {exc}") from exc
        if len(alpha) != m.k:
            raise CliUsage(f"--weights: expected {m.k} values, got {len(alpha)}")
        try:
            return Weights(np.asarray(alpha)), "explicit"
        except InvalidWeights as exc:
            raise CliUsage(f"--weights: {exc}") from exc
    raise CliUsage(f"--weights: unknown spec {spec!r} (equal | optimal | list:<a1,...>)")


def _design(N: int, n: int, mode: MomentMode) -> SampleDesign:
    try:
        return SampleDesign(N=N, n=n, mode=mode)
    except InvalidDesign as exc:
        raise CliUsage(f"--n: {exc}") from exc


def _cmd_analyze(args) -> str:
    mode = _mode(args.mode)
    m, source = _moments_from_args(args, mode)
    w, scheme = _resolve_weights(args.weights, m)
    table = analytics.compare_all(m, w, weight_scheme=scheme, source=source)
    return dataio.render_table(table, args.format)


def _cmd_weights(args) -> str:
    mode = _mode(args.mode)
    m, source = _moments_from_args(args, mode)
    w = analytics.optimal_weights(m)
    rows = [[f"x{i + 1}", float(a)] for i, a in enumerate(w.alpha)]
    footnotes = [
        f"shared dual MSE at these weights: {analytics.mse_dual_common(m, w)!r}",
        f"nonnegative: {w.nonneg}",
        f"provenance: mode={mode.value} source={source}",
    ]
    return dataio.render_rows(["aux", "weight"], rows, args.format, footnotes=footnotes)


def _cmd_estimate(args) -> str:
    stats = _load_stats(args.stats)
    sample = _read_data(args)  # container reuse: rows are the drawn sample
    # Only finiteness: a sample's means may be zero, which the ratio rows report.
    if not (np.isfinite(sample.y).all() and np.isfinite(sample.x).all()):
        raise CliUsage("--data: the sample holds a non-finite value")
    if sample.k != stats.k:
        raise CliUsage(f"--x: {sample.k} auxiliary columns but --stats has k={stats.k}")
    try:
        design = SampleDesign(N=stats.N, n=sample.N, mode=_mode(args.mode))
    except InvalidDesign as exc:
        raise CliUsage(f"--data: sample size vs --stats N: {exc}") from exc
    m = moments_from_summary(stats, _mode(args.mode))
    w, scheme = _resolve_weights(args.weights, m)
    terms = dual_terms(sample, stats.xbar, design.g)

    rows: list[list] = [["mean", estimate_mean_per_unit(sample), ""]]
    for i in range(stats.k):
        try:
            value, note = estimate_classic_ratio(sample, float(stats.xbar[i]), i), ""
        except ZeroSampleMean as exc:
            value, note = None, str(exc)
        rows.append([f"ratio({i + 1})", value, note])
    rows.append(["ap", estimate_arithmetic(terms, w), ""])
    for name, fn in (("gp", estimate_geometric), ("hp", estimate_harmonic)):
        try:
            value, note = fn(terms, w), ""
        except (NonPositiveTerm, NegativeWeight, ZeroDenominator) as exc:
            value, note = None, str(exc)
        rows.append([name, value, note])
    note = "dimensionally non-comparable for k>1" if stats.k > 1 else ""
    rows.append(["product", estimate_product(terms), note])
    footnotes = [f"n={sample.N} N={stats.N} g={design.g!r} weights={scheme}"]
    return dataio.render_rows(["estimator", "estimate", "notes"], rows, args.format,
                              footnotes=footnotes)


def _sampling_population(args):
    """The population of a simulate/enumerate run, checked before any sampling."""
    if args.mode == "paper":
        raise CliUsage(f"--mode: {args.command} compares against exact-srswor analytics; "
                       "paper-literal moments would be off by the factor theta")
    pop = _load_population(args)
    if args.n is None:
        raise CliUsage("--n: sample size is required")
    return pop


def _sampling_report(args, pop, run, footnote: str) -> str:
    """Run ``run(pop, design, w)`` and render its bias/MSE next to the analytic
    values. ``footnote`` is formatted with N, n, R, seed, ybar, scheme, weights."""
    design = _design(pop.N, args.n, MomentMode.SRSWOR_EXACT)
    m = compute_moments(pop, design)
    w, scheme = _resolve_weights(args.weights, m)
    sim = run(pop, design, w)
    rows = simulation.compare_analytic_empirical(m, sim)
    note = footnote.format(N=pop.N, n=design.n, R=sim.requested, seed=sim.seed,
                           ybar=sim.ybar_true, scheme=scheme,
                           weights=",".join(repr(a) for a in sim.weights))
    return dataio.render_rows(simulation.SamplingRow._fields, rows, args.format,
                              footnotes=[note])


def _cmd_simulate(args) -> str:
    # the flags first: loading a census-sized --data takes tens of milliseconds
    if args.reps < 1:
        raise CliUsage("--reps: must be >= 1")
    if args.workers < 1:
        raise CliUsage("--workers: must be >= 1")
    if args.seed < 0:
        raise CliUsage("--seed: must be >= 0")
    pop = _sampling_population(args)

    def run(pop, design, w):
        return simulation.run_monte_carlo(pop, design, w, args.reps, args.seed,
                                          workers=args.workers)

    return _sampling_report(args, pop, run,
                            "R={R} seed={seed} ybar_true={ybar!r} weights={scheme}({weights})")


def _cmd_enumerate(args) -> str:
    return _sampling_report(
        args, _sampling_population(args), simulation.enumerate_exact,
        "exact enumeration of C({N},{n})={R} subsets ybar_true={ybar!r} weights={scheme}")


def _published_vs_computed(table: analytics.ComparisonTable) -> str:
    computed = {r.estimator: r for r in table.rows}
    rows = []
    for est, aux, pub_bias, pub_mse in _PUBLISHED_TABLE42:
        row = computed.get(est)
        rows.append([
            est, aux, pub_bias, pub_mse,
            None if row is None else row.abs_bias,
            None if row is None else row.mse,
        ])
    return dataio.render_rows(
        ["estimator", "aux", "published_abs_bias", "published_mse",
         "computed_abs_bias", "computed_mse"],
        rows,
        "text",
    )


def _cmd_table42(args) -> str:
    if args.stats:
        stats = _load_stats(args.stats)
        source_name = args.stats
        if stats.k != 2:
            raise CliUsage(f"--stats: the report reproduces the paper's two-auxiliary table, "
                           f"but the summary has {stats.k} auxiliaries")
    else:
        stats = dataio.bundled_summary_stats()
        source_name = "bundled fixture (data/table41.json)"
    m = moments_from_summary(stats, MomentMode.PAPER_LITERAL)
    w_eq = Weights.equal(m.k)
    table_eq = analytics.compare_all(m, w_eq, weight_scheme="equal", source="summary")
    try:
        w_opt = analytics.optimal_weights(m)
        table_opt = analytics.compare_all(m, w_opt, weight_scheme="optimal", source="summary")
    except DualRatioError as exc:
        w_opt, table_opt, opt_error = None, None, str(exc)

    g = gamma(stats.N, stats.n)
    lines = [
        "dual-to-ratio reproduction report (paper-literal moments)",
        "=========================================================",
        f"source: {source_name}",
        f"design: N={stats.N} n={stats.n} g={g!r}",
        "moment mode: paper-literal (theta=1), forced for this report; published",
        "MSEs are S_y^2-sized, i.e. unscaled by the finite-population factor.",
        "",
        f"computed table, equal weights (alpha = {', '.join(repr(float(a)) for a in w_eq.alpha)}):",
        dataio.render_table(table_eq, "text"),
    ]
    if table_opt is not None:
        lines += [
            f"computed table, optimal weights (alpha = "
            f"{', '.join(repr(float(a)) for a in w_opt.alpha)}):",
            dataio.render_table(table_opt, "text"),
        ]
    else:
        lines += [f"optimal-weight table unavailable: {opt_error}", ""]
    lines += [
        "published values vs computed (equal weights):",
        _published_vs_computed(table_eq),
        "discrepancies",
        "-------------",
    ]
    notes = [
        "ratio rows: the computed classical-ratio MSE for x1 "
        f"({analytics.mse_classic_ratio(m, 0):.6g}) matches the value the published "
        "table prints on its x2-labeled row (2802810) within 0.5%; the published "
        "x1-row value 4165443 matches neither computed ratio MSE, and the published "
        "ratio biases (649.0, 1190) are likewise not reproducible from the summary "
        "statistics (computed: "
        f"{abs(analytics.bias_classic_ratio(m, 0)):.6g}, "
        f"{abs(analytics.bias_classic_ratio(m, 1)):.6g}).",
        "dual rows (ap/gp/hp): the published absolute biases 3389, 3501, 3690 and the "
        "shared MSE 4239.70 are NOT reproducible from the published summary "
        "statistics: the weights behind them are not stated, and no affine weights "
        "can reach an MSE of 4239.70 from these inputs; the shared first-order MSE "
        f"is minimized at the optimal weights "
        f"({'unavailable' if w_opt is None else format(analytics.mse_dual_common(m, w_opt), '.6g')}) "
        f"against a no-auxiliary variance ybar^2*C0^2 = "
        f"{analytics.variance_mean_per_unit(m):.6g}. The closest-effort values under "
        "equal and optimal weights are the tables above.",
        f"g: recomputed n/(N-n) = {g!r}; the published table prints "
        "g=0.3246, a truncated rendering of the same quantity.",
    ]
    if w_opt is not None and not w_opt.nonneg:
        notes.append(
            "optimal weights contain negative components; the geometric/harmonic "
            "point estimators refuse such weights at estimation time (their "
            "first-order analytics above remain defined)."
        )
    for note in notes:
        lines.append(f"- {note}")
    return "\n".join(lines) + "\n"


_STDOUT = (None, "-", "stdout")


def _check_out(out) -> None:
    """Fail before the command runs when ``out`` cannot be created: it is
    empty, its directory is missing, or it is a directory. The file itself is
    opened only once the command has produced its output, so that a failed
    run leaves an existing file as it was; any other failure to open it is
    reported then, by _write."""
    if out in _STDOUT:
        return
    if not out or not os.path.isdir(os.path.dirname(out) or "."):
        code = errno.ENOENT
    elif os.path.isdir(out):
        code = errno.EISDIR
    else:
        return
    raise CliUsage(f"--out: {OSError(code, os.strerror(code), out)}")


def _write(out, text: str) -> None:
    if out in _STDOUT:
        sys.stdout.write(text)
        return
    try:
        with dataio.rewrite_in_place(out) as handle:
            handle.write(text)
    except OSError as exc:
        raise CliUsage(f"--out: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out)
        _write(args.out, args.runner(args))
    except DualRatioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()

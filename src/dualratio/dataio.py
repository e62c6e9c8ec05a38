"""Data ingestion (unit-level CSV, summary-statistics JSON) and table rendering."""

from __future__ import annotations

import csv
import io
import json
import math
from importlib import resources

import numpy as np

from .analytics import ComparisonTable
from .errors import (
    EmptyFile,
    InconsistentDimensions,
    MissingColumn,
    MissingField,
    UnparseableValue,
)
from .model import MomentMode, Population
from .moments import SummaryStats
from .simulation import GapRow, SimResult


def load_population_csv(path, y_column: str, x_columns) -> Population:
    """Read a unit-level population: UTF-8, header row, one unit per row.

    ``x_columns`` order defines the auxiliary index. Values must be plain
    decimal numbers (no locale separators).
    """
    x_columns = list(x_columns)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path}: no header row")
        for col in [y_column, *x_columns]:
            if col not in reader.fieldnames:
                raise MissingColumn(f"{path}: column {col!r} not in header {reader.fieldnames}")
        ys: list[float] = []
        xs: list[list[float]] = []
        for row_number, row in enumerate(reader, start=2):  # header is line 1
            parsed = []
            for col in [y_column, *x_columns]:
                raw = (row.get(col) or "").strip()
                try:
                    parsed.append(float(raw))
                except ValueError:
                    raise UnparseableValue(row_number, col, raw) from None
            ys.append(parsed[0])
            xs.append(parsed[1:])
    if not ys:
        raise EmptyFile(f"{path}: no data rows")
    return Population(y=np.array(ys), x=np.array(xs))


def save_population_csv(pop: Population, path, y_column: str = "y", x_columns=None) -> None:
    """Write a population back to CSV (full float precision, round-trips bitwise)."""
    if x_columns is None:
        x_columns = [f"x{i + 1}" for i in range(pop.k)]
    x_columns = list(x_columns)
    if len(x_columns) != pop.k:
        raise ValueError(f"need {pop.k} auxiliary column names, got {len(x_columns)}")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([y_column, *x_columns])
        for i in range(pop.N):
            writer.writerow([repr(float(pop.y[i])), *(repr(float(v)) for v in pop.x[i])])


_SUMMARY_FIELDS = ("N", "n", "ybar", "xbar", "sy", "sx", "syx", "rho_x")


def summary_from_dict(doc: dict) -> SummaryStats:
    """Validate and build SummaryStats from a parsed JSON document."""
    for name in _SUMMARY_FIELDS:
        if name not in doc:
            raise MissingField(f"summary statistics document lacks {name!r}")
    return SummaryStats(
        N=int(doc["N"]),
        n=int(doc["n"]),
        ybar=float(doc["ybar"]),
        xbar=np.asarray(doc["xbar"], dtype=float),
        sy=float(doc["sy"]),
        sx=np.asarray(doc["sx"], dtype=float),
        syx=np.asarray(doc["syx"], dtype=float),
        rho_x=np.asarray(doc["rho_x"], dtype=float),
        metadata=dict(doc.get("metadata", {})),
    )


def load_summary_stats(path) -> SummaryStats:
    """Read a summary-statistics JSON document."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MissingField(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(doc, dict):
        raise MissingField(f"{path}: top-level JSON value must be an object")
    try:
        return summary_from_dict(doc)
    except InconsistentDimensions as exc:
        raise InconsistentDimensions(f"{path}: {exc}") from exc


def bundled_summary_stats() -> SummaryStats:
    """The summary-statistics fixture that ships with the package."""
    text = resources.files("dualratio").joinpath("data/table41.json").read_text("utf-8")
    return summary_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_SUMMARY_RECONSTRUCTION_NOTE = (
    "auxiliary cross-covariances reconstructed from rho_x[i][j]*sx[i]*sx[j] "
    "(not part of the summary input)"
)
_LABEL_SWAP_NOTE = (
    "published comparison tables of this form print the x1-computed ratio MSE "
    "on the x2-labeled row; computed ratio rows here use their own statistics"
)


def table_footnotes(table: ComparisonTable) -> tuple[str, ...]:
    """Discrepancy footnotes implied by the table's provenance."""
    notes = []
    if table.source == "summary":
        notes.append(_SUMMARY_RECONSTRUCTION_NOTE)
        if table.mode is MomentMode.PAPER_LITERAL:
            notes.append(_LABEL_SWAP_NOTE)
    return tuple(notes)


def _tabular(obj):
    """(headers, rows, footnotes) for any renderable object."""
    if isinstance(obj, ComparisonTable):
        headers = ["estimator", "aux", "abs_bias", "mse", "notes"]
        rows = [[r.estimator, r.aux_used, r.abs_bias, r.mse, r.notes] for r in obj.rows]
        weights = ",".join(repr(a) for a in obj.weights)
        provenance = (
            f"provenance: mode={obj.mode.value} weights={obj.weight_scheme}({weights}) "
            f"source={obj.source}"
        )
        return headers, rows, list(table_footnotes(obj)) + [provenance]
    if isinstance(obj, SimResult):
        headers = [
            "estimator",
            "used",
            "invalid",
            "mean_estimate",
            "bias",
            "se_bias",
            "mse",
            "se_mse",
        ]
        rows = [
            [e.name, e.used, e.invalid, e.mean_estimate, e.bias, e.se_bias, e.mse, e.se_mse]
            for e in obj.estimators
        ]
        return headers, rows, []
    if isinstance(obj, (list, tuple)) and all(isinstance(r, GapRow) for r in obj):
        headers = ["estimator", "quantity", "analytic", "empirical", "abs_gap", "rel_gap", "gap_se"]
        rows = [
            [r.estimator, r.quantity, r.analytic, r.empirical, r.abs_gap, r.rel_gap, r.gap_se]
            for r in obj
        ]
        return headers, rows, []
    raise TypeError(f"cannot render {type(obj).__name__}")


def _is_na(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _text_cell(value) -> str:
    if _is_na(value):
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _raw_cell(value):
    return None if _is_na(value) else value


def render_table(obj, fmt: str = "text") -> str:
    """Render a ComparisonTable, SimResult, or gap-row sequence.

    text: aligned columns, 6 significant digits, footnotes appended.
    csv/json: full float precision, undefined entries empty/null (footnotes
    are a text-format feature).
    """
    headers, rows, footnotes = _tabular(obj)
    return render_rows(headers, rows, fmt, footnotes=footnotes)


def render_rows(headers, rows, fmt: str = "text", footnotes=()) -> str:
    """Render plain (headers, rows) in the same three formats as render_table."""
    if fmt == "text":
        cells = [headers] + [[_text_cell(v) for v in row] for row in rows]
        widths = [max(len(line[c]) for line in cells) for c in range(len(headers))]
        lines = ["  ".join(line[c].ljust(widths[c]) for c in range(len(headers))).rstrip()
                 for line in cells]
        for note in footnotes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow(["" if _is_na(v) else v for v in row])
        return buf.getvalue()
    if fmt == "json":
        payload = [dict(zip(headers, (_raw_cell(v) for v in row))) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r} (expected text, csv, or json)")

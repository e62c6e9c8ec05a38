"""Data ingestion (unit-level CSV, summary-statistics JSON) and table rendering."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
import stat
import warnings
from importlib import resources

import numpy as np

from .analytics import ComparisonTable
from .errors import (
    EmptyFile,
    InconsistentDimensions,
    InconsistentStats,
    InputError,
    MissingColumn,
    MissingField,
    UnparseableValue,
)
from .model import MomentMode, Population
from .moments import SummaryStats
from .simulation import SamplingRow, SimResult


def load_population_csv(path, y_column: str, x_columns) -> Population:
    """Read a unit-level population: UTF-8 (a leading byte-order mark is
    skipped), header row, one unit per row.

    ``x_columns`` order defines the auxiliary index. Values must be plain
    decimal numbers in ASCII digits: locale separators, digit underscores
    and non-ASCII digits are refused by name. Blank lines are skipped; a name
    that repeats in the header refers to its last occurrence, and a row too
    short to hold a named column reads that cell as empty.

    ``csv.reader`` reads the header and numpy's C ``loadtxt`` the rows; only
    after a failed load is the file read again, to name the first bad cell.
    """
    columns = [y_column, *x_columns]
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise EmptyFile(f"{path}: no header row")
        for col in columns:
            if col not in header:
                raise MissingColumn(f"{path}: column {col!r} not in header {header}")
        position = {name: i for i, name in enumerate(header)}  # last occurrence wins
        index = [position[col] for col in columns]
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"',
                                   usecols=index, dtype=float, ndmin=2)
        except ValueError as exc:
            if not handle.seekable():  # a pipe cannot be read again to name the cell
                raise InputError(f"{path}: {exc}") from None
            handle.seek(0)
            raise _first_bad_cell(handle, columns, index) or exc from None
    if not len(table):
        raise EmptyFile(f"{path}: no data rows")
    return Population(y=table[:, 0], x=table[:, 1:])


def _first_bad_cell(handle, columns, index) -> UnparseableValue | None:
    """The error for the first named cell that is missing or not a number,
    rows first, then in request order; called only after loadtxt failed."""
    reader = csv.reader(handle)
    next(reader, None)
    # row_number counts the header as 1 and skips blank lines
    for row_number, row in enumerate(filter(None, reader), start=2):
        for col, i in zip(columns, index):
            raw = row[i].strip() if i < len(row) else ""
            try:
                float(raw)
            except ValueError:
                return UnparseableValue(row_number, col, raw)
            if not raw.isascii() or "_" in raw:  # float() alone reads "2_000" and "١٢"
                return UnparseableValue(row_number, col, raw)
    return None


@contextlib.contextmanager
def rewrite_in_place(path):
    """Open ``path`` for writing UTF-8 text (``newline=""``) without truncating it.

    An existing file is overwritten from its start and cut at the end of what
    reached it, so it keeps its inode, mode and links. The cut is made also
    when the body or the flush raises, so a failed write leaves a prefix of
    the new contents and none of the old; a process killed before the cut
    leaves the old tail after the new bytes. A path opened in mode ``"w"`` is
    truncated to zero first, and ext4 (``auto_da_alloc``) then flushes the
    file's data on close: tens of milliseconds whenever the old contents had
    already reached the disk. FIFOs and devices are not truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
        try:
            yield handle
            handle.flush()  # so that a clean, non-empty rewrite is never cut to zero
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def save_population_csv(pop: Population, path, y_column: str = "y", x_columns=None) -> None:
    """Write a population back to CSV (full float precision, round-trips bitwise)."""
    if x_columns is None:
        x_columns = [f"x{i + 1}" for i in range(pop.k)]
    x_columns = list(x_columns)
    if len(x_columns) != pop.k:
        raise ValueError(f"need {pop.k} auxiliary column names, got {len(x_columns)}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([y_column, *x_columns])
    for i in range(pop.N):
        writer.writerow([repr(float(pop.y[i])), *(repr(float(v)) for v in pop.x[i])])
    # One write: an interrupted render leaves the old file as it was.
    with rewrite_in_place(path) as handle:
        handle.write(buf.getvalue())


_SUMMARY_FIELDS = ("N", "n", "ybar", "xbar", "sy", "sx", "syx", "rho_x")


def _integral(value):
    """An integral float (204.0) as an int; any other value goes on unchanged,
    for SummaryStats to accept or refuse (204.7, "204", true)."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _numbers(doc: dict, name: str) -> np.ndarray:
    """Field ``name`` as a float array. A string, boolean or null anywhere in
    it is refused by name, where float() would read "966" and true."""
    values = np.asarray(doc[name], dtype=object)
    for value in values.flat:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InconsistentStats(f"{name}: {value!r} is not a number")
    return values.astype(float)


def _number(doc: dict, name: str) -> float:
    value = _numbers(doc, name)
    if value.ndim:
        raise InconsistentDimensions(f"{name} must be a single number, got shape {value.shape}")
    return float(value)


def summary_from_dict(doc: dict) -> SummaryStats:
    """Validate and build SummaryStats from a parsed JSON document."""
    for name in _SUMMARY_FIELDS:
        if name not in doc:
            raise MissingField(f"summary statistics document lacks {name!r}")
    return SummaryStats(
        N=_integral(doc["N"]),
        n=_integral(doc["n"]),
        ybar=_number(doc, "ybar"),
        xbar=_numbers(doc, "xbar"),
        sy=_number(doc, "sy"),
        sx=_numbers(doc, "sx"),
        syx=_numbers(doc, "syx"),
        rho_x=_numbers(doc, "rho_x"),
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
        obj = tuple(SamplingRow.of(e) for e in obj.estimators)
    if isinstance(obj, (list, tuple)) and all(isinstance(r, SamplingRow) for r in obj):
        return SamplingRow._fields, obj, []
    raise TypeError(f"cannot render {type(obj).__name__}")


def _is_na(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _text_cell(value) -> str:
    if _is_na(value):
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_cell(value):
    # JSON has no NaN or infinity: an undefined or overflowed float is null.
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return None
    return value


def render_table(obj, fmt: str = "text") -> str:
    """Render a ComparisonTable, a SimResult, or a sequence of SamplingRow
    (a SimResult renders as its rows with the analytic fields empty).

    text: aligned columns, 6 significant digits, footnotes appended.
    csv/json: full float precision, undefined entries empty/null (footnotes
    are a text-format feature). JSON has no infinity, so an infinite entry
    is null there too; text and csv print it as inf.
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
        payload = [dict(zip(headers, (_json_cell(v) for v in row))) for row in rows]
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    raise ValueError(f"unknown format {fmt!r} (expected text, csv, or json)")

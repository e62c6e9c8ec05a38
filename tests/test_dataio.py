import csv
import hashlib
import io
import json
import math
import os
import re
import stat
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dualratio import (
    MomentMode,
    Population,
    SampleDesign,
    SamplingRow,
    Weights,
    bundled_summary_stats,
    compare_all,
    compute_moments,
    enumerate_exact,
    compare_analytic_empirical,
    load_population_csv,
    load_summary_stats,
    moments_from_summary,
    render_table,
    save_population_csv,
)
from dualratio.analytics import ComparisonTable
from dualratio.dataio import render_rows, rewrite_in_place, summary_from_dict
from dualratio.synth import correlated_population
from dualratio.errors import (
    EmptyFile,
    InconsistentDimensions,
    InconsistentStats,
    InputError,
    InvalidDesign,
    MissingColumn,
    MissingField,
    UnparseableValue,
)
from conftest import random_population


class TestPopulationCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x1\n1,4\n2,5\n3,6\n", encoding="utf-8")
        pop = load_population_csv(path, "y", ["x1"])
        assert pop.N == 3 and pop.k == 1
        assert pop.ybar == pytest.approx(2.0)

    def test_column_order_defines_index(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("a,b,y\n1,10,5\n2,20,6\n", encoding="utf-8")
        pop = load_population_csv(path, "y", ["b", "a"])
        assert pop.xbar == pytest.approx([15.0, 1.5])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x1\n1,4\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_population_csv(path, "y", ["x2"])

    def test_blank_cell_identified(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x1\n1,4\n2,\n", encoding="utf-8")
        with pytest.raises(UnparseableValue) as err:
            load_population_csv(path, "y", ["x1"])
        assert err.value.row == 3
        assert err.value.column == "x1"

    def test_thousands_separators_rejected(self, tmp_path):
        # decimal point only: locale-style grouping is not a number
        path = tmp_path / "pop.csv"
        path.write_text("y,x1\n1,\"2,345\"\n", encoding="utf-8")
        with pytest.raises(UnparseableValue):
            load_population_csv(path, "y", ["x1"])

    @pytest.mark.parametrize("cell", ["2_000", "1e5_0", "\u0661\u0662", "\uff11\uff12"])
    def test_underscores_and_non_ascii_digits_rejected(self, tmp_path, cell):
        # float() reads each of these; the loader takes ASCII digits only
        path = tmp_path / "pop.csv"
        path.write_text(f"y,x1\n1,4\n2,{cell}\n", encoding="utf-8")
        with pytest.raises(UnparseableValue) as err:
            load_population_csv(path, "y", ["x1"])
        assert (err.value.row, err.value.column, err.value.raw) == (3, "x1", cell)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_pipe(self, tmp_path):
        # a pipe is read once: it loads, but a bad cell is reported in loadtxt's words
        def load_through_pipe(name, text):
            fifo = tmp_path / name
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_text, args=(text, "utf-8"), daemon=True)
            writer.start()
            try:
                return load_population_csv(fifo, "y", ["x1"])
            finally:
                writer.join(timeout=10)
                assert not writer.is_alive()

        assert load_through_pipe("good", "y,x1\n1,4\n2,5\n").x.tolist() == [[4.0], [5.0]]
        with pytest.raises(InputError, match="oops") as err:
            load_through_pipe("bad", "y,x1\n1,4\n2,oops\n")
        assert type(err.value) is InputError

    def test_empty_variants(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_population_csv(path, "y", ["x1"])
        path.write_text("y,x1\n", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_population_csv(path, "y", ["x1"])

    def test_round_trip_bitwise(self, tmp_path, rng):
        pop = random_population(rng, N=40, k=2)
        path = tmp_path / "roundtrip.csv"
        save_population_csv(pop, path)
        back = load_population_csv(path, "y", ["x1", "x2"])
        assert np.array_equal(back.y, pop.y)
        assert np.array_equal(back.x, pop.x)


def reference_load_population_csv(path, y_column: str, x_columns) -> Population:
    """The csv.DictReader loader that load_population_csv replaced, kept as
    the reference its results and errors are compared against. A cell is a
    number when float() reads it, in ASCII digits without underscores (float()
    alone also reads "2_000" and "١٢")."""
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
                if not raw.isascii() or "_" in raw:
                    raise UnparseableValue(row_number, col, raw)
            ys.append(parsed[0])
            xs.append(parsed[1:])
    if not ys:
        raise EmptyFile(f"{path}: no data rows")
    return Population(y=np.array(ys), x=np.array(xs))


# (file text, y column, x columns); newline="" on write keeps each line end as given
_LOADER_CASES = {
    "plain": ("y,x1,x2\n1,2,3\n4,5,6\n", "y", ["x1", "x2"]),
    "column_order": ("a,b,y\n1,10,5\n2,20,6\n", "y", ["b", "a"]),
    "no_final_newline": ("y,x1\n1,2\n3,4", "y", ["x1"]),
    "blank_rows": ("y,x1\n\n1,2\n\n\n3,4\n\n", "y", ["x1"]),
    "blank_rows_before_bad_cell": ("y,x1\n\n1,2\n\n\n3,oops\n", "y", ["x1"]),
    "blank_first_line": ("\ny,x1\n1,2\n", "y", ["x1"]),
    "blank_lines_only": ("\n\n\n", "y", ["x1"]),
    "duplicate_header": ("y,x1,y\n1,2,3\n4,5,6\n", "y", ["x1"]),
    "duplicate_header_short_row": ("y,x1,y\n1,2\n", "y", ["x1"]),
    "duplicate_header_bad_first": ("y,x1,y\nbad,2,3\n", "y", ["x1"]),
    "column_requested_twice": ("y,x1\n1,2\n3,4\n", "y", ["x1", "x1"]),
    "short_row": ("y,x1,x2\n1,2,3\n4,5\n", "y", ["x1", "x2"]),
    "short_row_unrequested_tail": ("y,x1,z\n1,2\n3,4,5\n", "y", ["x1"]),
    "one_cell_row": ("y,x1\n7\n", "y", ["x1"]),
    "long_row": ("y,x1\n1,2,3,4\n5,6\n", "y", ["x1"]),
    "quoted_and_padded": ('y,x1\n"1.5", 2 \n  3e2 ,"-4"\n" 7 ",8\n', "y", ["x1"]),
    "unicode_space_padding": ("y,x1\n1,\u20032\u00a0\n", "y", ["x1"]),
    "signed_zero_and_extremes": ("y,x1\n-0.0,1e308\n5e-324,-1.5E+3\n", "y", ["x1"]),
    "nan_and_inf": ("y,x1\nnan,inf\n-Infinity,2\n", "y", ["x1"]),
    "crlf": ("y,x1,x2\r\n1,2,3\r\n\r\n4,5,6\r\n", "y", ["x1", "x2"]),
    "crlf_bad_cell": ("y,x1\r\n1,2\r\n3,x\r\n", "y", ["x1"]),
    "header_only": ("y,x1\n", "y", ["x1"]),
    "header_only_crlf": ("y,x1\r\n", "y", ["x1"]),
    "header_and_blank_lines": ("y,x1\n\n\n", "y", ["x1"]),
    "empty": ("", "y", ["x1"]),
    "missing_column": ("y,x1\n1,2\n", "y", ["x9"]),
    "missing_y": ("y,x1\n1,2\n", "z", ["x1"]),
    "no_auxiliaries": ("y,x1\n1,2\n3,4\n", "y", []),
    "bad_y": ("y,x1\n1,2\nabc,xyz\n", "y", ["x1"]),
    "bad_last_column": ("y,x1,x2\n1,2,3\n4,5,zz\n", "y", ["x1", "x2"]),
    "first_bad_in_request_order": ("x2,y,x1\nbad,worse,1\n", "y", ["x1", "x2"]),
    "bad_padded_cell": ("y,x1\n1, 2 3 \n", "y", ["x1"]),
    "whitespace_cell": ("y,x1\n1,   \n", "y", ["x1"]),
    "empty_cell": ("y,x1\n1,4\n2,\n", "y", ["x1"]),
    "thousands_separator": ('y,x1\n1,"2,345"\n', "y", ["x1"]),
    "underscore_digits": ("y,x1\n1,2_000\n", "y", ["x1"]),
    "underscore_in_exponent": ("y,x1\n1e5_0,2\n", "y", ["x1"]),
    "arabic_indic_digits": ("y,x1\n1,\u0661\u0662\n", "y", ["x1"]),
    "fullwidth_digits": ("y,x1\n1,\uff11\uff12\n", "y", ["x1"]),
    # quoting and line ends: the header and the rows must split alike
    "mid_field_quote": ('y,z,w,x1\n1,a"b,c",2\n', "y", ["x1"]),
    "quoted_name_with_comma": ('"a,b",y,x1\n"5,6",1,2\n', "y", ["x1"]),
    "quoted_name_with_crlf": ('y,"x\r\n1",x2\r\n1,2,3\r\n4,5,6\r\n', "y", ["x\r\n1", "x2"]),
    "quoted_newline_in_row": ('y,x1,z\n1,2,"a\nb"\n"3\n",4,5\n', "y", ["x1"]),
    "nul_in_unselected_column": ("y,x1,z\n1,2,a\x00b\n3,4,5\n", "y", ["x1"]),
    "unterminated_quote": ('y,x1\n1,"2\n3,4\n', "y", ["x1"]),
    "whitespace_only_line": ("y,x1\n1,2\n   \n3,4\n", "y", ["x1"]),
    "space_after_closing_quote": ('y,x1\n"1.5" ,2\n', "y", ["x1"]),
    "negative_nan_sign_bit": ("y,x1\n-nan,1\nnan,-NaN\n", "y", ["x1"]),
}


def _load_outcome(loader, path, y_column, x_columns):
    """Everything a caller can observe of one load: the arrays (bytes, dtype,
    shape, contiguity) or the exception (type, message and fields)."""
    try:
        pop = loader(path, y_column, x_columns)
    except Exception as exc:
        return ("raised", type(exc), str(exc),
                getattr(exc, "row", None), getattr(exc, "column", None), getattr(exc, "raw", None))
    return ("loaded",) + tuple(
        (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (pop.y, pop.x))


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("case", sorted(_LOADER_CASES))
    def test_same_outcome(self, case, tmp_path):
        text, y_column, x_columns = _LOADER_CASES[case]
        path = tmp_path / "pop.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # header_only: loadtxt's no-data warning stays inside
            got = _load_outcome(load_population_csv, path, y_column, x_columns)
        want = _load_outcome(reference_load_population_csv, path, y_column, x_columns)
        assert got == want
        if got[0] == "loaded":
            pop = load_population_csv(path, y_column, x_columns)
            ref = reference_load_population_csv(path, y_column, x_columns)
            for a, b in ((pop.y, ref.y), (pop.x, ref.x)):
                assert np.array_equal(a, b, equal_nan=True)
                assert a.dtype == b.dtype == np.float64
                assert a.flags.c_contiguous and b.flags.c_contiguous

    def test_row_numbers_skip_blank_lines(self, tmp_path):
        # rows are numbered as the reference numbers them: header 1, blank lines not counted
        path = tmp_path / "pop.csv"
        path.write_text("y,x1\n\n1,2\n\n\n3,oops\n", encoding="utf-8")
        with pytest.raises(UnparseableValue) as err:
            load_population_csv(path, "y", ["x1"])
        assert (err.value.row, err.value.column, err.value.raw) == (3, "x1", "oops")

    def test_across_loadtxt_chunks(self, tmp_path, rng):
        # 60,000 rows span two of loadtxt's 50,000-line chunks
        # (numpy.lib._npyio_impl._loadtxt_chunksize)
        pop = random_population(rng, N=60_000, k=2)
        path = tmp_path / "pop.csv"
        save_population_csv(pop, path)
        got = _load_outcome(load_population_csv, path, "y", ["x1", "x2"])
        assert got == _load_outcome(reference_load_population_csv, path, "y", ["x1", "x2"])
        assert got[1][3] == pop.y.tobytes() and got[2][3] == pop.x.tobytes()
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[55_000].split(",")  # data row 55,000, file row 55,001
        lines[55_000] = ",".join([cells[0], "1.5.2", cells[2]])
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(UnparseableValue) as err:
            load_population_csv(path, "y", ["x1", "x2"])
        with pytest.raises(UnparseableValue) as ref:
            reference_load_population_csv(path, "y", ["x1", "x2"])
        where = (err.value.row, err.value.column, err.value.raw)
        assert where == (ref.value.row, ref.value.column, ref.value.raw) == (55_001, "x1", "1.5.2")

    def test_saved_population_round_trips_like_reference(self, tmp_path, rng):
        pop = random_population(rng, N=300, k=4)
        path = tmp_path / "pop.csv"
        save_population_csv(pop, path, y_column="y", x_columns=["d", "c", "b", "a"])
        cols = ["b", "d", "a"]
        got = _load_outcome(load_population_csv, path, "y", cols)
        assert got == _load_outcome(reference_load_population_csv, path, "y", cols)
        assert np.array_equal(load_population_csv(path, "y", cols).x, pop.x[:, [2, 0, 3]])


class TestRewriteInPlace:
    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"older and much longer contents\n" * 100)
        with rewrite_in_place(path) as handle:
            handle.write("short\n")
        assert path.read_bytes() == b"short\n"

    def test_longer_rewrite_and_empty_rewrite(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"ab")
        with rewrite_in_place(path) as handle:
            handle.write("longer than before\n")
        assert path.read_bytes() == b"longer than before\n"
        with rewrite_in_place(path):
            pass
        assert path.read_bytes() == b""

    def test_clean_rewrite_is_cut_at_its_end_not_at_zero(self, tmp_path, monkeypatch):
        # a cut to zero is what costs the flush on close; the new bytes go first
        cuts = []
        real = os.ftruncate
        monkeypatch.setattr(os, "ftruncate", lambda fd, size: (cuts.append(size), real(fd, size)))
        path = tmp_path / "out.txt"
        path.write_bytes(b"older and much longer contents\n" * 100)
        with rewrite_in_place(path) as handle:
            handle.write("short\n")
        assert cuts == [6]
        assert path.read_bytes() == b"short\n"

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("size", [10, 100_000])  # buffered only; partly on disk
    def test_failed_write_leaves_only_new_bytes(self, tmp_path, error, size):
        path = tmp_path / "out.txt"
        path.write_bytes(b"#" * 300_000)
        with pytest.raises(error):
            with rewrite_in_place(path) as handle:
                handle.write("n" * size)
                raise error
        assert path.read_bytes() == b"n" * size

    def test_interrupted_save_leaves_the_old_file_intact(self, tmp_path):
        pop = correlated_population(4000, ybar=50.0, xbar=(20.0, 80.0), cv_y=0.2, cv_x=0.2,
                                    rho_yx=0.6, rho_xx=0.3, seed=3)

        class Interrupted:  # Ctrl-C at the 3000th row
            def __getitem__(self, i):
                if i == 3000:
                    raise KeyboardInterrupt
                return pop.y[i]

        path = tmp_path / "pop.csv"
        path.write_bytes(b"#" * 1_000_000)
        with pytest.raises(KeyboardInterrupt):
            save_population_csv(SimpleNamespace(N=pop.N, k=pop.k, y=Interrupted(), x=pop.x), path)
        assert path.read_bytes() == b"#" * 1_000_000

    def test_keeps_inode_mode_and_hard_links(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents, longer than the new ones\n")
        path.chmod(0o640)
        link = tmp_path / "hard-link.txt"
        os.link(path, link)
        before = os.stat(path)
        with rewrite_in_place(path) as handle:
            handle.write("new\n")
        after = os.stat(path)
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert after.st_nlink == 2
        assert link.read_bytes() == b"new\n"

    def test_writes_through_a_symlink(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_bytes(b"target contents, longer than the new ones\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with rewrite_in_place(link) as handle:
            handle.write("new\n")
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"

    def test_creates_a_new_file_with_the_umask_mode(self, tmp_path):
        path = tmp_path / "new.txt"
        with rewrite_in_place(path) as handle:
            handle.write("caf\u00e9\r\nline\n")
        assert path.read_bytes() == "caf\u00e9\r\nline\n".encode("utf-8")  # newline=""
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_device_is_not_truncated(self):
        with rewrite_in_place(os.devnull) as handle:
            handle.write("discarded\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_is_not_truncated(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            with rewrite_in_place(fifo) as handle:
                handle.write("through a pipe\n")
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"through a pipe\n"]


class TestSavePopulationCsvBytes:
    # sha256 of the bytes save_population_csv wrote when it still opened its file with mode "w"
    @pytest.mark.parametrize("y_column, x_columns, digest", [
        ("y", None, "88ff210f411b0aa539dc5594926321044e4aa716ff1d1ee1abce01baa2fce889"),
        ("income", ["area", "staff"],
         "9195f0da8bce765c67e4e10b32edd2e2fcbbaf64a3fed1d87bd0a0685d9dd23a"),
    ])
    def test_bytes_pinned(self, y_column, x_columns, digest, tmp_path):
        pop = correlated_population(30, ybar=50.0, xbar=(20.0, 80.0), cv_y=0.2, cv_x=0.2,
                                    rho_yx=0.6, rho_xx=0.3, seed=77)
        path = tmp_path / "pop.csv"
        path.write_bytes(b"#" * 10_000)  # an older, longer file is overwritten in place
        save_population_csv(pop, path, y_column=y_column, x_columns=x_columns)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSummaryStatsJson:
    def test_bundled_fixture_values(self):
        stats = bundled_summary_stats()
        assert stats.N == 204 and stats.n == 50
        assert stats.ybar == 966
        assert stats.xbar == pytest.approx([26441, 1014])
        assert stats.sy == 2389.76
        assert stats.sx == pytest.approx([45402.78, 2521.4])
        assert stats.syx == pytest.approx([77372777, 5684276])
        assert stats.rho_x[0][1] == 0.83

    def test_load_from_path(self, tmp_path):
        doc = {
            "N": 30, "n": 5, "ybar": 10.0, "xbar": [4.0], "sy": 2.0,
            "sx": [1.0], "syx": [1.5], "rho_x": [[1.0]],
        }
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        stats = load_summary_stats(path)
        assert stats.k == 1

    def test_missing_field(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps({"N": 30, "n": 5}), encoding="utf-8")
        with pytest.raises(MissingField):
            load_summary_stats(path)

    def test_dimension_mismatch(self):
        with pytest.raises(InconsistentDimensions):
            summary_from_dict({
                "N": 30, "n": 5, "ybar": 10.0, "xbar": [4.0, 5.0], "sy": 2.0,
                "sx": [1.0], "syx": [1.5, 0.5], "rho_x": [[1.0, 0.1], [0.1, 1.0]],
            })

    @pytest.mark.parametrize("field,value", [("N", 30.5), ("n", "5"), ("N", True),
                                             ("n", None)])
    def test_non_integral_design_rejected(self, field, value):
        doc = {"N": 30, "n": 5, "ybar": 10.0, "xbar": [4.0], "sy": 2.0,
               "sx": [1.0], "syx": [1.5], "rho_x": [[1.0]], field: value}
        with pytest.raises(InvalidDesign, match=re.escape(f"{field}={value!r}")):
            summary_from_dict(doc)

    def test_integral_float_design_accepted(self):
        stats = summary_from_dict({"N": 30.0, "n": 5, "ybar": 10.0, "xbar": [4.0],
                                   "sy": 2.0, "sx": [1.0], "syx": [1.5], "rho_x": [[1.0]]})
        assert (stats.N, stats.n) == (30, 5) and type(stats.N) is int

    def test_asymmetric_rho(self):
        with pytest.raises(InconsistentStats):
            summary_from_dict({
                "N": 30, "n": 5, "ybar": 10.0, "xbar": [4.0, 5.0], "sy": 2.0,
                "sx": [1.0, 1.0], "syx": [1.5, 0.5],
                "rho_x": [[1.0, 0.3], [0.4, 1.0]],
            })


class TestRendering:
    def test_empty_table_is_header_only(self):
        table = ComparisonTable(rows=(), mode=MomentMode.PAPER_LITERAL,
                                weight_scheme="equal", weights=(), source="population")
        text = render_table(table, "text")
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("note:")]
        assert len(lines) == 1
        assert lines[0].startswith("estimator")

    def test_survey_mean_row_text(self, table41):
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        table = compare_all(m, Weights.equal(2), weight_scheme="equal", source="summary")
        text = render_table(table, "text")
        first_data = text.splitlines()[1]
        for token in ("mean", "none", "0", "5.71095e+06"):
            assert token in first_data

    def test_footnotes_follow_provenance(self, table41):
        m_paper = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        text = render_table(compare_all(m_paper, Weights.equal(2), source="summary"), "text")
        assert "x2-labeled row" in text
        assert "reconstructed" in text

        m_srs = moments_from_summary(table41, MomentMode.SRSWOR_EXACT)
        text = render_table(compare_all(m_srs, Weights.equal(2), source="summary"), "text")
        assert "x2-labeled row" not in text
        assert "reconstructed" in text

        text = render_table(compare_all(m_srs, Weights.equal(2), source="population"), "text")
        assert "reconstructed" not in text

    def test_json_and_csv_agree_exactly(self, table41):
        m = moments_from_summary(table41, MomentMode.PAPER_LITERAL)
        table = compare_all(m, Weights.equal(2), source="summary")
        parsed_json = json.loads(render_table(table, "json"))
        parsed_csv = list(csv.DictReader(io.StringIO(render_table(table, "csv"))))
        assert len(parsed_json) == len(parsed_csv)
        for row_json, row_csv in zip(parsed_json, parsed_csv):
            for key in ("abs_bias", "mse"):
                if row_json[key] is None:
                    assert row_csv[key] == ""
                else:
                    assert float(row_csv[key]) == row_json[key]

    def test_sim_result_and_gap_rows_render(self, rng):
        pop = random_population(rng, N=12, k=2)
        design = SampleDesign(12, 4)
        sim = enumerate_exact(pop, design, Weights.equal(2))
        out = render_table(sim, "text")
        assert "estimator" in out and "mean" in out
        m = compute_moments(pop, design)
        gaps = compare_analytic_empirical(m, sim)
        for fmt in ("text", "csv", "json"):
            assert render_table(gaps, fmt)
        # A SimResult renders as its comparison rows with the analytic fields empty.
        bare = list(csv.DictReader(io.StringIO(render_table(sim, "csv"))))
        full = list(csv.DictReader(io.StringIO(render_table(gaps, "csv"))))
        assert list(bare[0]) == list(SamplingRow._fields)
        assert [r["estimator"] for r in bare] == [e.name for e in sim.estimators]
        analytic = {"analytic_bias", "bias_gap_se", "analytic_mse", "mse_gap_se"}
        for b, f in zip(bare, full):
            assert all(b[h] == "" for h in analytic)
            assert all(b[h] == f[h] for h in SamplingRow._fields if h not in analytic)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_rows(["a"], [[1.0]], "yaml")

    def test_text_na_for_undefined(self):
        out = render_rows(["v"], [[None], [float("nan")]], "text")
        assert out.count("n/a") == 2
        out = render_rows(["v", "w"], [[None, 1.5]], "csv")
        assert out == "v,w\n,1.5\n"
        out = json.loads(render_rows(["v"], [[float('nan')]], "json"))
        assert out[0]["v"] is None

    def test_json_infinity_is_null(self):
        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        out = render_rows(["v", "w"], [[math.inf, 1.5], [-math.inf, np.float64(-math.inf)]],
                          "json")
        rows = json.loads(out, parse_constant=no_constants)
        assert rows == [{"v": None, "w": 1.5}, {"v": None, "w": None}]
        assert render_rows(["v"], [[math.inf]], "text") == "v\ninf\n"

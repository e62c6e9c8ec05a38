import json
from importlib import resources

import numpy as np
import pytest

from dualratio import save_population_csv
from dualratio.cli import main
from dualratio.synth import correlated_population
from conftest import random_population


@pytest.fixture(scope="module")
def fixture_path():
    return str(resources.files("dualratio").joinpath("data/table41.json"))


@pytest.fixture
def pop_csv(tmp_path, rng):
    pop = correlated_population(30, ybar=50.0, xbar=(20.0, 80.0), cv_y=0.2, cv_x=0.2,
                                rho_yx=0.6, rho_xx=0.3, seed=77)
    path = tmp_path / "pop.csv"
    save_population_csv(pop, path)
    return str(path)


class TestAnalyze:
    def test_summary_paper_mode(self, fixture_path, capsys):
        rc = main(["analyze", "--stats", fixture_path, "--mode", "paper",
                   "--weights", "equal", "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        mean_line = next(ln for ln in out.splitlines() if ln.startswith("mean"))
        assert "5.71095e+06" in mean_line
        assert "x2-labeled row" in out  # discrepancy footnote

    def test_population_source(self, pop_csv, capsys):
        rc = main(["analyze", "--data", pop_csv, "--y", "y", "--x", "x1,x2", "--n", "6"])
        assert rc == 0
        assert "ap" in capsys.readouterr().out

    def test_explicit_weights(self, fixture_path, capsys):
        rc = main(["analyze", "--stats", fixture_path, "--weights", "list:0.6,0.4"])
        assert rc == 0

    def test_optimal_weights(self, fixture_path, capsys):
        rc = main(["analyze", "--stats", fixture_path, "--weights", "optimal"])
        assert rc == 0
        assert "negative weights" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,needle", [
        ([], "command"),
        (["analyze"], "--data"),
        (["analyze", "--stats", "s.json", "--data", "d.csv", "--y", "y", "--x", "x1"], "--data"),
        (["analyze", "--stats", "missing.json"], "--stats"),
        (["analyze", "--data", "missing.csv", "--y", "y", "--x", "x1", "--n", "5"], "--data"),
    ])
    def test_validation_errors_name_the_field(self, argv, needle, capsys):
        rc = main(argv)
        assert rc == 1
        assert needle in capsys.readouterr().err

    def test_bad_weight_specs(self, fixture_path, capsys):
        assert main(["analyze", "--stats", fixture_path, "--weights", "nope"]) == 1
        assert main(["analyze", "--stats", fixture_path, "--weights", "list:1.0"]) == 1
        assert main(["analyze", "--stats", fixture_path, "--weights", "list:0.9,0.4"]) == 1
        err = capsys.readouterr().err
        assert "--weights" in err

    def test_missing_n_with_data(self, pop_csv, capsys):
        rc = main(["analyze", "--data", pop_csv, "--y", "y", "--x", "x1,x2"])
        assert rc == 1
        assert "--n" in capsys.readouterr().err

    def test_degenerate_population_is_computation_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("y,x1\n1,5\n2,5\n3,5\n4,5\n", encoding="utf-8")
        rc = main(["analyze", "--data", str(path), "--y", "y", "--x", "x1", "--n", "2"])
        assert rc == 2

    def test_out_file(self, fixture_path, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["analyze", "--stats", fixture_path, "--format", "csv",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8").startswith("estimator,")


class TestEstimate:
    def test_point_estimates(self, tmp_path, fixture_path, rng):
        sample = random_population(rng, N=50, k=2)
        path = tmp_path / "sample.csv"
        save_population_csv(sample, path)
        out_path = tmp_path / "est.json"
        rc = main(["estimate", "--data", str(path), "--y", "y", "--x", "x1,x2",
                   "--stats", fixture_path, "--format", "json", "--out", str(out_path)])
        assert rc == 0
        rows = {r["estimator"]: r for r in json.loads(out_path.read_text("utf-8"))}
        assert set(rows) == {"mean", "ratio(1)", "ratio(2)", "ap", "gp", "hp", "product"}
        assert rows["mean"]["estimate"] == pytest.approx(sample.ybar)

    def test_k_mismatch(self, tmp_path, fixture_path, rng):
        sample = random_population(rng, N=20, k=1)
        path = tmp_path / "sample.csv"
        save_population_csv(sample, path)
        rc = main(["estimate", "--data", str(path), "--y", "y", "--x", "x1",
                   "--stats", fixture_path])
        assert rc == 1


class TestSimulateAndEnumerate:
    def test_simulate_byte_identical(self, pop_csv, tmp_path):
        args = ["simulate", "--data", pop_csv, "--y", "y", "--x", "x1,x2",
                "--n", "8", "--reps", "4000", "--seed", "7", "--format", "text"]
        paths = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"sim_{tag}.txt"
            rc = main(args + ["--workers", workers, "--out", str(out)])
            assert rc == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_simulate_rejects_paper_mode(self, pop_csv, capsys):
        rc = main(["simulate", "--data", pop_csv, "--y", "y", "--x", "x1,x2",
                   "--n", "8", "--mode", "paper"])
        assert rc == 1
        assert "--mode" in capsys.readouterr().err

    def test_enumerate_rejects_paper_mode(self, pop_csv, capsys):
        rc = main(["enumerate", "--data", pop_csv, "--y", "y", "--x", "x1,x2",
                   "--n", "4", "--mode", "paper"])
        assert rc == 1
        assert "--mode" in capsys.readouterr().err

    def test_enumerate_small(self, pop_csv, capsys):
        rc = main(["enumerate", "--data", pop_csv, "--y", "y", "--x", "x1,x2", "--n", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "exact enumeration of C(30,4)=27405 subsets" in out

    def test_enumerate_succeeds_at_184756_subsets(self, tmp_path, rng):
        pop = random_population(rng, N=20, k=1)
        path = tmp_path / "p20.csv"
        save_population_csv(pop, path)
        rc = main(["enumerate", "--data", str(path), "--y", "y", "--x", "x1",
                   "--n", "10", "--out", str(tmp_path / "enum.txt")])
        assert rc == 0

    def test_enumerate_too_large(self, tmp_path, rng):
        pop = random_population(rng, N=40, k=1)
        path = tmp_path / "p40.csv"
        save_population_csv(pop, path)
        rc = main(["enumerate", "--data", str(path), "--y", "y", "--x", "x1", "--n", "20"])
        assert rc == 2


class TestWeights:
    def test_summary_source(self, fixture_path, capsys):
        rc = main(["weights", "--stats", fixture_path, "--mode", "paper"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "x1" in out and "x2" in out
        assert "nonnegative: False" in out

    def test_population_source(self, pop_csv, capsys):
        rc = main(["weights", "--data", pop_csv, "--y", "y", "--x", "x1,x2", "--n", "6"])
        assert rc == 0

    def test_singular_matrix_is_computation_error(self, tmp_path, rng, capsys):
        pop = random_population(rng, N=25, k=1)
        x = np.column_stack([pop.x[:, 0], 3.0 * pop.x[:, 0]])
        from dualratio import Population

        path = tmp_path / "collinear.csv"
        save_population_csv(Population(y=pop.y, x=x), path)
        rc = main(["weights", "--data", str(path), "--y", "y", "--x", "x1,x2", "--n", "5"])
        assert rc == 2


class TestParserDefaults:
    def test_parse_args_applies_defaults(self):
        from dualratio.cli import _build_parser

        args = _build_parser().parse_args(["analyze", "--stats", "s.json"])
        assert args.command == "analyze"
        assert args.stats == "s.json"
        assert args.data is None and args.out is None
        assert args.mode == "srswor" and args.weights == "equal"
        args = _build_parser().parse_args(["simulate", "--data", "d.csv"])
        assert args.mode == "srswor" and args.weights == "equal"
        assert args.reps == 100_000 and args.seed == 0 and args.workers == 1


class TestTable42:
    def test_report_content(self, capsys):
        rc = main(["table42"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "discrepancies" in out
        for verbatim in ("3389", "3501", "3690", "4239.70",
                         "5710952", "4165443", "2802810", "649.0", "1190"):
            assert verbatim in out
        assert "equal weights" in out and "optimal weights" in out

    def test_explicit_stats_path(self, fixture_path, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["table42", "--stats", fixture_path, "--out", str(out)])
        assert rc == 0
        assert "discrepancies" in out.read_text("utf-8")

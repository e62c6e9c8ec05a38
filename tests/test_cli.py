import hashlib
import json
import os
from importlib import resources

import numpy as np
import pytest

from dualratio import save_population_csv, simulation
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
    # Drawn samples scored against the bundled fixture (N=204, Xbar = 26441,
    # 1014): an ordinary one; one whose x2 mean is large enough to make its
    # dual mean negative; and one whose x2 column sums to exactly 0 row by row,
    # the mean the estimators read, but not pairwise, the mean validation reads.
    SAMPLES = {
        "ordinary": "y,x1,x2\n912.5,25100,980\n1040,27950.5,1032\n987.25,26010,1011\n"
                    "1101,29400,1090.5\n860,24020,955\n",
        "negative_dual_mean": "y,x1,x2\n950,26000,52000\n990,27000,48000.5\n"
                              "1010,25500,61000\n970,26500,45000\n1030,27500,57000\n",
        "zero_x2_mean": "y,x1,x2\n900,25000,1e16\n950,26000,1\n1000,27000,-1e16\n"
                        "1050,28000,2\n920,25500,0.5\n980,26500,-1\n1010,27500,1e16\n"
                        "940,25800,-3\n990,26800,-1e16\n",
    }
    # sha256 of estimate's stdout by (sample, --weights, --format).
    DIGESTS = {
        ("ordinary", "equal", "text"):
            "3124108a9547afd964cc3daaf8d9bc7498f3d252741ea87113fa3003d4309855",
        ("ordinary", "equal", "csv"):
            "a9b205db6d6dece798211d194911be7b434163eb767fd69c294bbf3e7d6525c8",
        ("ordinary", "equal", "json"):
            "92ce0bffa97ebcfc59fc3c28dda2244062fc6386908cc3a4e1ea1e74d86cd6c4",
        ("ordinary", "list:1.5,-0.5", "text"):
            "f5af99db9f18c189a45fb63f9c0d7c9f4582d87d7ef0ea4e731aef757008e211",
        ("ordinary", "list:1.5,-0.5", "csv"):
            "01c904a007c432965386c09a66dde76b824c504e79355cfa4c2cbf1af0826c26",
        ("ordinary", "list:1.5,-0.5", "json"):
            "e8eef5af80b6c67d7ca757e46b4dfc0bd2d26fbb4a64db1d1f2f8eb47bd741bb",
        ("negative_dual_mean", "equal", "text"):
            "32783d22a779b5da8d40a5e607038c050f478a1b7595aac0b3e1288bff3fbd9c",
        ("negative_dual_mean", "equal", "csv"):
            "25b4d8d2fdc6614edad4d8f443fa593eb5ae6bfd751e594f0301ed0a52e32fdf",
        ("negative_dual_mean", "equal", "json"):
            "4e1f95411341803098627e5e75fffb547b78290bed3510a7f27e3b6757079190",
        ("negative_dual_mean", "list:1.5,-0.5", "text"):
            "a215197bde98a272f592e876726064fef6b79bb36fc5015c0f8c267674df4525",
        ("negative_dual_mean", "list:1.5,-0.5", "csv"):
            "f52314f26543fd7814c5b254d28cc5e34dc850300d86e4d25c5ffa3d8d4965a5",
        ("negative_dual_mean", "list:1.5,-0.5", "json"):
            "d487c6118b6c65d6f92aac6f0bb3785e3ced40a885d7205200ceefe59eb1d22b",
        ("zero_x2_mean", "equal", "text"):
            "00a5dfc86524681e1f34ecfb75213b21ffaae285c2c1a401dba14b46a59ebc3f",
        ("zero_x2_mean", "equal", "csv"):
            "58681460047443005316099ef48326ccd8871a79dc47c574cdafd60f55b27409",
        ("zero_x2_mean", "equal", "json"):
            "07c4f6e1006975a5ed7d5fe86cf5fe5e9eb528eed41e07b685dff312a62721e7",
        ("zero_x2_mean", "list:1.5,-0.5", "text"):
            "b0efeff4480226329b4f653d06450d9366dd4264b4e7a7c3b5ff13b5f5fa4754",
        ("zero_x2_mean", "list:1.5,-0.5", "csv"):
            "84cfb4c82b5b991cc9981d59742c5ac09a9323388bac4798616ea38ea3cf0173",
        ("zero_x2_mean", "list:1.5,-0.5", "json"):
            "d36230ab7dfbf5a00997a2b08972d290ec4fa2ab4d13ff51aab3aec3a47b9599",
    }

    @pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
    def test_stdout_pinned(self, key, fixture_path, tmp_path, capsys):
        sample, weights, fmt = key
        path = tmp_path / "sample.csv"
        path.write_text(self.SAMPLES[sample], encoding="utf-8")
        rc = main(["estimate", "--data", str(path), "--y", "y", "--x", "x1,x2",
                   "--stats", fixture_path, "--weights", weights, "--format", fmt])
        assert rc == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == self.DIGESTS[key]

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
    def test_simulate_byte_identical(self, pop_csv, tmp_path, pool_always, process_starts):
        # two chunks (32768 rows at N=30), so that workers=2 runs a pool
        args = ["simulate", "--data", pop_csv, "--y", "y", "--x", "x1,x2",
                "--n", "8", "--reps", "40000", "--seed", "7", "--format", "text"]
        paths = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"sim_{tag}.txt"
            rc = main(args + ["--workers", workers, "--out", str(out)])
            assert rc == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]
        assert len(process_starts) == 2

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

    def test_stats_with_one_auxiliary_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "k1.json"
        path.write_text(json.dumps({"N": 204, "n": 50, "ybar": 966, "xbar": [26441],
                                    "sy": 2389.76, "sx": [45402.78], "syx": [77372777],
                                    "rho_x": [[1.0]]}), encoding="utf-8")
        rc = main(["table42", "--stats", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --stats:") and "two-auxiliary" in err


class TestOut:
    @pytest.fixture
    def commands(self, fixture_path, pop_csv):
        data = ["--data", pop_csv, "--y", "y", "--x", "x1,x2"]
        return {
            "analyze": ["analyze", "--stats", fixture_path],
            "weights": ["weights", *data, "--n", "8"],
            "simulate": ["simulate", *data, "--n", "8", "--reps", "3000", "--seed", "5"],
            "enumerate": ["enumerate", *data, "--n", "3"],
        }

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("command", ["analyze", "weights", "simulate", "enumerate"])
    def test_out_bytes_equal_stdout(self, command, fmt, commands, tmp_path, capsys):
        argv = commands[command] + ["--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout

    def test_table42_out_bytes_equal_stdout(self, tmp_path, capsys):
        assert main(["table42"]) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        out = tmp_path / "report.txt"
        assert main(["table42", "--out", str(out)]) == 0
        assert out.read_bytes() == stdout

    def test_shorter_rewrite_keeps_inode_and_only_new_bytes(self, fixture_path, tmp_path,
                                                            capsys):
        out = tmp_path / "table"
        argv = ["analyze", "--stats", fixture_path, "--out", str(out)]
        assert main(argv + ["--format", "json"]) == 0
        before = os.stat(out)
        assert main(argv + ["--format", "csv"]) == 0
        assert os.stat(out).st_ino == before.st_ino
        assert out.stat().st_size < before.st_size
        assert main(["analyze", "--stats", fixture_path, "--format", "csv"]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_out_to_null_device(self, fixture_path, capsys):
        assert main(["analyze", "--stats", fixture_path, "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("where", ["missing_directory", "directory",
                                       "missing_directory_before_simulate"])
    def test_unwritable_out_is_input_error(self, where, commands, tmp_path, capsys,
                                           monkeypatch):
        def never_runs(*args, **kwargs):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(simulation, "run_monte_carlo", never_runs)
        out = tmp_path if where == "directory" else tmp_path / "no-such-dir" / "out.txt"
        command = "simulate" if where.endswith("simulate") else "analyze"
        rc = main(commands[command] + ["--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err
        assert not (tmp_path / "no-such-dir").exists()

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="file permissions do not bind root")
    def test_read_only_out_is_input_error(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "locked.txt"
        out.write_bytes(b"keep me\n")
        out.chmod(0o444)
        rc = main(["analyze", "--stats", fixture_path, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert out.read_bytes() == b"keep me\n"

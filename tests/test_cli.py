import hashlib
import json
import os
import shutil
from importlib import resources

import numpy as np
import pytest

from dualratio import Population, cli, errors, save_population_csv, simulation
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _source_argv(source, fixture_path, pop_csv):
    """The flags of an analyze/weights run on the bundled summary or on pop_csv."""
    if source == "summary":
        return ["--stats", fixture_path]
    return ["--data", pop_csv, "--y", "y", "--x", "x1,x2", "--n", "6"]


class TestAnalyze:
    # sha256 of analyze's stdout by (source, --mode, --weights, --format).
    DIGESTS = {
        ("population", "paper", "equal", "csv"):
            "843d69851a082a93596fdccdc5a32225aeed954e5dc6afaf57143e942d4d4b85",
        ("population", "paper", "equal", "json"):
            "b6316ef2b4fa40b7eb80725bdaa8cf4046fa4a411eb7fb45a52504f11864c1e0",
        ("population", "paper", "equal", "text"):
            "e766c8b7c708654ad8ae011610935972cafe855eb6f6f1cb75aa00fa07cf2d7e",
        ("population", "paper", "list:0.6,0.4", "csv"):
            "ee92ff8064bfc2540d833ddbfa43096094a7533226dbdc22dbb49ba63a2358b6",
        ("population", "paper", "list:0.6,0.4", "json"):
            "cacec4f6174dd39422996b8a051adb3cffac70a92ae1430a4ffdf3ace65f36e2",
        ("population", "paper", "list:0.6,0.4", "text"):
            "43693a17490616603fdc23350e144b260ecd118ccc6c7a098ae85630d90fc796",
        ("population", "paper", "optimal", "csv"):
            "167cc4cc00f6cabb2881ca6da181bdedce83e1ee8a9bb5d027b3ce6e26c553f1",
        ("population", "paper", "optimal", "json"):
            "5e623b9568d0ccc6a393b9e43b2b4c826164d1ffe0f6f0150d1a1d00e0008520",
        ("population", "paper", "optimal", "text"):
            "9e45e1339c064f4b8131cf650c4944461e9f2291a0ae1bf6649230d2661cb607",
        ("population", "srswor", "equal", "csv"):
            "ad4057bb65a63aba67996c08acf84a637b000a48cd01fce5bb008159e274720f",
        ("population", "srswor", "equal", "json"):
            "7700dd821df93f659aa74928376896bf0c90b655e744ea378d1f87ccbac3761d",
        ("population", "srswor", "equal", "text"):
            "00abf3b72198702a35957ea68728c6578cff0cceb93bf8b2ef73f3c3aebb90cc",
        ("population", "srswor", "list:0.6,0.4", "csv"):
            "6200620bc623564676ff7cf9add0f5d35a46399cb2a239d652f5c53d3586acb4",
        ("population", "srswor", "list:0.6,0.4", "json"):
            "a51e58a3adac580bb330e9277ec5e17c10f65c1788a361ac569d145da4bb2bf4",
        ("population", "srswor", "list:0.6,0.4", "text"):
            "c145265e65854dadbb066f0ae726d9726a3b60666ff24dff556cc86db881972b",
        ("population", "srswor", "optimal", "csv"):
            "a68de500b728caa4eb4bf42ae9a8d6da915a48b51b3326c3ed08c1fc62394645",
        ("population", "srswor", "optimal", "json"):
            "81d22c1c1bf8e470f1f3a6cdb5af42326e2ec23e679f3c1f09edc2740542c8a5",
        ("population", "srswor", "optimal", "text"):
            "060714a98b666a62896c98d992e4a1cb0af2a019dfd2ab4497ec6632becf3c0d",
        ("summary", "paper", "equal", "csv"):
            "fd678d9cc1c659b8fdd3782decc039e90fff08d28e4d9d3deb25083b9e696f8e",
        ("summary", "paper", "equal", "json"):
            "83b74340792097eafd637e9b1694061f221795eadc81374112f37f982ef12005",
        ("summary", "paper", "equal", "text"):
            "2525735cf5e6125dfdfb93a246906220514f3bd3845c9f2e1dbf0368145da3de",
        ("summary", "paper", "list:0.6,0.4", "csv"):
            "d2e2c73708f90dadc4ddf799f42fd9c58ce642132ecc289adf93da5b49173f9e",
        ("summary", "paper", "list:0.6,0.4", "json"):
            "5151a491cc00980516c9487d3b223bac74233521f91fde1e1edbddea37ac55ac",
        ("summary", "paper", "list:0.6,0.4", "text"):
            "ff0b16400163f14eef7190703ecc9cd261d83fab7540f356f87764f188a36ce6",
        ("summary", "paper", "optimal", "csv"):
            "5244d7114a7d3a72edce4d9260f89195254796f80c293dbb80935e3faf71e697",
        ("summary", "paper", "optimal", "json"):
            "499af696bb8e99c8c545728271de78b8785254b2dcff1864e63f6810db4dea25",
        ("summary", "paper", "optimal", "text"):
            "d7c17e63ef4d7ce1e97fa6fd54646aea30b7ee3b8634360f17d2838c98d3cec6",
        ("summary", "srswor", "equal", "csv"):
            "a327280a13521c6ff810c9318fb6b55cd2a4c817c30f7a494b696dbc05700956",
        ("summary", "srswor", "equal", "json"):
            "fa4724ac6aed569cb64ac2cffe61591291500b3bd459230e1417176525641ac7",
        ("summary", "srswor", "equal", "text"):
            "30244122efa0f54b8e9ba6cfa9af3d3636950f2eacfb904add3818d9c5b11983",
        ("summary", "srswor", "list:0.6,0.4", "csv"):
            "c59b0a2e0402f452934dfcb4e70c34aacac2a381ff60724460c3ade89b062a91",
        ("summary", "srswor", "list:0.6,0.4", "json"):
            "253af70decd314e098f9e47b55bdd0aa3cce199ff492bbbbbb8d516d3d933dca",
        ("summary", "srswor", "list:0.6,0.4", "text"):
            "dfcdd808d69ab24197c1718ceb357eacedb0101b81be353265f39d96ee4800ff",
        ("summary", "srswor", "optimal", "csv"):
            "a2705758003f8742e4092dd5fe88278588fd3e73e11c3c837db6611e37975ff0",
        ("summary", "srswor", "optimal", "json"):
            "e0cbdbcad4cb31b72f0002a39ef645d7ade096e48269d286f98b27a895da9479",
        ("summary", "srswor", "optimal", "text"):
            "eb1b71f21f2543b63a4f114a6382b211b113ba1efef06c3325ae22bf5be85495",
    }

    @pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
    def test_stdout_pinned(self, key, fixture_path, pop_csv, capsys):
        source, mode, weights, fmt = key
        rc = main(["analyze", *_source_argv(source, fixture_path, pop_csv),
                   "--mode", mode, "--weights", weights, "--format", fmt])
        assert rc == 0
        assert _sha256(capsys.readouterr().out) == self.DIGESTS[key]

    def test_csv_with_byte_order_mark(self, pop_csv, tmp_path, capsys):
        key = ("population", "srswor", "equal", "text")
        bom_csv = tmp_path / "bom.csv"
        with open(pop_csv, "rb") as handle:
            bom_csv.write_bytes(b"\xef\xbb\xbf" + handle.read())
        rc = main(["analyze", *_source_argv("population", None, str(bom_csv)),
                   "--mode", "srswor", "--weights", "equal", "--format", "text"])
        assert rc == 0
        assert _sha256(capsys.readouterr().out) == self.DIGESTS[key]

    @pytest.mark.parametrize("flag,content", [
        ("--data", b"y,x1\n1,2\n3,\xff4\n"),
        ("--stats", b'{"N": \xff}'),
    ])
    def test_file_not_utf8_is_input_error(self, flag, content, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(content)
        argv = ["analyze", flag, str(path)]
        if flag == "--data":
            argv += ["--y", "y", "--x", "x1", "--n", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and "can't decode byte 0xff" in err
        assert err.count("\n") == 1

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
        assert _sha256(capsys.readouterr().out) == self.DIGESTS[key]

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

    @pytest.mark.parametrize("sample,rc,stream,expected", [
        # x2 averages to exactly 0, which the sample may do: the ratio(2) note.
        ("y,x1,x2\n900,25000,1\n950,26000,-1\n1000,27000,2\n1050,28000,-2\n", 0, "out",
         "ratio(2)   n/a       sample mean of auxiliary x2 is zero"),
        ("y,x1,x2\n900,25000,1\n950,nan,-1\n1000,27000,2\n", 1, "err",
         "error: --data: the sample holds a non-finite value"),
        ("y,x1,x2\n900,25000,1\n950,26000,-1\ninf,27000,2\n", 1, "err",
         "error: --data: the sample holds a non-finite value"),
    ], ids=["zero_x2_mean", "nan_x1", "inf_y"])
    def test_sample_checks_only_finiteness(self, sample, rc, stream, expected, fixture_path,
                                           tmp_path, capsys):
        path = tmp_path / "sample.csv"
        path.write_text(sample, encoding="utf-8")
        assert main(["estimate", "--data", str(path), "--y", "y", "--x", "x1,x2",
                     "--stats", fixture_path]) == rc
        assert expected in getattr(capsys.readouterr(), stream)

    @staticmethod
    def overflowing_sample_argv(fixture_path, tmp_path):
        # x_i = Xbar_i (1 + 0.9 / g) makes each dual mean 0.1 Xbar_i, so every
        # term is 10 ybar = 5e308, beyond float64: the reciprocal sum is zero.
        # ybar * Xbar_i overflows too, so each ratio estimate is inf.
        with open(fixture_path, encoding="utf-8") as handle:
            stats = json.load(handle)
        stats["n"] = 3
        stats_path = tmp_path / "n3.json"
        stats_path.write_text(json.dumps(stats), encoding="utf-8")
        g = 3 / (204 - 3)
        row = f"5e307,{26441 * (1 + 0.9 / g)!r},{1014 * (1 + 0.9 / g)!r}\n"
        path = tmp_path / "sample.csv"
        path.write_text("y,x1,x2\n" + 3 * row, encoding="utf-8")
        return ["estimate", "--data", str(path), "--y", "y", "--x", "x1,x2",
                "--stats", str(stats_path)]

    def test_overflowing_terms_leave_hp_undefined(self, fixture_path, tmp_path, capsys):
        assert main(self.overflowing_sample_argv(fixture_path, tmp_path)) == 0
        captured = capsys.readouterr()
        assert "hp         n/a       weighted reciprocal sum is zero\n" in captured.out
        assert captured.err == ""

    def test_json_output_is_valid_json_with_infinite_estimates(self, fixture_path, tmp_path,
                                                               capsys):
        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        argv = self.overflowing_sample_argv(fixture_path, tmp_path)
        assert main(argv + ["--format", "json"]) == 0
        captured = capsys.readouterr()
        rows = {r["estimator"]: r
                for r in json.loads(captured.out, parse_constant=no_constants)}
        assert rows["ratio(1)"]["estimate"] is None and rows["ratio(2)"]["estimate"] is None
        assert rows["mean"]["estimate"] == 5e307
        assert captured.err == ""
        assert main(argv) == 0
        assert "ratio(1)   inf" in capsys.readouterr().out

    def test_k_mismatch(self, tmp_path, fixture_path, rng):
        sample = random_population(rng, N=20, k=1)
        path = tmp_path / "sample.csv"
        save_population_csv(sample, path)
        rc = main(["estimate", "--data", str(path), "--y", "y", "--x", "x1",
                   "--stats", fixture_path])
        assert rc == 1


class TestSimulateAndEnumerate:
    # One unit with y = -52: a 4-subset holding it and three small units has a
    # negative sample mean, so gp/hp are undefined on 6 of the C(12,4) = 495
    # subsets and on 43 of the 3000 replicates below (under the 10% limit).
    SOME_INVALID = "y,x1,x2\n" + "".join(
        f"{y},{x1},{x2}\n" for y, x1, x2 in zip(
            (-52, 12, 15, 18, 20, 22, 25, 28, 30, 33, 35, 40),
            (5, 11, 14, 17, 19, 23, 24, 27, 31, 32, 36, 41),
            (60, 30, 25, 35, 40, 28, 45, 50, 38, 55, 42, 48)))
    # sha256 of stdout by (command, population, --weights, --format).
    DIGESTS = {
        ("enumerate", "pop_csv", "equal", "csv"):
            "e8d95a4f7a14769588892a49825a0212380bc1f1e8cb7af462442adc635e55a1",
        ("enumerate", "pop_csv", "equal", "json"):
            "308f7e0894af32c2022de7f85713905ce88e3350ebdf7197787264de91ba43a6",
        ("enumerate", "pop_csv", "equal", "text"):
            "1f71f2ed21724f04dfb2f375dcc43b7439b917f88d683466d4dca46637b18846",
        ("enumerate", "pop_csv", "list:0.6,0.4", "csv"):
            "9c257e6555acd0cc92324ae83541c3817ccf599cab10a074988c72ef92013703",
        ("enumerate", "pop_csv", "list:0.6,0.4", "json"):
            "9c1224551e1d0076520da067b8ba1e55d2b9049c4df48ea5fa9dc872858128f7",
        ("enumerate", "pop_csv", "list:0.6,0.4", "text"):
            "fc5ca851c960c06e21300a2ffb2c386588fe29528c4e0c08ef60352709fd9b39",
        ("enumerate", "some_invalid", "equal", "csv"):
            "600e17d399ab763b7aae37c5e8a2186bb7a3c82462076aeb29ab87dec0427bd1",
        ("enumerate", "some_invalid", "equal", "json"):
            "2282bba8005da8394e94f39d8d6f7eede7f44d12eb3afe3cdfccce4bde26a4bb",
        ("enumerate", "some_invalid", "equal", "text"):
            "b106a99ea3314e3948e18911f56721f99fc1cd1c4d7725e495e6016871ef0126",
        ("enumerate", "some_invalid", "list:0.6,0.4", "csv"):
            "8ca6f1f834b7acae6ac4a0042980811cc0063369c777e4987cad4f36ed96d4fe",
        ("enumerate", "some_invalid", "list:0.6,0.4", "json"):
            "3bf80bb93fc846626f86ee0886a06d2167d36d3091e6810c1ce7e224792d08e7",
        ("enumerate", "some_invalid", "list:0.6,0.4", "text"):
            "3c1e1fd47e0d4197c90c8113ef88d528d54a36d7b4dfeec17b64658ab81dc042",
        ("simulate", "pop_csv", "equal", "csv"):
            "95a0ab5e2f9144f815f296d31deda72c1b83de163f1903c2b670753545c425d0",
        ("simulate", "pop_csv", "equal", "json"):
            "c7ea517f12b7b7de26110ba2810f87ad0d90908bbe40464e63e9c5af334b89f1",
        ("simulate", "pop_csv", "equal", "text"):
            "ddca4ca026f82747aab6b2c27e14e7cd1f163c17dbb94cafba3d18a4617cccee",
        ("simulate", "pop_csv", "list:0.6,0.4", "csv"):
            "5e59163f5d76c6cef62c458d55b76950a359b7f93b834544f429d4a5915f3ce6",
        ("simulate", "pop_csv", "list:0.6,0.4", "json"):
            "424a267674f9c9ab6018b566c9c0c6d1b03eae2a29a87c2ea3ff716a2f3cae01",
        ("simulate", "pop_csv", "list:0.6,0.4", "text"):
            "ad4fd35562ffb148a6e15143bfe9ee6211539b5159d105d69031b438b6de7295",
        ("simulate", "some_invalid", "equal", "csv"):
            "2071e03e42a7022e46243a104b13cca5e2666597f46b91854878e2a540d8228d",
        ("simulate", "some_invalid", "equal", "json"):
            "0bf7c0978eb61829665d93fd136a1b33612f091e58adda279f99e16c7b538284",
        ("simulate", "some_invalid", "equal", "text"):
            "595e84a82c84c7ba482d24063356bb18b437667c5dd32fac9defe686b41110e9",
        ("simulate", "some_invalid", "list:0.6,0.4", "csv"):
            "55da537fb9b8d4a698925a14809d24b94b95610c0283b5a7e6bd18ab5cc9a6cb",
        ("simulate", "some_invalid", "list:0.6,0.4", "json"):
            "f38f991ba5232796e69d663e44628d05ce454c2483de93e9d3df6f17905cecdd",
        ("simulate", "some_invalid", "list:0.6,0.4", "text"):
            "fe9bf395a0fc9deb553dacb109ab816e369ea4e25844d72c9dfe58491446913d",
    }

    @pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
    def test_stdout_pinned(self, key, pop_csv, tmp_path, capsys):
        command, population, weights, fmt = key
        path = pop_csv
        if population == "some_invalid":
            path = tmp_path / "some_invalid.csv"
            path.write_text(self.SOME_INVALID, encoding="utf-8")
        argv = [command, "--data", str(path), "--y", "y", "--x", "x1,x2", "--n", "4",
                "--weights", weights, "--format", fmt]
        if command == "simulate":
            argv += ["--reps", "3000", "--seed", "5"]
        assert main(argv) == 0
        assert _sha256(capsys.readouterr().out) == self.DIGESTS[key]

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

    def test_simulate_sums_past_float64(self, tmp_path, capsys):
        # The product's sums of squares add past the float64 range over the
        # run's chunks: its MSE is NaN, and every other figure is reported.
        rng = np.random.default_rng(2)
        pop = Population(rng.uniform(0.2, 3, 40) * 1e76, rng.uniform(1, 2, (40, 2)))
        path = tmp_path / "pop.csv"
        save_population_csv(pop, path)
        rc = main(["simulate", "--data", str(path), "--y", "y", "--x", "x1,x2", "--n", "2",
                   "--reps", "100000", "--seed", "0", "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        rows = {r["estimator"]: r for r in json.loads(captured.out)}
        assert rows["product"]["emp_mse"] is None
        assert all(r["emp_mse"] is not None for nm, r in rows.items() if nm != "product")

    @pytest.mark.parametrize("command", ["simulate", "enumerate"])
    def test_zero_auxiliary_mean_is_input_error(self, command, tmp_path, capsys):
        # The pinned zero_x2_mean sample, as a population: its x2 mean is the
        # exact 0 that the moments would divide by.
        path = tmp_path / "pop.csv"
        path.write_text(TestEstimate.SAMPLES["zero_x2_mean"], encoding="utf-8")
        assert main([command, "--data", str(path), "--y", "y", "--x", "x1,x2", "--n", "3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --data: population invalid: ZeroAuxiliaryMean(2)\n"

    def test_simulate_rejects_negative_seed(self, pop_csv, capsys):
        rc = main(["simulate", "--data", pop_csv, "--y", "y", "--x", "x1,x2",
                   "--n", "8", "--reps", "100", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: --seed: must be >= 0\n")

    def test_simulate_checks_flags_before_loading_data(self, tmp_path, capsys):
        # --reps is rejected before --data is read: the path does not exist.
        rc = main(["simulate", "--data", str(tmp_path / "missing.csv"), "--y", "y",
                   "--x", "x1,x2", "--n", "8", "--reps", "0"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: --reps: must be >= 1\n")

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
    # sha256 of weights' stdout by (source, --mode, --format).
    DIGESTS = {
        ("population", "paper", "csv"):
            "eeb88eeab3b2ac17e8ed43cae532e23681d20d0d9d92432bcad03ec906bfd9c3",
        ("population", "paper", "json"):
            "7260f7f84a88651ac64a47bc9a626a4a2a19a861b33ac2a2179fc63be27febe2",
        ("population", "paper", "text"):
            "2b85357d12eb8f870c294dfff6999e7fa8822b8414471ff51b9691d3190c978c",
        ("population", "srswor", "csv"):
            "518b94870a14ebeb98e545646c443b8f0d16918b60b829f9b5f109f8ebf26276",
        ("population", "srswor", "json"):
            "ac725457595ee1f77d106b3d3767cb6ebbf50beb0af8b8bdf8ca6fac402fc0ed",
        ("population", "srswor", "text"):
            "97d4ffde28f9041f78decbe399ead26821bd63d22716a078e466a2c7b0fbe8d8",
        ("summary", "paper", "csv"):
            "35e1fff8b319f471ce78fc3639b75ec1bfc703a612013ec363b6a67f01c9bfea",
        ("summary", "paper", "json"):
            "267e1cb0226a848dee5966e6bfc432464acefa8ae4d06dcf4c452278d2fb35d7",
        ("summary", "paper", "text"):
            "7f88e8c89d20a05598e7b43ad7f488c129ee84643c21d89471abb39f900e9d13",
        ("summary", "srswor", "csv"):
            "5088a0526166dc7fcd1c663fcdb3318a0c733d6877a270feff05cbbf6d7a6110",
        ("summary", "srswor", "json"):
            "3230e2dab98eba82fc1a523dd2c82df26dfaeee3716f011f1694f58642a38476",
        ("summary", "srswor", "text"):
            "8771d19395b545621861de9c63d36b88162396d78a5b653948c2e90ba27e5830",
    }

    @pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
    def test_stdout_pinned(self, key, fixture_path, pop_csv, capsys):
        source, mode, fmt = key
        rc = main(["weights", *_source_argv(source, fixture_path, pop_csv),
                   "--mode", mode, "--format", fmt])
        assert rc == 0
        assert _sha256(capsys.readouterr().out) == self.DIGESTS[key]

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
    # sha256 of the report's stdout: bundled fixture, and a copy of it passed as
    # --stats by a relative path (the report prints the path).
    @pytest.mark.parametrize("use_stats,digest", [
        (False, "ec3d39b053ebe676cc36ce48cdc7393cd983eceb6de9055c5026f5c3bfb07f34"),
        (True, "e284582620f3137d0446d63d78ad79f67554a76fee31013f210465cf4bb0238c"),
    ])
    def test_stdout_pinned(self, use_stats, digest, fixture_path, tmp_path, monkeypatch,
                           capsys):
        shutil.copy(fixture_path, tmp_path / "table41.json")
        monkeypatch.chdir(tmp_path)
        rc = main(["table42", "--stats", "table41.json"] if use_stats else ["table42"])
        assert rc == 0
        assert _sha256(capsys.readouterr().out) == digest

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


class TestSummaryInput:
    """analyze/weights/table42 on edited copies of the bundled summary."""

    @pytest.fixture
    def edited_stats(self, fixture_path, tmp_path):
        def write(**fields):
            with open(fixture_path, encoding="utf-8") as handle:
                doc = json.load(handle)
            doc.update(fields)
            path = tmp_path / "stats.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        return write

    @staticmethod
    def syx_at_rho(excess):
        """syx whose first entry implies |rho_yx1| = 1 + excess."""
        return [2389.76 * 45402.78 * (1.0 + excess), 5684276]

    @pytest.mark.parametrize("command", ["analyze", "table42"])
    def test_correlation_within_slack_runs(self, command, edited_stats, capsys):
        assert main([command, "--stats", edited_stats(syx=self.syx_at_rho(5e-10))]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["analyze", "table42"])
    def test_correlation_beyond_slack_is_input_error(self, command, edited_stats, capsys):
        assert main([command, "--stats", edited_stats(syx=self.syx_at_rho(2e-9))]) == 1
        assert capsys.readouterr().err == "error: implied correlation magnitude exceeds 1\n"

    @pytest.mark.parametrize("field,value", [
        ("sy", float("nan")),
        ("xbar", [float("inf"), 1014]),
        ("rho_x", [[1.0, float("nan")], [float("nan"), 1.0]]),
    ])
    def test_non_finite_field_is_input_error(self, field, value, edited_stats, capsys):
        assert main(["analyze", "--stats", edited_stats(**{field: value})]) == 1
        assert capsys.readouterr().err == f"error: {field} must be finite\n"

    @pytest.mark.parametrize("fields,message", [
        # float() would read "966" as 966 and true as 1.0
        ({"ybar": "966", "sx": ["45402.78", "2521.4"]}, "ybar: '966' is not a number"),
        ({"sx": ["45402.78", "2521.4"]}, "sx: '45402.78' is not a number"),
        ({"sy": True}, "sy: True is not a number"),
        ({"rho_x": [[1.0, 0.83], [0.83, False]]}, "rho_x: False is not a number"),
        ({"syx": [77372777, None]}, "syx: None is not a number"),
        ({"ybar": [966]}, "ybar must be a single number, got shape (1,)"),
    ])
    def test_non_numeric_field_is_input_error(self, fields, message, edited_stats, capsys):
        path = edited_stats(**fields)
        assert main(["analyze", "--stats", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(message + "\n")

    @pytest.mark.parametrize("metadata", [5, "x", [1, 2]])
    def test_metadata_is_ignored(self, metadata, fixture_path, edited_stats, capsys):
        assert main(["analyze", "--stats", fixture_path]) == 0
        want = _sha256(capsys.readouterr().out)
        assert main(["analyze", "--stats", edited_stats(metadata=metadata)]) == 0
        assert _sha256(capsys.readouterr().out) == want

    @pytest.mark.parametrize("field,value", [("N", 204.7), ("n", "50"), ("N", True)])
    def test_non_integral_design_is_input_error(self, field, value, edited_stats, capsys):
        assert main(["analyze", "--stats", edited_stats(**{field: value})]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field}={value!r}" in err

    @pytest.mark.parametrize("command", ["analyze", "weights"])
    @pytest.mark.parametrize("flags,named", [
        (["--n", "10"], "--n"),
        (["--y", "foo"], "--y"),
        (["--x", "bar"], "--x"),
        (["--n", "10", "--y", "foo", "--x", "bar"], "--n"),
    ])
    def test_design_flags_with_stats_are_refused(self, command, flags, named, fixture_path,
                                                 capsys):
        assert main([command, "--stats", fixture_path, *flags]) == 1
        assert capsys.readouterr().err == f"error: {named}: the design comes from --stats\n"


class TestExitCodes:
    # Every concrete error class and the exit status main reports it with.
    EXIT = {
        cli.CliUsage: 1, errors.InvalidDesign: 1, errors.InvalidWeights: 1,
        errors.MissingColumn: 1, errors.MissingField: 1, errors.UnparseableValue: 1,
        errors.EmptyFile: 1, errors.InconsistentDimensions: 1, errors.InconsistentStats: 1,
        errors.NegativeWeight: 2, errors.ZeroMean: 2, errors.DegeneratePopulation: 2,
        errors.DegenerateVariance: 2, errors.ZeroDualMean: 2, errors.NonPositiveTerm: 2,
        errors.ZeroDenominator: 2, errors.ZeroSampleMean: 2, errors.SingularMomentMatrix: 2,
        errors.TooManyInvalid: 2, errors.TooLarge: 2, errors.ModeMismatch: 2,
    }

    def test_every_error_class_is_listed(self):
        def concrete(cls):
            for sub in cls.__subclasses__():
                yield from concrete(sub)
                if sub is not errors.InputError:
                    yield sub

        assert set(concrete(errors.DualRatioError)) == set(self.EXIT)

    @pytest.mark.parametrize("cls", EXIT, ids=lambda cls: cls.__name__)
    def test_exit_code(self, cls, fixture_path, monkeypatch, capsys):
        exc = cls(3, "x1", "?") if cls is errors.UnparseableValue else cls("boom")

        def runner(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_weights", runner)
        assert main(["weights", "--stats", fixture_path]) == self.EXIT[cls]
        assert capsys.readouterr().err == f"error: {exc}\n"


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
                                       "missing_directory_before_simulate",
                                       "empty_before_simulate"])
    def test_unwritable_out_is_input_error(self, where, commands, tmp_path, capsys,
                                           monkeypatch):
        def never_runs(*args, **kwargs):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(simulation, "run_monte_carlo", never_runs)
        out = {"directory": str(tmp_path), "empty_before_simulate": ""}.get(
            where, str(tmp_path / "no-such-dir" / "out.txt"))
        command = "simulate" if where.endswith("simulate") else "analyze"
        rc = main(commands[command] + ["--out", out])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1
        assert captured.err.endswith(f": {out!r}\n")
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

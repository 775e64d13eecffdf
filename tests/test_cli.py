import csv
import dataclasses
import filecmp
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from snmtf import cli, data, runner
from snmtf.model import METHODS, STOP_REASONS, SolverConfig, SolverDivergedError


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def make_bundle_dir(tmp_path, name, n=24, K=3, seed=0):
    out = tmp_path / name
    rc = run_cli("generate", "--n", n, "--K", K, "--seed", seed, "--out", out)
    assert rc == 0
    return out


def set_manifest_key(bundle_dir, key, value):
    path = bundle_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = value
    path.write_text(json.dumps(manifest))


def assert_no_factor_files(out):
    """Neither the .npy factor pair nor the older text layout was written."""
    for name in ("G.npy", "S.npy", "G.txt", "S_1.txt"):
        assert not (out / name).exists()


def read_rows_without_timing(path):
    with open(path, newline="") as fh:
        return [dict(row, seconds="") for row in csv.DictReader(fh)]


def read_trace_without_timing(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [row[:3] for row in rows]


class TestGenerate:
    def test_writes_bundle_directory(self, tmp_path):
        out = make_bundle_dir(tmp_path, "b0", n=30, K=3)
        names = sorted(p.name for p in out.iterdir())
        assert "manifest.json" in names
        assert sum(name.startswith("R_") for name in names) == 5
        bundle = data.load_bundle(out)
        assert bundle.n == 30

    def test_same_seed_identical_directories(self, tmp_path):
        a = make_bundle_dir(tmp_path, "a", seed=9)
        b = make_bundle_dir(tmp_path, "b", seed=9)
        for name in ("manifest.json", "R_1.npy", "R_5.npy"):
            if name == "manifest.json":
                am = json.loads((a / name).read_text())
                bm = json.loads((b / name).read_text())
                am.pop("label"), bm.pop("label")
                assert am == bm
            else:
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_k_larger_than_n_fails(self, tmp_path):
        rc = run_cli("generate", "--n", 10, "--K", 200, "--out", tmp_path / "bad")
        assert rc == cli.EXIT_VALIDATION

    def test_negative_n_blocks_is_validation_error(self, tmp_path, capsys):
        rc = run_cli("generate", "--n", 20, "--K", 3, "--N", -1, "--out", tmp_path / "bad")
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: N must be a positive integer, got -1\n"


class TestSolve:
    def test_planted_adam_reaches_threshold(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=30, K=3)
        out = tmp_path / "run"
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "adam", "--k", 3, "--out", out)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_mse"] <= 0.01
        assert summary["stop_reason"] in ("mse_threshold", "delta_threshold")

    def test_exact_start_stops_in_two_iterations(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "run"
        rc = run_cli(
            "solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 2,
            "--start-from", bundle_dir / "planted", "--out", out,
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "delta_threshold"
        assert summary["iterations"] <= 2

    def test_committed_text_factors_start_a_run(self, tmp_path):
        # Outputs of older versions hold G.txt, S_1.txt ...; they still chain.
        golden = Path(__file__).parent / "data" / "golden_bundle"
        assert sorted(p.name for p in (golden / "planted").iterdir()) == [
            "G.txt", "S_1.txt", "S_2.txt"]
        out = tmp_path / "run"
        rc = run_cli("solve", "--bundle", golden, "--method", "fpm", "--k", 3,
                     "--start-from", golden / "planted", "--out", out)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "delta_threshold"
        assert summary["iterations"] <= 2
        assert data.load_factors(out).S.shape == (2, 3, 3)

    def test_bcd_keeps_the_planted_fit(self, tmp_path):
        # bcd starts from the start's S as well as its G; refitting S from
        # constants instead ended this run at MSE 1.9e-3.
        golden = Path(__file__).parent / "data" / "golden_bundle"
        out = tmp_path / "run"
        rc = run_cli("solve", "--bundle", golden, "--method", "bcd", "--k", 3,
                     "--start-from", golden / "planted", "--out", out)
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["final_mse"] < 1e-6

    @pytest.mark.parametrize("damage", ["missing", "2-D"])
    def test_bad_s_npy_is_validation_error(self, tmp_path, capsys, damage):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        start = bundle_dir / "planted"
        if damage == "missing":
            (start / "S.npy").unlink()
            expected = "matrix file not found"
        else:
            np.save(start / "S.npy", np.load(start / "S.npy")[0])
            expected = "expected shape (N, k, k), got (2, 2)"
        out = tmp_path / "run"
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 2,
                     "--start-from", start, "--out", out)
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{start / 'S.npy'}: {expected}" in err
        assert not out.exists()

    @pytest.mark.parametrize("alpha, cause", [
        # A step size of 1e200 overflows the adam iterates within a few steps.
        pytest.param(1e200, "non-finite", id="overflow"),
        # 1e6 keeps the iterates finite while the MSE runs away past 1e26.
        pytest.param(1e6, "exceeds", id="runaway"),
    ])
    def test_divergence_exit_code(self, tmp_path, capsys, alpha, cause):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(
                "solve", "--bundle", bundle_dir, "--method", "adam", "--k", 2,
                "--adam-alpha", alpha, "--out", out,
            )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert rc == cli.EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("diverged: ") and cause in err
        assert err.count("\n") == 1
        assert_no_factor_files(out)

    def test_negative_start_is_validation_error(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        fact = data.load_factors(bundle_dir / "planted")
        fact.G[0, 0] = -0.5
        start = tmp_path / "start"
        data.save_factors(fact, start)
        rc = run_cli(
            "solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 2,
            "--start-from", start, "--out", tmp_path / "run",
        )
        assert rc == cli.EXIT_VALIDATION
        assert_no_factor_files(tmp_path / "run")

    @pytest.mark.parametrize("method", ["gmels", "adam"])
    def test_asymmetric_start_is_validation_error(self, tmp_path, capsys, method):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=3)
        fact = data.load_factors(bundle_dir / "planted")
        fact.S[0, 0, 1] += 0.17
        start = tmp_path / "start"
        data.save_factors(fact, start)
        rc = run_cli(
            "solve", "--bundle", bundle_dir, "--method", method, "--k", 3,
            "--start-from", start, "--out", tmp_path / "run",
        )
        assert rc == cli.EXIT_VALIDATION
        assert "start S_1 is not symmetric" in capsys.readouterr().err
        assert_no_factor_files(tmp_path / "run")

    def test_bcd_output_is_symmetric_and_chains(self, tmp_path):
        # Unsymmetrized, bcd's S_3 on this bundle drifted to
        # max|S - S^T| = 2.1e-10 after 125 iterations, past the 1e-10
        # relative tolerance a --start-from input is held to.
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=3)
        out = tmp_path / "run"
        rc = run_cli(
            "solve", "--bundle", bundle_dir, "--method", "bcd", "--k", 3,
            "--max-iters", 300, "--mse-stop", 0, "--out", out,
        )
        assert rc == 0
        fact = data.load_factors(out)
        for s in fact.S:
            assert (s == s.T).all()
        for method in ("fpm", "bcd", "gmels", "adam"):
            rc = run_cli(
                "solve", "--bundle", bundle_dir, "--method", method, "--k", 3,
                "--max-iters", 3, "--start-from", out, "--out", tmp_path / f"chained-{method}",
            )
            assert rc == 0

    def test_gmels_output_chains_into_fpm(self, tmp_path):
        # gmels used to let S_i drift from symmetry (max |S - S^T| = 1.5e-9
        # here), so its output failed the --start-from check it must pass.
        bundle_dir = tmp_path / "b"
        assert run_cli("generate", "--n", 60, "--K", 8, "--N", 3, "--seed", 1,
                       "--out", bundle_dir) == 0
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "gmels", "--k", 7,
                     "--init", "random", "--mse-stop", 0, "--max-iters", 500,
                     "--out", tmp_path / "r")
        assert rc == 0
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 7,
                     "--start-from", tmp_path / "r", "--out", tmp_path / "r2")
        assert rc == 0

    def test_broken_result_exits_5_and_writes_nothing(self, tmp_path, capsys,
                                                       asymmetric_fpm_result):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "run"
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 2,
                     "--max-iters", 3, "--out", out)
        assert rc == cli.EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("diverged: fpm result S_2 is not symmetric")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_k_above_n_is_validation_error(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=3)
        out = tmp_path / "run"
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 50, "--out", out)
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k must be in [1, 20], got 50" in err
        assert err.count("\n") == 1
        assert_no_factor_files(out)

    @pytest.mark.parametrize("method", METHODS)
    def test_defaults_come_from_solver_config(self, tmp_path, method):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "run"
        assert run_cli("solve", "--bundle", bundle_dir, "--method", method, "--k", 2,
                       "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"] == dataclasses.asdict(SolverConfig(method=method, k=2))

    def test_every_solver_flag_reaches_the_config(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "run"
        rc = run_cli(
            "solve", "--bundle", bundle_dir, "--method", "adam", "--k", 2, "--out", out,
            "--seed", 5, "--max-iters", 7, "--mse-stop", 0, "--delta-stop", 0,
            "--adam-alpha", 0.001, "--adam-beta1", 0.9, "--adam-beta2", 0.99,
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        expected = SolverConfig(
            method="adam", k=2, seed=5, max_iterations=7, mse_stop=0.0, delta_stop=0.0,
            adam_alpha=0.001, adam_beta1=0.9, adam_beta2=0.99,
        )
        assert summary["config"] == dataclasses.asdict(expected)
        assert summary["iterations"] == 7

    @pytest.mark.parametrize("argv", [
        ("--bcd-inner", 3), ("--adam-eps", 1e-7), ("--standard-bias-correction",),
    ], ids=["bcd-inner", "adam-eps", "standard-bias-correction"])
    def test_removed_solver_flag_is_usage_error(self, tmp_path, argv):
        # bcd's inner step count and adam's eps and schedule are fixed
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as err:
            run_cli("solve", "--bundle", bundle_dir, "--method", "adam", "--k", 2,
                    "--out", out, *argv)
        assert err.value.code == cli.EXIT_USAGE
        assert not out.exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run_cli("solve", "--method", "warp")
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--adam-beta1", 1.5), ("--k", 0), ("--mse-stop", -1),
        ("--adam-eps", -1), ("--adam-eps", 0),
    ])
    def test_out_of_range_knob_is_usage_error(self, tmp_path, flag, value):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        argv = ["solve", "--bundle", bundle_dir, "--method", "adam", "--k", 2,
                "--out", tmp_path / "run", flag, value]
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == cli.EXIT_USAGE

    def test_non_integer_manifest_count_is_validation_error(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        set_manifest_key(bundle_dir, "n", "x")
        rc = run_cli(
            "solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 2,
            "--out", tmp_path / "run",
        )
        assert rc == cli.EXIT_VALIDATION
        assert "manifest n must be a positive integer, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        pytest.param(5, id="number"),
        pytest.param("R_1.mtx.txt", id="string"),
        pytest.param(["R_1.mtx.txt"], id="too-short"),
        pytest.param([1, 2, 3, 4, 5], id="not-names"),
    ])
    def test_malformed_manifest_matrices_is_validation_error(self, tmp_path, capsys, value):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        set_manifest_key(bundle_dir, "matrices", value)
        rc = run_cli(
            "solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 2,
            "--out", tmp_path / "run",
        )
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "manifest matrices must be a list of N = 5 file names" in err

    @pytest.mark.parametrize("escape", ["parent", "absolute"])
    def test_matrix_name_outside_the_bundle_is_validation_error(self, tmp_path, capsys, escape):
        # Each name would load a valid matrix of another bundle.
        other = make_bundle_dir(tmp_path, "other", n=20, K=2)
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        bad = {"parent": "../other/R_1.npy", "absolute": str(other / "R_1.npy")}[escape]
        set_manifest_key(bundle_dir, "matrices", [bad, "R_2.npy", "R_3.npy", "R_4.npy", "R_5.npy"])
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 2,
                     "--out", tmp_path / "run")
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (f"error: {bundle_dir / 'manifest.json'}: manifest matrices entry {bad!r} "
                       "may not be an absolute path or hold a '..' component\n")
        assert not (tmp_path / "run").exists()

    def test_unreadable_matrix_file_is_validation_error(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        (bundle_dir / "R_1.npy").unlink()
        (bundle_dir / "R_1.npy").mkdir()
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 3,
                     "--out", tmp_path / "run")
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "R_1.npy: cannot read matrix file" in err

    def test_complex_matrix_market_is_validation_error(self, tmp_path, capsys):
        # Casting to float used to drop the imaginary parts with only a warning.
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        r = np.load(bundle_dir / "R_1.npy")
        with open(bundle_dir / "R_1.mtx", "w") as fh:
            fh.write("%%MatrixMarket matrix array complex general\n20 20\n")
            fh.writelines(f"{v:.17g} 1\n" for v in r.T.ravel())
        set_manifest_key(bundle_dir, "matrices",
                         ["R_1.mtx", "R_2.npy", "R_3.npy", "R_4.npy", "R_5.npy"])
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 2,
                     "--out", tmp_path / "run")
        assert rc == cli.EXIT_VALIDATION
        assert "R_1.mtx: matrix must hold real numbers, got dtype complex128" in (
            capsys.readouterr().err)

    def test_missing_bundle_is_validation_error(self, tmp_path):
        rc = run_cli(
            "solve", "--bundle", tmp_path / "nope", "--method", "fpm", "--k", 2,
            "--out", tmp_path / "run",
        )
        assert rc == cli.EXIT_VALIDATION


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    for seed, K in ((0, 2), (1, 3)):
        out = root / f"b{K}"
        assert run_cli("generate", "--n", 20, "--K", K, "--seed", seed, "--out", out) == 0
    return root


class TestBenchmark:
    def test_row_count_and_aggregate(self, suite, tmp_path):
        out = tmp_path / "res"
        rc = run_cli(
            "benchmark", "--suite", suite, "--methods", "fpm,bcd",
            "--ratios", "50,100", "--max-iters", 40, "--out", out, "--no-save-runs",
        )
        assert rc == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 2 bundles x 2 methods x 2 ratios
        assert len(rows) == 8
        assert {row["method"] for row in rows} == {"fpm", "bcd"}
        with open(out / "aggregate.csv") as fh:
            agg = list(csv.DictReader(fh))
        # one n, 2 ratios, 2 methods
        assert len(agg) == 4
        for row in agg:
            assert int(row["runs"]) == 2
        with open(out / "winners.csv") as fh:
            winners = list(csv.DictReader(fh))
        # 50% and 100% of K = 2 are k = 1, 2; of K = 3 they are k = 2, 3
        assert [(row["K"], row["k"]) for row in winners] == [("2", "1"), ("2", "2"),
                                                              ("3", "2"), ("3", "3")]
        for row in winners:
            assert row["winner"] in ("fpm", "bcd") and row["status"] == "ok"
            assert row["missing"] == "" and float(row["best_mse"]) == min(
                float(r["final_mse"]) for r in rows if (r["K"], r["k"]) == (row["K"], row["k"]))

    def test_failed_row_keeps_error_message(self, suite, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise SolverDivergedError("objective became non-finite (inf) at iteration 3")

        monkeypatch.setattr(runner, "run", diverge)
        out = tmp_path / "res"
        rc = run_cli(
            "benchmark", "--suite", suite, "--methods", "adam",
            "--ratios", "100", "--out", out, "--no-save-runs",
        )
        assert rc == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row["final_mse"] == ""
            assert row["stop_reason"] == (
                "error: SolverDivergedError: objective became non-finite (inf) at iteration 3"
            )

    def test_broken_result_row_records_error_and_sweep_continues(
            self, suite, tmp_path, asymmetric_fpm_result):
        out = tmp_path / "res"
        rc = run_cli(
            "benchmark", "--suite", suite, "--methods", "fpm,bcd", "--ratios", "100",
            "--max-iters", 3, "--out", out, "--no-save-runs",
        )
        assert rc == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            if row["method"] == "fpm":
                assert row["final_mse"] == ""
                assert row["stop_reason"].startswith(
                    "error: SolverDivergedError: fpm result S_2 is not symmetric")
            else:
                assert row["final_mse"] != "" and row["stop_reason"] in STOP_REASONS

    @pytest.mark.parametrize("command", ["benchmark", "tune"])
    @pytest.mark.parametrize("target", ["missing", "file"])
    def test_suite_not_a_directory_is_validation_error(self, tmp_path, capsys, command, target):
        suite_path = tmp_path / "suite"
        if target == "file":
            suite_path.write_text("not a directory\n")
        rc = run_cli(command, "--suite", suite_path, "--out", tmp_path / "out")
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {suite_path}: suite is not a directory\n"

    @pytest.mark.parametrize("command", ["benchmark", "tune"])
    def test_suite_without_bundles_is_validation_error(self, tmp_path, capsys, command):
        suite_path = tmp_path / "suite"
        (suite_path / "not_a_bundle").mkdir(parents=True)
        rc = run_cli(command, "--suite", suite_path, "--out", tmp_path / "out")
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {suite_path}: no bundle directories found\n"

    @pytest.mark.parametrize("command", [
        ("benchmark", "--methods", "fpm", "--ratios", "100", "--out", "res"),
        ("tune", "--point", "0.01,0.9,0.99", "--runs", 1, "--out", "res/tune.csv"),
    ], ids=["benchmark", "tune"])
    def test_missing_planted_k_is_validation_error(self, tmp_path, capsys, monkeypatch, command):
        # tune falls back on the planted K only when no --k is given.
        bundle_dir = make_bundle_dir(tmp_path, "b", n=12, K=2)
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        del manifest["planted_K"]
        (bundle_dir / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        rc = run_cli(command[0], "--suite", bundle_dir, "--max-iters", 5, *command[1:])
        assert rc == cli.EXIT_VALIDATION
        message = {
            "benchmark": "manifest has no planted_K; the sweep needs it to place the k grid",
            "tune": "no planted_K in manifest and no --k given",
        }[command[0]]
        assert capsys.readouterr().err == f"error: {bundle_dir}: {message}\n"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", [
        ("benchmark", "--methods", "fpm", "--ratios", "100", "--out", "res"),
        ("tune", "--point", "0.01,0.9,0.99", "--runs", 1, "--out", "res/tune.csv"),
    ], ids=["benchmark", "tune"])
    def test_shared_label_exits_3_before_loading(self, tmp_path, capsys, monkeypatch, command):
        # Both bundles are labelled synthetic-n30-K3-N2-seed1, so benchmark's
        # rows and runs/ directories, and tune's mean_mse_<label> columns,
        # would collide.
        suite_dir = tmp_path / "suite"
        for density in ("0.3", "0.9"):
            assert run_cli("generate", "--n", 30, "--K", 3, "--N", 2, "--seed", 1,
                           "--density", density, "--out", suite_dir / f"d{density}") == 0
        loaded = []
        monkeypatch.setattr(data, "load_bundle", lambda *args, **kwargs: loaded.append(args))
        monkeypatch.chdir(tmp_path)
        rc = run_cli(command[0], "--suite", suite_dir, "--max-iters", 5, *command[1:])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{suite_dir / 'd0.3'} and {suite_dir / 'd0.9'} share the bundle label" in err
        assert "'synthetic-n30-K3-N2-seed1'" in err
        assert loaded == [] and not (tmp_path / "res").exists()

    def test_ratios_that_round_to_one_k_compare_cleanly(self, tmp_path):
        # With planted K = 2 the default ratios 20..120% give k = 1 three
        # times and k = 2 three times; compare must accept that output.
        bundle_dir = make_bundle_dir(tmp_path, "b", n=12, K=2)
        out = tmp_path / "res"
        assert run_cli("benchmark", "--suite", bundle_dir, "--methods", "fpm,bcd",
                       "--max-iters", 5, "--out", out) == 0
        rows = read_rows_without_timing(out / "results.csv")
        assert sorted((row["method"], row["k"]) for row in rows) == sorted(
            (method, k) for method in ("fpm", "bcd") for k in "111222")
        winners = tmp_path / "winners.csv"
        assert run_cli("compare", "--results", out / "results.csv", "--out", winners) == 0
        with open(winners, newline="") as fh:
            assert [(row["k"], row["status"]) for row in csv.DictReader(fh)] == [
                ("1", "ok"), ("2", "ok")]
        assert (out / "winners.csv").read_bytes() == winners.read_bytes()

    def test_ratios_that_round_to_one_k_share_one_run(self, tmp_path, monkeypatch):
        # The default ratios on planted K = 2 give 12 rows from 4 runs: each
        # (method, k) is solved once and gives every ratio its row.
        calls = []
        real_run = runner.run

        def counting_run(bundle, config, *args, **kwargs):
            calls.append((config.method, config.k))
            return real_run(bundle, config, *args, **kwargs)

        monkeypatch.setattr(runner, "run", counting_run)
        bundle_dir = make_bundle_dir(tmp_path, "b", n=12, K=2)
        out = tmp_path / "res"
        assert run_cli("benchmark", "--suite", bundle_dir, "--methods", "fpm,bcd",
                       "--max-iters", 5, "--out", out) == 0
        assert sorted(calls) == [("bcd", 1), ("bcd", 2), ("fpm", 1), ("fpm", 2)]
        rows = read_rows_without_timing(out / "results.csv")
        assert [(row["method"], row["k"], row["k_over_K_pct"]) for row in rows] == [
            (method, k, pct) for method in ("bcd", "fpm")
            for k, pct in (("1", "20"), ("1", "40"), ("1", "60"),
                           ("2", "80"), ("2", "100"), ("2", "120"))]
        for group in (rows[0:3], rows[3:6], rows[6:9], rows[9:12]):
            assert len({(row["final_mse"], row["iterations"]) for row in group}) == 1
        assert len(list((out / "runs").iterdir())) == 4

    def test_deterministic_modulo_timing(self, suite, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = run_cli(
                "benchmark", "--suite", suite, "--methods", "fpm",
                "--ratios", "100", "--max-iters", 30, "--out", out,
            )
            assert rc == 0
        assert read_rows_without_timing(out_a / "results.csv") == read_rows_without_timing(
            out_b / "results.csv")
        assert filecmp.cmp(out_a / "winners.csv", out_b / "winners.csv", shallow=False)
        runs_a = sorted((out_a / "runs").iterdir())
        runs_b = sorted((out_b / "runs").iterdir())
        assert len(runs_a) == len(runs_b) == 2
        for da, db in zip(runs_a, runs_b):
            for fname in ("G.npy", "S.npy"):
                assert filecmp.cmp(da / fname, db / fname, shallow=False)
            assert read_trace_without_timing(da / "trace.csv") == read_trace_without_timing(db / "trace.csv")


    def test_loads_each_bundle_once(self, suite, tmp_path, monkeypatch):
        loaded = []
        real_load = data.load_bundle

        def counting_load(path, *args, **kwargs):
            loaded.append(path.name)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(data, "load_bundle", counting_load)
        rc = run_cli(
            "benchmark", "--suite", suite, "--methods", "fpm,bcd", "--ratios", "50,100",
            "--max-iters", 5, "--jobs", 1, "--out", tmp_path / "res", "--no-save-runs",
        )
        assert rc == 0
        assert sorted(loaded) == ["b2", "b3"]
        assert len(read_rows_without_timing(tmp_path / "res" / "results.csv")) == 8

    def test_one_eigendecomposition_per_bundle(self, suite, tmp_path, monkeypatch):
        # The spectral start's eigh is taken once per bundle object and then
        # serves every run and sweep row on it, whatever the method and k.
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        bundle = data.load_bundle(suite / "b3")
        runner.run(bundle, SolverConfig(method="fpm", k=3, max_iterations=5))
        runner.run(bundle, SolverConfig(method="gmels", k=2, max_iterations=5))
        assert len(calls) == 1
        out = tmp_path / "res"
        rc = run_cli(
            "benchmark", "--suite", suite / "b3", "--methods", "fpm,adam", "--ratios", "50,100",
            "--max-iters", 5, "--jobs", 1, "--out", out, "--no-save-runs",
        )
        assert rc == 0
        assert len(read_rows_without_timing(out / "results.csv")) == 4
        assert len(calls) == 2

    # The benchmark harness passes --jobs 1, the one value the flag takes.
    @pytest.mark.parametrize("jobs", [1])
    def test_malformed_bundle_in_suite_exits_3(self, suite, tmp_path, jobs, capsys):
        npy = (suite / "b3" / "R_2.npy").read_bytes()
        header_only = npy[: len(npy) - 20 * 20 * 8]
        cases = [
            ("R_2.txt", b"20 20\n1 2 banana\n", "R_2.txt: malformed matrix body"),
            ("R_2.npy", npy[:-8], "R_2.npy: malformed .npy file"),
            ("R_2.npy", header_only, "R_2.npy: malformed .npy file"),
        ]
        for case, (name, content, message) in enumerate(cases):
            root = tmp_path / f"suite{case}"
            shutil.copytree(suite, root)
            (root / "b3" / name).write_bytes(content)
            set_manifest_key(root / "b3", "matrices",
                             ["R_1.npy", name, "R_3.npy", "R_4.npy", "R_5.npy"])
            rc = run_cli(
                "benchmark", "--suite", root, "--methods", "fpm,bcd", "--ratios", "100",
                "--max-iters", 5, "--jobs", jobs, "--out", tmp_path / f"res{case}",
                "--no-save-runs",
            )
            assert rc == cli.EXIT_VALIDATION
            assert message in capsys.readouterr().err

    def test_non_integer_planted_k_is_validation_error(self, suite, tmp_path):
        root = tmp_path / "suite"
        shutil.copytree(suite, root)
        set_manifest_key(root / "b3", "planted_K", "x")
        rc = run_cli("benchmark", "--suite", root, "--ratios", "100", "--out", tmp_path / "res")
        assert rc == cli.EXIT_VALIDATION
        rc = run_cli("tune", "--suite", root / "b3", "--trials", 1, "--out", tmp_path / "t.csv")
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("flag,value", [
        ("--ratios", "x"), ("--ratios", "50,,100"), ("--ratios", "0"), ("--ratios", "100,100"),
        ("--methods", "fpm,warp"),
        ("--methods", ","), ("--methods", ""), ("--methods", "fpm,,bcd"), ("--methods", "fpm,fpm"),
        ("--max-iters", 0), ("--jobs", 0), ("--jobs", -3), ("--jobs", 2),
    ])
    def test_bad_sweep_argument_is_usage_error(self, suite, tmp_path, flag, value):
        with pytest.raises(SystemExit) as err:
            run_cli("benchmark", "--suite", suite, flag, value, "--out", tmp_path / "res")
        assert err.value.code == cli.EXIT_USAGE
        assert not (tmp_path / "res" / "results.csv").exists()


@pytest.mark.parametrize("command", ["generate", "solve", "benchmark", "compare", "tune",
                                     "tune-into-dir"])
def test_unwritable_out_exits_3(tmp_path, capsys, monkeypatch, command):
    # An --out that exists as the wrong kind, or lies under a file, is
    # refused before any bundle loads.
    bundle_dir = make_bundle_dir(tmp_path, "b", n=12, K=2)
    results = tmp_path / "results.csv"
    results.write_text("bundle,method,n,K,k,final_mse\nb,fpm,12,2,2,0.5\n")
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    adir = tmp_path / "adir"
    adir.mkdir()
    tune = ("--suite", bundle_dir, "--trials", 1, "--runs", 1, "--max-iters", 5, "--out")
    argv = {
        "generate": ("--n", 12, "--K", 2, "--out", afile),
        "solve": ("--bundle", bundle_dir, "--method", "fpm", "--k", 2, "--out", afile),
        "benchmark": ("--suite", bundle_dir, "--methods", "fpm", "--ratios", 100, "--out", afile),
        "compare": ("--results", results, "--out", afile / "winners.csv"),
        "tune": (*tune, afile / "tune.csv"),
        "tune-into-dir": (*tune, adir),
    }[command]
    real_load = data.load_bundle
    loaded = []
    monkeypatch.setattr(data, "load_bundle",
                        lambda *args, **kwargs: loaded.append(args) or real_load(*args, **kwargs))
    capsys.readouterr()
    rc = run_cli(command.split("-")[0], *argv)
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {adir if command == 'tune-into-dir' else afile}: ")
    assert err.count("\n") == 1
    assert loaded == []
    assert afile.read_text() == "not a directory\n" and list(adir.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "benchmark", "tune"])
def test_empty_label_exits_3_before_loading(tmp_path, capsys, monkeypatch, command):
    # compare refuses a results row with an empty bundle cell, so no sweep
    # may write one.
    bundle_dir = make_bundle_dir(tmp_path, "b", n=12, K=2)
    set_manifest_key(bundle_dir, "label", "")
    loaded = []
    monkeypatch.setattr(data, "load_matrix", lambda *args: loaded.append(args))
    out = tmp_path / "out"
    argv = {
        "solve": ("--bundle", bundle_dir, "--method", "fpm", "--k", 2, "--out", out),
        "benchmark": ("--suite", bundle_dir, "--methods", "fpm", "--ratios", 100, "--out", out),
        "tune": ("--suite", bundle_dir, "--trials", 1, "--runs", 1, "--max-iters", 5,
                 "--out", out / "tune.csv"),
    }[command]
    rc = run_cli(command, *argv)
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {bundle_dir / 'manifest.json'}: manifest label '' may not be '.' or '..' "
        "or hold a path separator, or be empty\n")
    assert loaded == [] and not out.exists()


@pytest.mark.parametrize("command", ["generate", "solve", "benchmark", "tune"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    bundle_dir = make_bundle_dir(tmp_path, "b", n=12, K=2)
    out = tmp_path / "out"
    argv = {
        "generate": ("--n", 12, "--K", 2),
        "solve": ("--bundle", bundle_dir, "--method", "fpm", "--k", 2),
        "benchmark": ("--suite", bundle_dir, "--methods", "fpm", "--ratios", 100),
        "tune": ("--suite", bundle_dir, "--trials", 1, "--runs", 1, "--max-iters", 5),
    }[command]
    with pytest.raises(SystemExit) as err:
        run_cli(command, *argv, "--seed", -1, "--out", out)
    assert err.value.code == cli.EXIT_USAGE
    assert "non-negative" in capsys.readouterr().err
    assert not out.exists()


class TestCompare:
    def _write_results(self, path, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cli.RESULT_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)

    def _row(self, method, mse, bundle="b", k="2", n="10"):
        return {
            "bundle": bundle, "method": method, "n": n, "K": "2", "k": k,
            "k_over_K_pct": "100", "final_mse": mse, "iterations": "5",
            "seconds": "0.1", "stop_reason": "max_iterations",
        }

    def test_missing_results_file_is_validation_error(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        rc = run_cli("compare", "--results", results, "--out", tmp_path / "winners.csv")
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {results}: cannot read results file")
        assert err.count("\n") == 1

    def test_results_without_required_columns_is_validation_error(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("bundle,method,n,k\nb,fpm,10,2\n")
        out = tmp_path / "winners.csv"
        rc = run_cli("compare", "--results", results, "--out", out)
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {results}: results file lacks columns K, final_mse\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
    def test_non_finite_mse_is_validation_error(self, tmp_path, capsys, bad):
        # the bad cell comes first, so a nan would also be the group's min
        results = tmp_path / "results.csv"
        self._write_results(results, [self._row("adam", bad), self._row("fpm", "0.3")])
        out = tmp_path / "winners.csv"
        rc = run_cli("compare", "--results", results, "--out", out)
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {results}: row 1: final_mse {bad!r} is not a finite number\n")
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (b"b,fpm,10,2,2\n", "row 1: has fewer fields than the header"),
        (b"b,fpm,10,2,2,0.5\nb,adam,10,2,2,0.4,x\n", "row 2: has more fields than the header"),
        (b"b,fpm,10,2,2,0.5\nb,\xff,10,2,2,0.4\n", "row 2: not UTF-8 text"),
        (b"b,fpm,10,2,2,0.5\n\xff", "row 2: not UTF-8 text"),
        (b"b,fpm,abc,2,x,0.5\n", "row 1: n 'abc' is not an integer"),
        (b"b,fpm,10,2,2,0.5\nb,adam,10,2.5,2,0.4\n", "row 2: K '2.5' is not an integer"),
        (b"b,fpm,10,2,,0.5\n", "row 1: k '' is not an integer"),
        (b"b,fpm,10,2,-3,0.5\n", "row 1: k '-3' is below 1"),
        (b"b,fpm,0,0,0,0.4\n", "row 1: n '0' is below 1"),
        (b"b,fpm,10,2,2,-0.5\nb,adam,10,2,2,0.4\n", "row 1: final_mse '-0.5' is negative"),
        (b"b,,10,2,2,0.1\nb,adam,10,2,2,0.4\n", "row 1: empty method"),
        (b",fpm,10,2,2,0.5\n", "row 1: empty bundle"),
        (b"b,fpm,10,2,2,0.5\nb,fpm,10,2,30,0.5\n", "row 2: k '30' exceeds n '10'"),
        (b"", "empty results file"),
    ], ids=["short", "long", "not-utf8", "not-utf8-last-line", "n-not-integer",
            "K-not-integer", "k-empty", "k-negative", "n-K-k-zero", "mse-negative",
            "method-empty", "bundle-empty", "k-above-n", "header-only"])
    def test_malformed_row_is_validation_error(self, tmp_path, capsys, content, message):
        results = tmp_path / "results.csv"
        results.write_bytes(b"bundle,method,n,K,k,final_mse\n" + content)
        out = tmp_path / "winners.csv"
        rc = run_cli("compare", "--results", results, "--out", out)
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {results}: {message}\n"
        assert not out.exists()

    def test_groups_sort_by_number(self, tmp_path):
        # A default-ratio sweep at K = 10 writes k = 2, 4, ..., 12.
        results = tmp_path / "results.csv"
        self._write_results(results, [self._row("fpm", "0.3", k=k, n="20")
                                      for k in ("10", "12", "2", "4")])
        out = tmp_path / "winners.csv"
        assert run_cli("compare", "--results", results, "--out", out) == 0
        with open(out) as fh:
            assert [row["k"] for row in csv.DictReader(fh)] == ["2", "4", "10", "12"]

    def test_duplicate_run_is_validation_error(self, tmp_path, capsys):
        # A later row used to overwrite the earlier one's MSE without a word.
        results = tmp_path / "results.csv"
        self._write_results(results, [self._row("fpm", "2.27e-05"), self._row("adam", "0.2"),
                                      self._row("fpm", "0.138")])
        out = tmp_path / "winners.csv"
        rc = run_cli("compare", "--results", results, "--out", out)
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {results}: rows 1 and 3 both hold method 'fpm' on bundle 'b' "
            "at n=10, K=2, k=2\n")
        assert not out.exists()

    @pytest.mark.parametrize("init", ["deterministic", "random"])
    def test_sweep_error_row_above_n_is_accepted(self, tmp_path, capsys, init):
        # 120% of K = n = 5 is k = 6: the sweep records that run as an error
        # with no final_mse, whatever the start, so compare must still take
        # the sweep's output.
        bundle_dir = make_bundle_dir(tmp_path, "b", n=5, K=5)
        res = tmp_path / "res"
        assert run_cli("benchmark", "--suite", bundle_dir, "--methods", "fpm", "--init", init,
                       "--ratios", "100,120", "--max-iters", 3, "--out", res) == 0
        out = tmp_path / "winners.csv"
        assert run_cli("compare", "--results", res / "results.csv", "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["k"], row["status"]) for row in rows] == [("5", "ok"), ("6", "incomplete")]
        assert (res / "winners.csv").read_bytes() == out.read_bytes()

    def test_creates_parent_of_out(self, tmp_path):
        results = tmp_path / "results.csv"
        self._write_results(results, [self._row("fpm", "0.3")])
        out = tmp_path / "missing" / "dir" / "winners.csv"
        assert run_cli("compare", "--results", results, "--out", out) == 0
        assert out.is_file()

    def test_tie_broken_lexicographically(self, tmp_path):
        results = tmp_path / "results.csv"
        self._write_results(results, [
            self._row("fpm", "0.3"), self._row("gmels", "0.2"),
            self._row("adam", "0.2"), self._row("bcd", "0.4"),
        ])
        out = tmp_path / "winners.csv"
        assert run_cli("compare", "--results", results, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["winner"] == "adam"  # lexicographically first of the 0.2 pair
        assert rows[0]["tie"] == "1"
        assert rows[0]["status"] == "ok"

    def test_single_method_wins_everywhere(self, tmp_path):
        results = tmp_path / "results.csv"
        self._write_results(results, [
            self._row("fpm", "0.3", k="2"), self._row("fpm", "0.1", k="3"),
        ])
        out = tmp_path / "winners.csv"
        assert run_cli("compare", "--results", results, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["winner"] == "fpm" and row["status"] == "ok" for row in rows)

    def test_missing_method_marks_incomplete(self, tmp_path):
        results = tmp_path / "results.csv"
        self._write_results(results, [
            self._row("fpm", "0.3", k="2"), self._row("bcd", "0.2", k="2"),
            self._row("fpm", "0.4", k="3"),  # bcd row missing for k=3
        ])
        out = tmp_path / "winners.csv"
        assert run_cli("compare", "--results", results, "--out", out) == 0
        with open(out) as fh:
            rows = {row["k"]: row for row in csv.DictReader(fh)}
        assert rows["2"]["status"] == "ok"
        assert rows["3"]["status"] == "incomplete"
        assert rows["3"]["missing"] == "bcd"
        assert rows["3"]["winner"] == "fpm"


class TestTune:
    def test_fixed_point_csv(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "tune.csv"
        rc = run_cli(
            "tune", "--suite", bundle_dir, "--trials", 1, "--runs", 2,
            "--point", "0.002,0.95,0.995", "--max-iters", 300, "--out", out,
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["alpha"]) == 0.002
        assert "score" in rows[0]

    def test_creates_parent_of_out(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=12, K=2)
        out = tmp_path / "missing" / "dir" / "tune.csv"
        rc = run_cli("tune", "--suite", bundle_dir, "--trials", 1, "--runs", 1,
                     "--max-iters", 5, "--out", out)
        assert rc == 0
        assert out.is_file()

    def test_runaway_point_scores_inf_and_ranks_last(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "tune.csv"
        rc = run_cli(
            "tune", "--suite", bundle_dir, "--runs", 1, "--max-iters", 50,
            "--point", "1e6,0.5,0.5", "--point", "0.002,0.95,0.995", "--out", out,
        )
        assert rc == 0
        with open(out) as fh:
            scores = [float(row["score"]) for row in csv.DictReader(fh)]
        assert scores[0] == float("inf") and scores[1] < float("inf")
        assert "best: alpha=0.002 " in capsys.readouterr().out

    def test_all_points_diverging_exits_diverged(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=3, seed=1)
        out = tmp_path / "tune.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli("tune", "--suite", bundle_dir, "--point", "1e200,0.5,0.5",
                         "--max-iters", 50, "--runs", 1, "--out", out)
        assert rc == cli.EXIT_DIVERGED
        with open(out) as fh:
            assert [row["score"] for row in csv.DictReader(fh)] == ["inf"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("diverged: ") and captured.err.count("\n") == 1

    def test_k_above_n_refused_before_any_load(self, tmp_path, capsys, monkeypatch):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=5, K=2)
        out = tmp_path / "tune.csv"

        def no_load(path):
            raise AssertionError(f"{path} was loaded")

        monkeypatch.setattr(cli.data, "load_bundle", no_load)
        capsys.readouterr()
        rc = run_cli("tune", "--suite", bundle_dir, "--k", 8, "--trials", 1, "--runs", 1,
                     "--max-iters", 5, "--out", out)
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {bundle_dir}: k must be in [1, 5], got 8\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--point", "0.1,1.5,0.9"), ("--point", "x"), ("--point", "0.1,0.5"), ("--k", 0),
        ("--trials", 0), ("--runs", 0), ("--max-iters", 0),
    ])
    def test_bad_tune_argument_is_usage_error(self, tmp_path, flag, value):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=12, K=2)
        out = tmp_path / "tune.csv"
        with pytest.raises(SystemExit) as err:
            run_cli("tune", "--suite", bundle_dir, "--trials", 1, "--runs", 1,
                    "--max-iters", 5, flag, value, "--out", out)
        assert err.value.code == cli.EXIT_USAGE
        assert not out.exists()

    def test_sampling_deterministic(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=16, K=2)
        outs = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            rc = run_cli(
                "tune", "--suite", bundle_dir, "--trials", 2, "--runs", 1,
                "--seed", 4, "--max-iters", 150, "--out", out,
            )
            assert rc == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

import concurrent.futures
import csv
import dataclasses
import filecmp
import json
import multiprocessing
import shutil
import warnings

import pytest

from snmtf import cli, data, runner
from snmtf.model import METHODS, SolverConfig, SolverDivergedError


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
        for name in ("manifest.json", "R_1.mtx.txt", "R_5.mtx.txt"):
            if name == "manifest.json":
                am = json.loads((a / name).read_text())
                bm = json.loads((b / name).read_text())
                am.pop("label"), bm.pop("label")
                assert am == bm
            else:
                assert (a / name).read_text() == (b / name).read_text()

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
        assert not (out / "G.txt").exists()

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
        assert not (tmp_path / "run" / "G.txt").exists()

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
        assert not (tmp_path / "run" / "G.txt").exists()

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

    def test_k_above_n_is_validation_error(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=3)
        out = tmp_path / "run"
        rc = run_cli("solve", "--bundle", bundle_dir, "--method", "fpm", "--k", 50, "--out", out)
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k must be in [1, 20], got 50" in err
        assert err.count("\n") == 1
        assert not (out / "G.txt").exists()

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
            "--bcd-inner", 3, "--adam-alpha", 0.001, "--adam-beta1", 0.9,
            "--adam-beta2", 0.99, "--adam-eps", 1e-7, "--standard-bias-correction",
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        expected = SolverConfig(
            method="adam", k=2, seed=5, max_iterations=7, mse_stop=0.0, delta_stop=0.0,
            bcd_inner_iterations=3, adam_alpha=0.001, adam_beta1=0.9, adam_beta2=0.99,
            adam_epsilon=1e-7, standard_bias_correction=True,
        )
        assert summary["config"] == dataclasses.asdict(expected)
        assert summary["iterations"] == 7

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
        runs_a = sorted((out_a / "runs").iterdir())
        runs_b = sorted((out_b / "runs").iterdir())
        for da, db in zip(runs_a, runs_b):
            assert filecmp.cmp(da / "G.txt", db / "G.txt", shallow=False)
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

    def test_pool_matches_serial(self, suite, tmp_path):
        outs = {}
        for jobs in (1, 2):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            rc = run_cli(
                "benchmark", "--suite", suite, "--methods", "fpm,adam", "--ratios", "50,100",
                "--max-iters", 20, "--jobs", jobs, "--out", outs[jobs],
            )
            assert rc == 0
        rows = read_rows_without_timing(outs[1] / "results.csv")
        assert len(rows) == 8 and all(row["final_mse"] for row in rows)
        assert read_rows_without_timing(outs[2] / "results.csv") == rows
        assert (outs[2] / "aggregate.csv").read_text() == (outs[1] / "aggregate.csv").read_text()
        runs = sorted(p.name for p in (outs[1] / "runs").iterdir())
        assert runs == sorted(p.name for p in (outs[2] / "runs").iterdir())
        for name in runs:
            for fname in ("G.txt", "S_1.txt", "summary.json"):
                assert filecmp.cmp(outs[1] / "runs" / name / fname,
                                   outs[2] / "runs" / name / fname, shallow=False)
            assert (read_trace_without_timing(outs[1] / "runs" / name / "trace.csv")
                    == read_trace_without_timing(outs[2] / "runs" / name / "trace.csv"))

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_worker_bundle_is_read_only(self, suite, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method on this platform")
        bundle = data.load_bundle(suite / "b2")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context(start_method),
            initializer=cli._receive_bundle, initargs=(bundle,),
        ) as pool:
            seen = pool.submit(pool_worker_bundle_flags).result()
        assert seen == (bundle.label, [False] * bundle.N)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_malformed_bundle_in_suite_exits_3(self, suite, tmp_path, jobs, capsys):
        root = tmp_path / "suite"
        shutil.copytree(suite, root)
        (root / "b3" / "R_2.mtx.txt").write_text("20 20\n1 2 banana\n")
        rc = run_cli(
            "benchmark", "--suite", root, "--methods", "fpm,bcd", "--ratios", "100",
            "--max-iters", 5, "--jobs", jobs, "--out", tmp_path / "res", "--no-save-runs",
        )
        assert rc == cli.EXIT_VALIDATION
        assert "R_2.mtx.txt: malformed matrix body" in capsys.readouterr().err

    def test_non_integer_planted_k_is_validation_error(self, suite, tmp_path):
        root = tmp_path / "suite"
        shutil.copytree(suite, root)
        set_manifest_key(root / "b3", "planted_K", "x")
        rc = run_cli("benchmark", "--suite", root, "--ratios", "100", "--out", tmp_path / "res")
        assert rc == cli.EXIT_VALIDATION
        rc = run_cli("tune", "--suite", root / "b3", "--trials", 1, "--out", tmp_path / "t.csv")
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("flag,value", [
        ("--ratios", "x"), ("--ratios", "50,,100"), ("--ratios", "0"), ("--methods", "fpm,warp"),
        ("--max-iters", 0), ("--jobs", 0), ("--jobs", -3),
    ])
    def test_bad_sweep_argument_is_usage_error(self, suite, tmp_path, flag, value):
        with pytest.raises(SystemExit) as err:
            run_cli("benchmark", "--suite", suite, flag, value, "--out", tmp_path / "res")
        assert err.value.code == cli.EXIT_USAGE
        assert not (tmp_path / "res" / "results.csv").exists()


def pool_worker_bundle_flags():
    """What a sweep pool worker holds: (label, writeable flag of each R_i)."""
    bundle = cli._pool_bundle
    return bundle.label, [r.flags.writeable for r in bundle.R]


class TestCompare:
    def _write_results(self, path, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cli.RESULT_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)

    def _row(self, method, mse, bundle="b", k="2"):
        return {
            "bundle": bundle, "method": method, "n": "10", "K": "2", "k": k,
            "k_over_K_pct": "100", "final_mse": mse, "iterations": "5",
            "seconds": "0.1", "stop_reason": "max_iterations",
        }

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

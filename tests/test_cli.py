import csv
import filecmp
import json
import warnings

import pytest

from snmtf import cli, data, runner
from snmtf.model import SolverDivergedError


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def make_bundle_dir(tmp_path, name, n=24, K=3, seed=0):
    out = tmp_path / name
    rc = run_cli("generate", "--n", n, "--K", K, "--seed", seed, "--out", out)
    assert rc == 0
    return out


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

    def test_divergence_exit_code(self, tmp_path, capsys):
        # A step size of 1e200 overflows the adam iterates within a few steps.
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(
                "solve", "--bundle", bundle_dir, "--method", "adam", "--k", 2,
                "--adam-alpha", 1e200, "--out", out,
            )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert rc == cli.EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("diverged: ") and "non-finite" in err
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

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run_cli("solve", "--method", "warp")
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--adam-beta1", 1.5), ("--k", 0), ("--mse-stop", -1)])
    def test_out_of_range_knob_is_usage_error(self, tmp_path, flag, value):
        bundle_dir = make_bundle_dir(tmp_path, "b", n=20, K=2)
        argv = ["solve", "--bundle", bundle_dir, "--method", "adam", "--k", 2,
                "--out", tmp_path / "run", flag, value]
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == cli.EXIT_USAGE

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
        with open(out_a / "results.csv") as fh:
            rows_a = [dict(r, seconds="") for r in csv.DictReader(fh)]
        with open(out_b / "results.csv") as fh:
            rows_b = [dict(r, seconds="") for r in csv.DictReader(fh)]
        assert rows_a == rows_b
        runs_a = sorted((out_a / "runs").iterdir())
        runs_b = sorted((out_b / "runs").iterdir())
        for da, db in zip(runs_a, runs_b):
            assert filecmp.cmp(da / "G.txt", db / "G.txt", shallow=False)
            assert read_trace_without_timing(da / "trace.csv") == read_trace_without_timing(db / "trace.csv")


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

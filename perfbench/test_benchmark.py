"""Self-check of the benchmark: the spec's limits, and a toy-size run of every
workload in both modes.

    python3 -m pytest perfbench -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracing import SPAN_TARGETS, Tracer  # noqa: E402
from workloads import FULL, TINY  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_spec(spec):
    names = [w["name"] for w in spec["workloads"]]
    assert 2 <= len(names) <= 8
    assert set(names) == set(FULL) == set(TINY)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_every_span_is_a_metric(spec):
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in SPAN_TARGETS:
        assert f"trace.{name}.calls" in per_layer
        assert f"trace.{name}.self_s" in per_layer


def test_missing_name_is_skipped_not_fatal():
    tracer = Tracer()
    tracer.install({"gone.helper": ("snmtf.no_such_helper", "snmtf.no_such_module.helper")})
    tracer.uninstall()
    assert tracer.missing == ["snmtf.no_such_helper", "snmtf.no_such_module.helper"]
    assert tracer.summary() == {}


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    summary = tracer.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])


def test_failed_solve_is_counted_and_reports_no_mse(monkeypatch):
    import worker

    def diverge(bundle, config):
        raise worker.model.SolverDivergedError("objective became non-finite")

    w = TINY["sweep-io"]
    suite = worker.build_suite(w, 0)
    ledger = worker.Ledger()
    monkeypatch.setattr(worker.snmtf, "run", diverge)
    result = worker.solve_pass(w, suite, "fpm", ledger)
    assert result["mse"] is None
    assert ledger.attempted == len(suite) and len(ledger.failures) == len(suite)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(FULL))
def test_tiny_run(spec, workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "sweep-io", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

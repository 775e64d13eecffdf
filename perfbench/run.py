"""snmtf benchmark: time-to-stop, final MSE, bundle I/O and per-layer timings.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload dense-n1000 --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --workload sweep-io --trace 1   # per-layer figures

Each workload runs in fresh worker processes (``worker.py``) with BLAS
threads capped at the number of usable cores.  With ``--trace 0`` two extra
set-up-only workers run first, so ``setup_s`` is a median over three fresh
processes, cold BLAS/LAPACK start included.  The metric names, units and
directions come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 1 when any operation failed its checks, even though a result is printed,
so a failed run never passes as a within-bound one.  Exits 2 without a result
when the checkout holds no ``src/snmtf``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SIZES  # noqa: E402

# A run must end within 180 s; leave room for start-up and printing.
DEADLINE_S = 170.0
SETUP_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """Environment for the workers: BLAS threads at most the usable cores."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result = run_worker(args, "trace", deadline)
        wanted = spec["per_layer"]
    else:
        setups = [run_worker(args, "setup", deadline)["samples"]["setup_s"][0]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args, "measure", deadline)
        result["samples"]["setup_s"] += setups
        wanted = spec["end_to_end"]

    samples = result["samples"]
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        samples["ok_frac"] = [(attempted - failed) / attempted]
    absent = [m["name"] for m in wanted if not samples.get(m["name"])]
    if absent:
        raise BenchError(f"worker reported no value for {', '.join(absent)}")

    print(f"# workload {args.workload}  seed {args.seed}  trace {int(args.trace)}  "
          f"size {args.size}")
    print("# environment " + json.dumps({**result["environment"], "git_commit": git_commit()}))
    for note in result["missing"]:
        print(f"# not measured (name gone from the library): {note}")
    print(f"# {'metric':<44} {'median':>14} {'max':>14} {'n':>3}  unit (better)")
    metrics = {}
    for m in wanted:
        values = samples[m["name"]]
        value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:<44} {value:>14.6g} {max(values):>14.6g} {len(values):>3}  "
              f"{m['unit']} ({m['better']})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="workload name from BENCHMARK.json, or 'all' (default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="minimum length of the measured rounds (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="'tiny' runs every workload at toy shapes, for the self-check")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "snmtf" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/snmtf to benchmark", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; expected one of {names}")

    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        args.workload = name
        try:
            result = run_workload(args, spec)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if result["failed"]:
            print(f"error: {name}: {result['failed']} of {result['attempted']} operations "
                  "failed their checks", file=sys.stderr)
            status = 1
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    raise SystemExit(main())

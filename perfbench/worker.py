"""Run one benchmark workload in this (fresh) process and print its figures.

``run.py`` starts this script in a fresh process for every set-up sample and
for the measurement, so that set-up cost, cold BLAS/LAPACK start and peak RSS
belong to one workload alone.  Modes:

* ``setup``:   import, build the planted suite, warm up; report ``setup_s``.
* ``measure``: set up, then rounds until ``--seconds`` have passed (at least
  the workload's ``min_rounds``).  A round is a solve round followed by the
  workload's CLI cycles, so every metric is sampled across the whole run.
* ``trace``:   set up, one untraced solve round, per-call probes of public
  helpers, then a traced solve round and CLI cycle, then more untraced and
  traced solve rounds in turn for ``trace.overhead_frac``.

The last line of standard output is one JSON object.  The library is driven
only through its public API.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import snmtf  # noqa: E402
from snmtf import cli, model  # noqa: E402
from tracing import SPAN_TARGETS, Tracer  # noqa: E402
from workloads import METHODS, SIZES  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"

# A recomputed MSE must match the trace's final MSE to this relative error.
MSE_RTOL = 1e-9

# Untraced/traced solve-round pairs behind trace.overhead_frac.
TRACE_PAIRS = 3

# Exceptions the library raises for bad input or a diverging run; they count
# as failed operations.  Looked up by name so that removing one from the
# library does not break the benchmark.
EXPECTED_ERRORS = tuple(
    getattr(model, name)
    for name in ("SolverDivergedError", "ValidationError", "DimensionError", "MemoryBudgetError")
    if hasattr(model, name)
)


class Ledger:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


def check_solution(bundle, fact, trace) -> list:
    """Output contract of one solver run; returns the violations found."""
    problems = []
    if trace.stop_reason not in model.STOP_REASONS:
        problems.append(f"unknown stop reason {trace.stop_reason!r}")
    g = fact.G
    if not np.isfinite(g).all() or (g.size and g.min() < 0.0):
        problems.append("G is not finite and non-negative")
    for i, s in enumerate(fact.S):
        if not np.isfinite(s).all() or (s.size and s.min() < 0.0):
            problems.append(f"S_{i + 1} is not finite and non-negative")
        elif np.abs(s - s.T).max() > model.SYMMETRY_ITERATE_RTOL * max(np.abs(s).max(), 1e-300):
            problems.append(f"S_{i + 1} is not symmetric")
    recomputed = snmtf.mse(bundle, fact)
    reported = trace.final.mse
    if not abs(recomputed - reported) <= MSE_RTOL * max(abs(recomputed), abs(reported)):
        problems.append(f"trace MSE {reported!r} != recomputed MSE {recomputed!r}")
    return problems


def build_suite(w, seed: int) -> list:
    """The workload's planted instances, nodes relabelled by the seed."""
    suite = []
    for gen_seed in w.suite_seeds:
        base, _ = snmtf.generate_synthetic(w.n, w.K, w.N, seed=gen_seed)
        perm = np.random.default_rng([gen_seed, seed]).permutation(w.n)
        suite.append(snmtf.DataBundle.from_matrices(
            [r[np.ix_(perm, perm)] for r in base.R], label=f"{base.label}-relabel{seed}"))
    return suite


def warm_up(w, bundle) -> None:
    """First BLAS/LAPACK calls at the workload's shapes are several times slower."""
    shapes = [(bundle, w.K)]
    if (w.cli_n, w.cli_K) != (w.n, w.K):
        shapes.append((snmtf.generate_synthetic(w.cli_n, w.cli_K, w.N, seed=0)[0], w.cli_K))
    for b, k in shapes:
        for method in METHODS:
            snmtf.run(b, snmtf.SolverConfig(method=method, k=k, max_iterations=1))
    rng = np.random.default_rng(0)
    for degree in (3, 11):
        for _ in range(20):
            np.roots(rng.standard_normal(degree + 1))


def solve_pass(w, suite, method, ledger, tracer=None) -> dict:
    """One method on every suite instance; totals over the suite.  ``mse`` is
    None when a run failed, so a failure never reads as a low MSE."""
    seconds = solver_s = 0.0
    iterations = 0
    mses = []
    for bundle in suite:
        config = snmtf.SolverConfig(method=method, k=w.K, max_iterations=w.budgets[method])
        span = tracer.span(f"bench.solve.{method}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                fact, trace = snmtf.run(bundle, config)
        except EXPECTED_ERRORS as exc:
            seconds += time.perf_counter() - t0
            ledger.record([f"{method} on {bundle.label}: {type(exc).__name__}: {exc}"])
            continue
        seconds += time.perf_counter() - t0
        ledger.record([f"{method} on {bundle.label}: {p}"
                       for p in check_solution(bundle, fact, trace)])
        mses.append(trace.final.mse)
        iterations += trace.iterations
        solver_s += trace.final.elapsed_seconds
    return {
        "seconds": seconds,
        "mse": statistics.fmean(mses) if len(mses) == len(suite) else None,
        "iterations": iterations,
        "solver_s": solver_s,
    }


def solve_round(w, suite, ledger, tracer=None, min_pass_s: float = 0.0) -> dict:
    """Suite passes of every method; a method's passes repeat until they have
    taken ``min_pass_s``, so cheap solves give several samples per round."""
    out = {}
    for method in METHODS:
        passes = [solve_pass(w, suite, method, ledger, tracer)]
        while sum(p["seconds"] for p in passes) < min_pass_s:
            passes.append(solve_pass(w, suite, method, ledger, tracer))
        out[method] = passes
    return out


def call_cli(argv) -> int:
    """``snmtf.cli.main`` in-process with its chatter captured; -1 if it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc()
            return -1


def check_sweep(sweep_dir: Path, w) -> tuple:
    """(rows found, problems per expected row) for the sweep's results.csv."""
    expected = [(m, r) for m in METHODS for r in w.ratios.split(",")]
    try:
        with open(sweep_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return 0, [[f"results.csv unreadable: {exc}"] for _ in expected]
    by_key = {(row["method"], row["k_over_K_pct"]): row for row in rows}
    problems = []
    for method, pct in expected:
        row = by_key.get((method, pct))
        if row is None:
            problems.append([f"sweep row {method}@{pct}% missing"])
        elif row["stop_reason"].startswith("error:") or row["final_mse"] == "":
            problems.append([f"sweep row {method}@{pct}% failed: {row['stop_reason']}"])
        else:
            problems.append([])
    if len(rows) != len(expected):
        problems[-1].append(f"results.csv has {len(rows)} rows, expected {len(expected)}")
    return len(rows), problems


def cli_phase(w, seed: int, ledger, tracer=None) -> dict:
    """``snmtf generate`` one bundle, then ``snmtf benchmark`` and ``compare``."""
    WORK_DIR.mkdir(exist_ok=True)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        bundles, sweep = Path(tmp) / "bundles", Path(tmp) / "sweep"
        t0 = time.perf_counter()
        with span("bench.cli.generate"):
            code = call_cli(["generate", "--n", str(w.cli_n), "--K", str(w.cli_K), "--N", str(w.N),
                             "--seed", str(seed), "--out", str(bundles / "b0")])
        generate_s = time.perf_counter() - t0
        ledger.record([f"snmtf generate exited {code}"] if code != 0 else [])
        bundle_mb = sum(p.stat().st_size for p in bundles.rglob("*") if p.is_file()) / 1e6

        t0 = time.perf_counter()
        with span("bench.cli.sweep"):
            code = call_cli(["benchmark", "--suite", str(bundles), "--methods", ",".join(METHODS),
                             "--ratios", w.ratios, "--max-iters", str(w.sweep_max_iters),
                             "--jobs", "1", "--seed", "0", "--out", str(sweep)])
            code_cmp = call_cli(["compare", "--results", str(sweep / "results.csv"),
                                 "--out", str(sweep / "winners.csv")])
        sweep_s = time.perf_counter() - t0
        rows, problems = check_sweep(sweep, w)
        if code != 0:
            problems[0].append(f"snmtf benchmark exited {code}")
        for p in problems:
            ledger.record(p)
        winners_ok = code_cmp == 0 and (sweep / "winners.csv").is_file()
        ledger.record([] if winners_ok else [f"snmtf compare exited {code_cmp} or wrote no winners.csv"])
    return {"generate_s": generate_s, "sweep_s": sweep_s, "bundle_mb": bundle_mb, "rows": rows}


def median_time(fn, scale: float = 1e3) -> float:
    """Median time of ``fn()`` (ms by default) after one discarded call, over
    repeats that take about 0.3 s."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    repeats = max(3, min(25, int(0.3 / max(first, 1e-9))))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * scale


def helper_probes(w, bundle, missing: list) -> dict:
    """Per-call time of the public helpers at the workload's starting point.

    Each probe resolves its helper when it runs; one that no longer exists or
    no longer takes these arguments reports 0 and is listed as missing.
    """
    start = snmtf.build_start(bundle, snmtf.SolverConfig(method="fpm", k=w.K))
    g = start.G

    def se_from_gram():
        gram = g.T @ g
        mid = [g.T @ (r @ g) for r in bundle.R]
        return functools.partial(model.se_from_gram, bundle.norms_sq, gram, mid, start.S)

    def quartic():
        dg = snmtf.grad_native(bundle, start)[0]
        return functools.partial(snmtf.quartic_coeffs, bundle, start, dg)

    def gmels_point():
        sq = snmtf.lift_to_transformed(start, snmtf.Transform.SQUARE)
        return sq, snmtf.grad_transformed(bundle, sq)

    def line_poly():
        sq, (dg, ds) = gmels_point()
        return functools.partial(snmtf.line_poly_coeffs, bundle, sq, dg, ds)

    def poly_minimize():
        sq, (dg, ds) = gmels_point()
        return functools.partial(snmtf.poly_minimize, snmtf.line_poly_coeffs(bundle, sq, dg, ds))

    def adam_step():
        ab = snmtf.lift_to_transformed(start, snmtf.Transform.ABS)
        grads = snmtf.grad_transformed(bundle, ab)
        c = snmtf.SolverConfig(method="adam", k=w.K)
        eta = snmtf.adam_eta(c.adam_alpha, c.adam_beta1, c.adam_beta2, 1)
        return functools.partial(snmtf.adam_step, snmtf.AdamState.zeros_like(ab), ab, grads, eta,
                                 c.adam_beta1, c.adam_beta2, c.adam_epsilon)

    makers = {
        "initialization.deterministic_g_s": (
            lambda: functools.partial(snmtf.deterministic_g, bundle, w.K), 1.0),
        "model.residuals_ms": (lambda: functools.partial(snmtf.residuals, bundle, start), 1e3),
        "model.se_from_gram_ms": (se_from_gram, 1e3),
        "gradients.grad_native_ms": (lambda: functools.partial(snmtf.grad_native, bundle, start), 1e3),
        "gradients.grad_transformed_ms": (
            lambda: functools.partial(snmtf.grad_transformed, bundle,
                                      snmtf.lift_to_transformed(start, snmtf.Transform.ABS)), 1e3),
        "fpm.step_g_ms": (lambda: functools.partial(snmtf.fpm_step_g, bundle, start), 1e3),
        "fpm.step_s_ms": (lambda: functools.partial(snmtf.fpm_step_s, bundle, start, 0), 1e3),
        "bcd.linesearch_g_ms": (
            lambda: functools.partial(snmtf.linesearch_g, bundle, start, np.random.default_rng(0)), 1e3),
        "bcd.quartic_coeffs_ms": (quartic, 1e3),
        "bcd.linesearch_s_ms": (lambda: functools.partial(snmtf.linesearch_s, bundle, start, 0), 1e3),
        "gmels.line_poly_coeffs_ms": (line_poly, 1e3),
        "gmels.poly_minimize_ms": (poly_minimize, 1e3),
        "adam.adam_step_ms": (adam_step, 1e3),
    }
    out = {}
    for name, (make, scale) in makers.items():
        try:
            out[name] = median_time(make(), scale)
        except (AttributeError, TypeError) as exc:
            out[name] = 0.0
            missing.append(f"{name}: {type(exc).__name__}: {exc}")
    return out


def kernel_floor(w, bundle) -> dict:
    """One R_i @ X product and np.roots at the line searches' degrees.

    Flops and bytes are computed from the shapes, not measured.
    """
    n, k = bundle.n, w.K
    r = bundle.R[0]
    x = np.random.default_rng(0).random((n, k))
    rx_ms = median_time(lambda: r @ x)
    gflop = 2.0 * n * n * k / 1e9
    out = {
        "kernel.rx_ms": rx_ms,
        "kernel.rx_gflop_computed": gflop,
        "kernel.rx_mb_computed": 8.0 * (n * n + 2 * n * k) / 1e6,
        "kernel.rx_gflops": gflop / (rx_ms / 1e3),
    }
    rng = np.random.default_rng(0)
    for degree in (3, 11):
        coeffs = [rng.standard_normal(degree + 1) for _ in range(100)]
        out[f"kernel.roots{degree}_ms"] = median_time(lambda: [np.roots(c) for c in coeffs]) / 100
    return out


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": numpy_blas(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def numpy_blas() -> dict:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def measure(w, seed, seconds, suite, ledger) -> dict:
    rounds, cycles = [], []
    t0 = time.perf_counter()
    while len(rounds) < w.min_rounds or time.perf_counter() - t0 < seconds:
        rounds.append(solve_round(w, suite, ledger, min_pass_s=w.min_pass_s))
        cycles.extend(cli_phase(w, seed, ledger) for _ in range(w.cli_per_round))
    samples = {}
    for method in METHODS:
        passes = [p for r in rounds for p in r[method]]
        samples[f"solve_s.{method}"] = [p["seconds"] for p in passes]
        samples[f"final_mse.{method}"] = [p["mse"] for p in passes if p["mse"] is not None]
    samples["generate_s"] = [c["generate_s"] for c in cycles]
    samples["sweep_s"] = [c["sweep_s"] for c in cycles]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6]
    return samples


def round_s(solved: dict) -> float:
    return sum(p["seconds"] for passes in solved.values() for p in passes)


def traced_round(w, suite, ledger, tracer) -> dict:
    tracer.install()
    try:
        return solve_round(w, suite, ledger, tracer)
    finally:
        tracer.uninstall()


def trace(w, seed, suite, ledger, missing: list) -> dict:
    plain = solve_round(w, suite, ledger)
    base = {m: passes[0] for m, passes in plain.items()}
    metrics = helper_probes(w, suite[0], missing)
    metrics.update(kernel_floor(w, suite[0]))
    for method in METHODS:
        its = base[method]["iterations"]
        metrics[f"{method}.iterations"] = its
        metrics[f"{method}.ms_per_iter"] = 1e3 * base[method]["solver_s"] / its if its else 0.0

    # Spans come from the first traced round and one CLI cycle; the later
    # pairs only time the tracer's overhead.
    tracer = Tracer()
    tracer.install()
    try:
        traced = solve_round(w, suite, ledger, tracer)
        io_ = cli_phase(w, seed, ledger, tracer)
    finally:
        tracer.uninstall()
    ratios = [round_s(traced) / round_s(plain)]
    for _ in range(TRACE_PAIRS - 1):
        plain_s = round_s(solve_round(w, suite, ledger))
        ratios.append(round_s(traced_round(w, suite, ledger, Tracer())) / plain_s)
    missing.extend(f"{path}: not found" for path in tracer.missing)
    WORK_DIR.mkdir(exist_ok=True)
    tracer.write(WORK_DIR / f"spans-{w.name}-seed{seed}.jsonl")

    spans = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for name in SPAN_TARGETS:
        metrics[f"trace.{name}.calls"] = spans.get(name, empty)["calls"]
        metrics[f"trace.{name}.self_s"] = spans.get(name, empty)["self_s"]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    metrics["data.save_bundle_s"] = spans.get("data.save_bundle", empty)["total_s"]
    metrics["data.bundle_mb"] = io_["bundle_mb"]
    metrics["data.load_bundle_s"] = spans.get("data.load_bundle", empty)["total_s"]
    metrics["data.load_bundle_calls"] = spans.get("data.load_bundle", empty)["calls"]
    metrics["data.save_factorization_s"] = spans.get("data.save_factorization", empty)["total_s"]
    metrics["cli.sweep_rows"] = io_["rows"]
    metrics["cli.self_s"] = (spans.get("cli.cmd_benchmark", empty)["self_s"]
                             + spans.get("cli.cmd_compare", empty)["self_s"])
    return {name: [value] for name, value in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    args = p.parse_args(argv)
    w = SIZES[args.size][args.workload]

    ledger = Ledger()
    suite = build_suite(w, args.seed)
    warm_up(w, suite[0])
    setup_s = time.perf_counter() - _T0
    samples, missing = {}, []
    if args.mode == "measure":
        samples = measure(w, args.seed, args.seconds, suite, ledger)
    elif args.mode == "trace":
        samples = trace(w, args.seed, suite, ledger, missing)
    samples["setup_s"] = [setup_s]
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "samples": samples,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "environment": environment(),
        "missing": missing,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

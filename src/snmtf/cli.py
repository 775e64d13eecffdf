"""Benchmark command line: generate data, run solvers, sweep, compare, tune.

Subcommands::

    snmtf generate  --n 100 --K 10 --seed 7 --out bundles/b0
    snmtf solve     --bundle bundles/b0 --method adam --k 10 --out runs/r0
    snmtf benchmark --suite bundles --out results
    snmtf compare   --results results/results.csv --out results/winners.csv
    snmtf tune      --suite bundles --trials 100 --out tune.csv

Exit codes: 0 normal stop, 2 usage error, 3 data validation error,
5 solver divergence (the objective or a gradient became non-finite).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import sys
from pathlib import Path

import numpy as np

from . import adam as adam_mod
from . import data, runner
from .model import (
    DimensionError,
    SolverConfig,
    SolverDivergedError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGED = 5

DEFAULT_RATIOS = (20, 40, 60, 80, 100, 120)
RESULT_COLUMNS = (
    "bundle", "method", "n", "K", "k", "k_over_K_pct",
    "final_mse", "iterations", "seconds", "stop_reason",
)


def _config_from_args(args, method: str, k: int) -> SolverConfig:
    """SolverConfig from the solver flags; an out-of-range knob is a usage error."""
    try:
        return SolverConfig(
            method=method,
            k=k,
            max_iterations=args.max_iters,
            mse_stop=args.mse_stop,
            delta_stop=args.delta_stop,
            seed=args.seed,
            adam_alpha=args.adam_alpha,
            adam_beta1=args.adam_beta1,
            adam_beta2=args.adam_beta2,
            adam_epsilon=args.adam_eps,
            standard_bias_correction=getattr(args, "standard_bias_correction", False),
            bcd_inner_iterations=args.bcd_inner,
            trace_stride=args.trace_stride,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None,
                   help="iteration cap (default: per-method)")
    p.add_argument("--mse-stop", type=float, default=1e-2)
    p.add_argument("--delta-stop", type=float, default=1e-10)
    p.add_argument("--trace-stride", type=int, default=1)
    p.add_argument("--bcd-inner", type=int, default=10,
                   help="projected-gradient steps per coordinate block")
    p.add_argument("--adam-alpha", type=float, default=0.002)
    p.add_argument("--adam-beta1", type=float, default=0.95)
    p.add_argument("--adam-beta2", type=float, default=0.995)
    p.add_argument("--adam-eps", type=float, default=1e-8)
    p.add_argument("--standard-bias-correction", action="store_true",
                   help="use beta^i bias-correction factors in the adam schedule")


def cmd_generate(args) -> int:
    bundle, planted = data.generate_synthetic(
        n=args.n, K=args.K, N=args.N, density=args.density, seed=args.seed
    )
    data.save_bundle(bundle, args.out, planted=planted)
    print(f"wrote {bundle.label}: N={bundle.N} matrices of order {bundle.n} -> {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    bundle = data.load_bundle(args.bundle, symmetrize=args.symmetrize)
    config = _config_from_args(args, args.method, args.k)
    start = data.load_factors(args.start_from) if args.start_from else None
    out = Path(args.out)
    fact, trace = runner.run(bundle, config, init=args.init, start=start)
    data.save_factorization(fact, trace, out, config)
    final = trace.final
    print(
        f"{config.method}: stop={trace.stop_reason} iterations={final.iteration} "
        f"mse={final.mse:.6g} seconds={final.elapsed_seconds:.2f} -> {out}"
    )
    return EXIT_OK


def _discover_suite(root) -> list[Path]:
    root = Path(root)
    if (root / data.MANIFEST_NAME).exists():
        return [root]
    dirs = sorted(p for p in root.iterdir() if (p / data.MANIFEST_NAME).exists())
    if not dirs:
        raise ValidationError(f"{root}: no bundle directories found")
    return dirs


def _sweep_task(task: dict) -> dict:
    bundle = data.load_bundle(task["bundle_dir"])
    planted_k = task["planted_K"]
    row = {
        "bundle": bundle.label,
        "method": task["method"],
        "n": bundle.n,
        "K": planted_k,
        "k": task["k"],
        "k_over_K_pct": task["pct"],
        "final_mse": "",
        "iterations": "",
        "seconds": "",
        "stop_reason": "",
    }
    config = SolverConfig(method=task["method"], k=task["k"], seed=task["seed"],
                          max_iterations=task["max_iters"])
    try:
        fact, trace = runner.run(bundle, config, init=task["init"])
    except Exception as exc:  # record and keep sweeping
        row["stop_reason"] = f"error: {type(exc).__name__}: {exc}"
        return row
    final = trace.final
    row.update(
        final_mse=repr(final.mse),
        iterations=final.iteration,
        seconds=f"{final.elapsed_seconds:.3f}",
        stop_reason=trace.stop_reason,
    )
    if task["runs_dir"] is not None:
        run_dir = Path(task["runs_dir"]) / f"{bundle.label}__{task['method']}__k{task['k']}"
        data.save_factorization(fact, trace, run_dir, config)
    return row


def cmd_benchmark(args) -> int:
    bundle_dirs = _discover_suite(args.suite)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    ratios = [int(r) for r in args.ratios.split(",")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runs_dir = None if args.no_save_runs else out / "runs"

    tasks = []
    for bundle_dir in bundle_dirs:
        manifest = data.read_manifest(bundle_dir)
        planted_k = manifest.get("planted_K")
        if planted_k is None:
            raise ValidationError(
                f"{bundle_dir}: manifest has no planted_K; the sweep needs it to place the k grid"
            )
        for method in methods:
            for pct in ratios:
                k = max(1, round(int(planted_k) * pct / 100))
                tasks.append(
                    {
                        "bundle_dir": str(bundle_dir),
                        "planted_K": int(planted_k),
                        "method": method,
                        "k": k,
                        "pct": pct,
                        "seed": args.seed,
                        "init": args.init,
                        "max_iters": args.max_iters,
                        "runs_dir": str(runs_dir) if runs_dir else None,
                    }
                )

    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(task) for task in tasks]
    rows.sort(key=lambda r: (r["bundle"], r["method"], r["k"]))

    results_path = out / "results.csv"
    with open(results_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    aggregate = _aggregate_rows(rows)
    agg_path = out / "aggregate.csv"
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k_over_K_pct", "method", "mean_mse", "runs"])
        writer.writerows(aggregate)
    print(f"wrote {results_path} ({len(rows)} rows) and {agg_path}")
    return EXIT_OK


def _aggregate_rows(rows):
    """Mean final MSE per (n, k/K ratio, method), matching how suite results
    are summarized: the mean runs over every planted K sharing the ratio."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if row["final_mse"] == "":
            continue
        key = (int(row["n"]), int(row["k_over_K_pct"]), row["method"])
        groups.setdefault(key, []).append(float(row["final_mse"]))
    return [
        [n, pct, method, repr(float(np.mean(vals))), len(vals)]
        for (n, pct, method), vals in sorted(groups.items())
    ]


def cmd_compare(args) -> int:
    with open(args.results, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValidationError(f"{args.results}: empty results file")
    methods = sorted({row["method"] for row in rows})
    groups: dict[tuple, dict[str, float]] = {}
    for row in rows:
        key = (row["bundle"], row["n"], row["K"], row["k"])
        entry = groups.setdefault(key, {})
        if row["final_mse"] != "":
            entry[row["method"]] = float(row["final_mse"])

    out_rows = []
    for key in sorted(groups):
        present = groups[key]
        missing = [m for m in methods if m not in present]
        if present:
            best = min(present.values())
            winners = sorted(m for m, v in present.items() if v == best)
            winner = winners[0]
            tie = len(winners) > 1
        else:
            winner, best, tie = "", "", False
        out_rows.append(
            {
                "bundle": key[0],
                "n": key[1],
                "K": key[2],
                "k": key[3],
                "winner": winner,
                "best_mse": repr(best) if best != "" else "",
                "tie": int(tie),
                "status": "incomplete" if missing else "ok",
                "missing": ";".join(missing),
            }
        )
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["bundle", "n", "K", "k", "winner", "best_mse", "tie", "status", "missing"]
        )
        writer.writeheader()
        writer.writerows(out_rows)
    print(f"wrote {args.out} ({len(out_rows)} groups)")
    return EXIT_OK


def cmd_tune(args) -> int:
    bundle_dirs = _discover_suite(args.suite)
    problems = []
    labels = []
    for bundle_dir in bundle_dirs:
        manifest = data.read_manifest(bundle_dir)
        k = args.k if args.k is not None else manifest.get("planted_K")
        if k is None:
            raise ValidationError(f"{bundle_dir}: no planted_K in manifest and no --k given")
        bundle = data.load_bundle(bundle_dir)
        problems.append((bundle, int(k)))
        labels.append(bundle.label)

    points = [tuple(float(x) for x in p.split(",")) for p in args.point] if args.point else None
    ranked = adam_mod.tune_adam(
        problems, trials=args.trials, seed=args.seed, points=points,
        runs_per_problem=args.runs, max_iterations=args.max_iters,
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "alpha", "beta1", "beta2"]
                        + [f"mean_mse_{label}" for label in labels] + ["score"])
        for row in sorted(ranked, key=lambda r: r["trial"]):
            writer.writerow(
                [row["trial"], repr(row["alpha"]), repr(row["beta1"]), repr(row["beta2"])]
                + [repr(v) for v in row["per_problem_mse"]]
                + [repr(row["score"])]
            )
    best = ranked[0]
    print(
        f"best: alpha={best['alpha']:.6g} beta1={best['beta1']:.6g} "
        f"beta2={best['beta2']:.6g} score={best['score']:.6g} -> {args.out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snmtf",
        description="Solvers and benchmarks for symmetric multi-type "
                    "non-negative matrix tri-factorization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a planted synthetic bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True, help="planted inner dimension")
    p.add_argument("--N", type=int, default=5, help="number of data matrices")
    p.add_argument("--density", type=float, default=0.65)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one solver on one bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--method", required=True, choices=("fpm", "bcd", "gmels", "adam"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--init", choices=runner.INIT_KINDS, default="deterministic")
    p.add_argument("--symmetrize", action="store_true",
                   help="average each R_i with its transpose at load time")
    p.add_argument("--start-from", default=None,
                   help="directory with G.txt/S_i.txt to start from")
    p.add_argument("--out", required=True)
    _add_solver_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("benchmark", help="method x inner-dimension sweep over a suite")
    p.add_argument("--suite", required=True, help="bundle directory or directory of bundles")
    p.add_argument("--methods", default="fpm,bcd,gmels,adam")
    p.add_argument("--ratios", default=",".join(str(r) for r in DEFAULT_RATIOS),
                   help="k as a percentage of the planted K")
    p.add_argument("--init", choices=runner.INIT_KINDS, default="deterministic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-save-runs", action="store_true",
                   help="skip per-run factor/trace directories")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("compare", help="per-instance winner report from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tune", help="random-search adam hyper-parameter tuning")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--runs", type=int, default=3, help="runs per (trial, problem)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None, help="override the planted K")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--point", action="append", default=None,
                   help="evaluate an explicit alpha,beta1,beta2 triple instead of sampling")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverDivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    raise SystemExit(main())

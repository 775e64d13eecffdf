"""Benchmark command line: generate data, run solvers, sweep, compare, tune.

Subcommands::

    snmtf generate  --n 100 --K 10 --seed 7 --out bundles/b0
    snmtf solve     --bundle bundles/b0 --method adam --k 10 --out runs/r0
    snmtf benchmark --suite bundles --out results
    snmtf compare   --results results/results.csv --out results/winners.csv
    snmtf tune      --suite bundles --trials 100 --out tune.csv

Exit codes: 0 normal stop, 2 usage error, 3 data validation error,
5 solver divergence (the objective or a gradient became non-finite, or the
MSE ran away; see ``model.ConvergenceTrace.step``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import adam as adam_mod
from . import data, runner
from .model import (
    DataBundle,
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


def _checked_config(**fields) -> SolverConfig:
    """SolverConfig(**fields); an unknown method or out-of-range knob is a usage error."""
    try:
        return SolverConfig(**fields)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _config_from_args(args) -> SolverConfig:
    """SolverConfig from ``snmtf solve``'s method, k and the solver flags that
    were given; every other knob keeps its SolverConfig default."""
    given = vars(args)
    return _checked_config(**{f.name: given[f.name] for f in dataclasses.fields(SolverConfig)
                              if f.name in given})


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _ratio_list(text: str) -> list[int]:
    """argparse type of ``--ratios``: comma-separated positive integers."""
    return [_positive_int(tok) for tok in text.split(",")]


def _adam_point(text: str) -> tuple[float, float, float]:
    """argparse type of ``--point``: alpha,beta1,beta2 as three numbers."""
    try:
        alpha, beta1, beta2 = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected alpha,beta1,beta2, got {text!r}") from None
    return alpha, beta1, beta2


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    """The solver flags; each is stored under its SolverConfig field name and
    only when given, so the defaults live in SolverConfig alone."""
    def flag(name, dest, **kwargs):
        p.add_argument(name, dest=dest, default=argparse.SUPPRESS, **kwargs)

    flag("--seed", "seed", type=int)
    flag("--max-iters", "max_iterations", type=int, help="iteration cap (default: per-method)")
    flag("--mse-stop", "mse_stop", type=float)
    flag("--delta-stop", "delta_stop", type=float)
    flag("--bcd-inner", "bcd_inner_iterations", type=int,
         help="projected-gradient steps per coordinate block")
    flag("--adam-alpha", "adam_alpha", type=float)
    flag("--adam-beta1", "adam_beta1", type=float)
    flag("--adam-beta2", "adam_beta2", type=float)
    flag("--adam-eps", "adam_epsilon", type=float)
    flag("--standard-bias-correction", "standard_bias_correction", action="store_true",
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
    config = _config_from_args(args)
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


def _sweep_row(bundle: DataBundle, spec: dict) -> dict:
    """One results.csv row: the run ``spec["config"]`` on the loaded bundle."""
    config = spec["config"]
    row = {
        "bundle": bundle.label,
        "method": config.method,
        "n": bundle.n,
        "K": spec["planted_K"],
        "k": config.k,
        "k_over_K_pct": spec["pct"],
        "final_mse": "",
        "iterations": "",
        "seconds": "",
        "stop_reason": "",
    }
    try:
        fact, trace = runner.run(bundle, config, init=spec["init"])
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
    if spec["runs_dir"] is not None:
        run_dir = spec["runs_dir"] / f"{bundle.label}__{config.method}__k{config.k}"
        data.save_factorization(fact, trace, run_dir, config)
    return row


# The bundle a pool worker runs its rows on; set once per worker.
_pool_bundle: DataBundle | None = None


def _receive_bundle(bundle: DataBundle) -> None:
    global _pool_bundle
    _pool_bundle = bundle


def _pooled_row(spec: dict) -> dict:
    return _sweep_row(_pool_bundle, spec)


def _sweep_bundle(bundle_dir, specs: list[dict], jobs: int) -> list[dict]:
    """Load one bundle and run all of its rows on it.

    With more than one worker the rows run on a process pool whose workers
    each receive the loaded bundle once, at start-up.
    """
    bundle = data.load_bundle(bundle_dir)
    workers = min(jobs, len(specs))
    if workers <= 1:
        return [_sweep_row(bundle, spec) for spec in specs]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_receive_bundle, initargs=(bundle,)
    ) as pool:
        return list(pool.map(_pooled_row, specs))


def cmd_benchmark(args) -> int:
    bundle_dirs = _discover_suite(args.suite)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    out = Path(args.out)
    runs_dir = None if args.no_save_runs else out / "runs"

    # Every manifest and row config is checked before the first bundle loads.
    plan = []
    for bundle_dir in bundle_dirs:
        planted_k = data.read_manifest(bundle_dir).get("planted_K")
        if planted_k is None:
            raise ValidationError(
                f"{bundle_dir}: manifest has no planted_K; the sweep needs it to place the k grid"
            )
        specs = [
            {
                "config": _checked_config(method=method, k=max(1, round(planted_k * pct / 100)),
                                          seed=args.seed, max_iterations=args.max_iters),
                "planted_K": planted_k,
                "pct": pct,
                "init": args.init,
                "runs_dir": runs_dir,
            }
            for method in methods
            for pct in args.ratios
        ]
        plan.append((bundle_dir, specs))

    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for bundle_dir, specs in plan:
        rows.extend(_sweep_bundle(bundle_dir, specs, args.jobs))
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
    ks = [args.k if args.k is not None else data.read_manifest(bundle_dir).get("planted_K")
          for bundle_dir in bundle_dirs]

    # Every (k, point) config the tuner builds is checked before the first
    # bundle loads; sampled points lie in range by construction.
    points = [dict(adam_alpha=a, adam_beta1=b1, adam_beta2=b2) for a, b1, b2 in args.point or ()]
    for bundle_dir, k in zip(bundle_dirs, ks):
        if k is None:
            raise ValidationError(f"{bundle_dir}: no planted_K in manifest and no --k given")
        for knobs in points or [{}]:
            _checked_config(method="adam", k=k, max_iterations=args.max_iters, **knobs)

    problems = [(data.load_bundle(d), k) for d, k in zip(bundle_dirs, ks)]
    labels = [bundle.label for bundle, _ in problems]
    ranked = adam_mod.tune_adam(
        problems, trials=args.trials, seed=args.seed, points=args.point,
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
    p.add_argument("--ratios", type=_ratio_list,
                   default=",".join(str(r) for r in DEFAULT_RATIOS),
                   help="k as a percentage of the planted K")
    p.add_argument("--init", choices=runner.INIT_KINDS, default="deterministic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
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
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--runs", type=_positive_int, default=3, help="runs per (trial, problem)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None, help="override the planted K")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--point", type=_adam_point, action="append", default=None,
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

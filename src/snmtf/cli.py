"""Benchmark command line: generate data, run solvers, sweep, compare, tune.

Subcommands::

    snmtf generate  --n 100 --K 10 --seed 7 --out bundles/b0
    snmtf solve     --bundle bundles/b0 --method adam --k 10 --out runs/r0
    snmtf benchmark --suite bundles --out results   # results, aggregate, winners.csv
    snmtf compare   --results merged/results.csv --out merged/winners.csv
    snmtf tune      --suite bundles --trials 100 --out tune.csv

Exit codes: 0 normal stop, 2 usage error, 3 data validation error or an
``--out`` that cannot be written (refused before any bundle loads when it
exists as the wrong kind or lies under a file), 5 solver divergence (the
objective became non-finite or the MSE ran away, see
``model.ConvergenceTrace.step``, or the solver returned factors that are not
native, see ``runner.run``; for ``tune``, every point scored inf).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import data, runner
from .model import (
    METHODS,
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
WINNER_COLUMNS = ("bundle", "n", "K", "k", "winner", "best_mse", "tie", "status", "missing")


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


def _int_at_least(low: int, what: str):
    """argparse type of an integer that must be at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_seed = _int_at_least(0, "non-negative")


def _ratio_list(text: str) -> list[int]:
    """argparse type of ``--ratios``: comma-separated distinct positive integers."""
    ratios = [_positive_int(tok) for tok in text.split(",")]
    if len(set(ratios)) < len(ratios):
        raise argparse.ArgumentTypeError(f"a ratio is given twice in {text!r}")
    return ratios


def _method_list(text: str) -> list[str]:
    """argparse type of ``--methods``: comma-separated distinct method names."""
    methods = [tok.strip() for tok in text.split(",")]
    for method in methods:
        if method not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {method!r}, expected one of {METHODS}")
    if len(set(methods)) < len(methods):
        raise argparse.ArgumentTypeError(f"a method is named twice in {text!r}")
    return methods


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
    flag("--adam-alpha", "adam_alpha", type=float)
    flag("--adam-beta1", "adam_beta1", type=float)
    flag("--adam-beta2", "adam_beta2", type=float)


def _check_out(out: Path, is_dir: bool) -> None:
    """Raise the OSError of an output path that exists as the wrong kind (a
    file where a directory is written, or the reverse) or whose nearest
    existing ancestor is not a directory.  Creates nothing; a permission
    error still shows only when the output is written."""
    if out.exists():
        if out.is_dir() != is_dir:
            code = errno.EEXIST if is_dir else errno.EISDIR
            raise OSError(code, os.strerror(code), str(out))
        return
    ancestor = next(p for p in out.parents if p.exists())
    if not ancestor.is_dir():
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(ancestor))


def cmd_generate(args) -> int:
    bundle, planted = data.generate_synthetic(
        n=args.n, K=args.K, N=args.N, density=args.density, seed=args.seed
    )
    data.save_bundle(bundle, args.out, planted=planted)
    print(f"wrote {bundle.label}: N={bundle.N} matrices of order {bundle.n} -> {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    out = Path(args.out)
    _check_out(out, is_dir=True)
    bundle = data.load_bundle(args.bundle, symmetrize=args.symmetrize)
    config = _config_from_args(args)
    start = data.load_factors(args.start_from) if args.start_from else None
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
    if not root.is_dir():
        raise ValidationError(f"{root}: suite is not a directory")
    if (root / data.MANIFEST_NAME).exists():
        return [root]
    dirs = sorted(p for p in root.iterdir() if (p / data.MANIFEST_NAME).exists())
    if not dirs:
        raise ValidationError(f"{root}: no bundle directories found")
    return dirs


def _read_suite(root) -> list[tuple[Path, dict]]:
    """Each bundle directory of the suite with its checked manifest.

    Results and run directories are keyed by the bundle's label, so two
    bundles may not share one.
    """
    suite = [(bundle_dir, data.read_manifest(bundle_dir)) for bundle_dir in _discover_suite(root)]
    label_dirs = {}
    for bundle_dir, manifest in suite:
        first = label_dirs.setdefault(manifest["label"], bundle_dir)
        if first != bundle_dir:
            raise ValidationError(
                f"{first} and {bundle_dir} share the bundle label {manifest['label']!r}; "
                "their results would overwrite each other"
            )
    return suite


def _sweep_rows(bundle: DataBundle, config: SolverConfig, pcts: list[int], planted_k: int,
                init: str, runs_dir: Path | None) -> list[dict]:
    """The results.csv rows of ``config`` on the loaded bundle: one run, and
    one row for each ratio in ``pcts``."""
    row = {
        "bundle": bundle.label,
        "method": config.method,
        "n": bundle.n,
        "K": planted_k,
        "k": config.k,
        "final_mse": "",
        "iterations": "",
        "seconds": "",
        "stop_reason": "",
    }
    try:
        fact, trace = runner.run(bundle, config, init=init)
    except Exception as exc:  # record and keep sweeping
        row["stop_reason"] = f"error: {type(exc).__name__}: {exc}"
    else:
        final = trace.final
        row.update(
            final_mse=repr(final.mse),
            iterations=final.iteration,
            seconds=f"{final.elapsed_seconds:.3f}",
            stop_reason=trace.stop_reason,
        )
        if runs_dir is not None:
            run_dir = runs_dir / f"{bundle.label}__{config.method}__k{config.k}"
            data.save_factorization(fact, trace, run_dir, config)
    return [dict(row, k_over_K_pct=pct) for pct in pcts]


def cmd_benchmark(args) -> int:
    suite = _read_suite(args.suite)
    out = Path(args.out)
    runs_dir = None if args.no_save_runs else out / "runs"

    # Every manifest and run config is checked before the first bundle loads.
    # Ratios that round to one k (20% and 40% of K = 2 are both k = 1) share
    # that k's run, and each ratio gets its row from it.
    plan = []
    for bundle_dir, manifest in suite:
        planted_k = manifest.get("planted_K")
        if planted_k is None:
            raise ValidationError(
                f"{bundle_dir}: manifest has no planted_K; the sweep needs it to place the k grid"
            )
        pcts_by_k: dict[int, list[int]] = {}
        for pct in args.ratios:
            pcts_by_k.setdefault(max(1, round(planted_k * pct / 100)), []).append(pct)
        runs = [
            (_checked_config(method=method, k=k, seed=args.seed, max_iterations=args.max_iters),
             pcts)
            for method in args.methods
            for k, pcts in pcts_by_k.items()
        ]
        plan.append((bundle_dir, planted_k, runs))

    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for bundle_dir, planted_k, runs in plan:
        # All of a bundle's runs share one load; it is dropped before the
        # next bundle loads, so the sweep holds one bundle at a time.
        bundle = data.load_bundle(bundle_dir)
        for config, pcts in runs:
            rows.extend(_sweep_rows(bundle, config, pcts, planted_k, args.init, runs_dir))
        del bundle
    rows.sort(key=lambda r: (r["bundle"], r["method"], r["k"]))

    _write_csv(out / "results.csv", RESULT_COLUMNS,
               ([row[c] for c in RESULT_COLUMNS] for row in rows))
    _write_csv(out / "aggregate.csv", ("n", "k_over_K_pct", "method", "mean_mse", "runs"),
               _aggregate_rows(rows))
    _write_csv(out / "winners.csv", WINNER_COLUMNS, _winner_rows(rows))
    print(f"wrote {out / 'results.csv'} ({len(rows)} rows), aggregate.csv and winners.csv")
    return EXIT_OK


def _write_csv(path, columns, rows) -> None:
    """Write the header ``columns``, then ``rows`` (sequences in column order)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


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


def _winner_rows(rows) -> list[list]:
    """The winners.csv rows of results rows, one per (bundle, n, K, k) in
    numeric order: the lowest-MSE method, exact ties broken by name and
    flagged, and a group that lacks any of the rows' methods marked
    incomplete. A failed run's row, with an empty final_mse, counts as
    missing."""
    methods = sorted({row["method"] for row in rows})
    groups: dict[tuple, dict[str, float]] = {}
    for row in rows:
        # Integer keys, so groups sort by the numbers: k = 2 before k = 10.
        key = (row["bundle"], *(int(row[c]) for c in ("n", "K", "k")))
        entry = groups.setdefault(key, {})
        if row["final_mse"] != "":
            entry[row["method"]] = float(row["final_mse"])
    out_rows = []
    for key, present in sorted(groups.items()):
        missing = [m for m in methods if m not in present]
        best = min(present.values(), default="")
        winners = sorted(m for m, v in present.items() if v == best)
        out_rows.append([*key, winners[0] if winners else "", repr(best) if present else "",
                         int(len(winners) > 1), "incomplete" if missing else "ok",
                         ";".join(missing)])
    return out_rows


def _mse_cell(results, row: int, text: str) -> float:
    """The final_mse cell of data row ``row`` (from 1) as a float;
    ValidationError naming the file and the row unless it is a finite
    non-negative number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ValidationError(f"{results}: row {row}: final_mse {text!r} is not a finite number")
    if value < 0.0:
        raise ValidationError(f"{results}: row {row}: final_mse {text!r} is negative")
    return value


def _int_cell(results, row: int, column: str, text: str) -> int:
    """The ``column`` cell of data row ``row`` (from 1) as an int;
    ValidationError naming the file and the row unless it is an integer
    of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"{results}: row {row}: {column} {text!r} is not an integer") from None
    if value < 1:
        raise ValidationError(f"{results}: row {row}: {column} {text!r} is below 1")
    return value


def cmd_compare(args) -> int:
    try:
        raw = Path(args.results).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{args.results}: cannot read results file: {exc.strerror}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start)
        where = f"row {line}" if line else "header"
        raise ValidationError(f"{args.results}: {where}: not UTF-8 text") from exc
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    if not rows:
        raise ValidationError(f"{args.results}: empty results file")
    missing = [c for c in ("bundle", "method", "n", "K", "k", "final_mse") if c not in rows[0]]
    if missing:
        raise ValidationError(f"{args.results}: results file lacks columns {', '.join(missing)}")
    first_rows: dict[tuple, int] = {}
    for number, row in enumerate(rows, start=1):
        # DictReader fills a short row's missing cells with None and keeps a
        # long row's extra cells under the key None.
        if None in row or None in row.values():
            raise ValidationError(
                f"{args.results}: row {number}: has {'more' if None in row else 'fewer'} "
                "fields than the header"
            )
        for column in ("bundle", "method"):
            if not row[column]:
                raise ValidationError(f"{args.results}: row {number}: empty {column}")
        key = (row["bundle"],
               *(_int_cell(args.results, number, c, row[c]) for c in ("n", "K", "k")))
        # A sweep records a run at k > n as an error, with no final_mse; only
        # a result at such a k is impossible.
        if key[3] > key[1] and row["final_mse"] != "":
            raise ValidationError(
                f"{args.results}: row {number}: k {row['k']!r} exceeds n {row['n']!r}")
        # A sweep's ratios may round to the same k (20% and 40% of K = 2
        # are both k = 1); those rows come from one run, so only rows that
        # also share the ratio are duplicates.
        run = key + (row["method"], row.get("k_over_K_pct"))
        first = first_rows.setdefault(run, number)
        if first != number:
            raise ValidationError(
                f"{args.results}: rows {first} and {number} both hold method {row['method']!r} "
                f"on bundle {row['bundle']!r} at n={row['n']}, K={row['K']}, k={row['k']}"
            )
        if row["final_mse"] != "":
            _mse_cell(args.results, number, row["final_mse"])

    out_rows = _winner_rows(rows)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out, WINNER_COLUMNS, out_rows)
    print(f"wrote {args.out} ({len(out_rows)} groups)")
    return EXIT_OK


def cmd_tune(args) -> int:
    suite = _read_suite(args.suite)
    ks = [args.k if args.k is not None else manifest.get("planted_K") for _, manifest in suite]

    # Every (k, point) config the tuner builds is checked before the first
    # bundle loads; sampled points lie in range by construction.
    points = [dict(adam_alpha=a, adam_beta1=b1, adam_beta2=b2) for a, b1, b2 in args.point or ()]
    for (bundle_dir, manifest), k in zip(suite, ks):
        if k is None:
            raise ValidationError(f"{bundle_dir}: no planted_K in manifest and no --k given")
        if k > manifest["n"]:
            raise ValidationError(f"{bundle_dir}: k must be in [1, {manifest['n']}], got {k}")
        for knobs in points or [{}]:
            _checked_config(method="adam", k=k, max_iterations=args.max_iters, **knobs)

    out = Path(args.out)
    _check_out(out, is_dir=False)
    problems = [(data.load_bundle(d), k) for (d, _), k in zip(suite, ks)]
    labels = [bundle.label for bundle, _ in problems]
    out.parent.mkdir(parents=True, exist_ok=True)
    ranked = runner.tune_adam(
        problems, trials=args.trials, seed=args.seed, points=args.point,
        runs_per_problem=args.runs, max_iterations=args.max_iters,
    )
    _write_csv(args.out, ["trial", "alpha", "beta1", "beta2"]
               + [f"mean_mse_{label}" for label in labels] + ["score"],
               ([row["trial"], *map(repr, (row["alpha"], row["beta1"], row["beta2"],
                                           *row["per_problem_mse"], row["score"]))]
                for row in sorted(ranked, key=lambda r: r["trial"])))
    best = ranked[0]
    if not np.isfinite(best["score"]):
        raise SolverDivergedError(
            f"every tuned point has a diverged run (score inf); scores written to {args.out}")
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one solver on one bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--init", choices=runner.INIT_KINDS, default="deterministic")
    p.add_argument("--symmetrize", action="store_true",
                   help="average each R_i with its transpose at load time")
    p.add_argument("--start-from", default=None,
                   help="run output or planted/ directory to start from: G.npy and S.npy, "
                        "or the older text G.txt, S_1.txt ...")
    p.add_argument("--out", required=True)
    _add_solver_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("benchmark", help="method x inner-dimension sweep over a suite")
    p.add_argument("--suite", required=True, help="bundle directory or directory of bundles")
    p.add_argument("--methods", type=_method_list, default=",".join(METHODS))
    p.add_argument("--ratios", type=_ratio_list,
                   default=",".join(str(r) for r in DEFAULT_RATIOS),
                   help="k as a percentage of the planted K")
    p.add_argument("--init", choices=runner.INIT_KINDS, default="deterministic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--jobs", type=int, choices=[1], default=1,
                   help="sweeps run serially; only 1 is accepted")
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
    p.add_argument("--runs", type=_positive_int, default=runner.TUNE_RUNS_PER_PROBLEM,
                   help="runs per (trial, problem)")
    p.add_argument("--seed", type=_seed, default=0)
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
    except OSError as exc:
        # Inputs are read behind ValidationError, so this is an output that
        # cannot be written, such as an --out that names an existing file.
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())

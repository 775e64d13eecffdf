"""The one solve entry point for all four solvers.

``run`` builds the starting point (deterministic spectral G or seeded random
G, seeded random symmetric S blocks), checks it, looks up the configured
method's iteration generator in :data:`SOLVERS` and hands it to
``model.drive``, the one loop that owns the trace and the stopping rules.
Every solver takes and returns native factors, and both the start and the
result are checked to be native.  Everything downstream of (bundle, config,
init kind) is deterministic.

``tune_adam``, the random-search hyper-parameter tuner, scores each point
with seeded random-start ``run`` calls.
"""

from __future__ import annotations

import numpy as np

from . import adam, bcd, fpm, gmels, initialization
from .model import (
    DataBundle,
    DimensionError,
    Factorization,
    SolverConfig,
    SolverDivergedError,
    ValidationError,
    _check_native,
    _symmetric_part,
    check_compatible,
    drive,
)

INIT_KINDS = ("deterministic", "random")

TUNE_ALPHA_RANGE = (1e-4, 1e-1)
TUNE_BETA1_RANGE = (0.2, 0.999)
TUNE_BETA2_RANGE = (0.1, 0.999)
TUNE_RUNS_PER_PROBLEM = 3

# Each method's iteration generator, iterate(bundle, config, start, rng).
SOLVERS = {"fpm": fpm.iterate, "bcd": bcd.iterate, "gmels": gmels.iterate, "adam": adam.iterate}


def build_start(bundle: DataBundle, config: SolverConfig, init: str = "deterministic",
                rng: np.random.Generator | None = None) -> Factorization:
    """The starting factorization ``run`` builds when it is given none.

    ``deterministic`` pairs the spectral G with seeded random symmetric S
    blocks (the S blocks have no deterministic counterpart).  ``random``
    draws both factors uniform(0,1).  Only the spectral G checks ``k``
    against the bundle's n; ``run`` checks it for every start.
    """
    if init not in INIT_KINDS:
        raise ValueError(f"unknown init kind {init!r}, expected one of {INIT_KINDS}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if init == "deterministic":
        g = initialization.deterministic_g(bundle, config.k)
    else:
        g = rng.random((bundle.n, config.k))
    return Factorization(g, initialization.random_symmetric_stack(rng, config.k, bundle.N))


def run(bundle: DataBundle, config: SolverConfig, init: str = "deterministic",
        start: Factorization | None = None):
    """Run the configured solver; returns (native factorization, trace).

    ``config.k`` must lie in [1, n] for every start, built or given
    (DimensionError otherwise).  ``start`` overrides the built starting
    point; it must match ``config.k`` (DimensionError otherwise), every
    block must be finite and non-negative and every S_i symmetric to the
    iterate tolerance (ValidationError otherwise).  The solver starts from
    the exact symmetric part of the S_i, which is the start itself when it
    is already exactly symmetric.
    The returned factors pass the same check, or SolverDivergedError is
    raised with the run's records attached.  bcd's generator receives this
    function's ``rng`` after ``build_start`` has drawn from it.
    """
    if not 1 <= config.k <= bundle.n:
        raise DimensionError(f"k must be in [1, {bundle.n}], got {config.k}")
    rng = np.random.default_rng(config.seed)
    if start is None:
        start = build_start(bundle, config, init, rng)
    check_compatible(bundle, start)
    if start.k != config.k:
        raise DimensionError(f"start has k = {start.k} columns, config.k = {config.k}")
    _check_native(start, "start")
    start = Factorization(start.G, _symmetric_part(start.S))

    # Overflow and NaN are detected explicitly (the trace raises
    # SolverDivergedError on a non-finite SE), so numpy's warnings would only
    # repeat that report.
    with np.errstate(over="ignore", invalid="ignore"):
        fact, trace = drive(bundle, config, SOLVERS[config.method](bundle, config, start, rng))
    try:
        _check_native(fact, f"{config.method} result")
    except ValidationError as exc:
        raise SolverDivergedError(str(exc), records=trace.records) from None
    return fact, trace


def _score_point(problems, alpha, beta1, beta2, run_seeds, max_iterations):
    """Max over problems of the mean final MSE of seeded random-start runs;
    a diverged run counts as MSE inf."""
    per_problem = []
    for (bundle, k), seeds in zip(problems, run_seeds):
        finals = []
        for seed in seeds:
            config = SolverConfig(
                method="adam", k=k, seed=int(seed),
                adam_alpha=alpha, adam_beta1=beta1, adam_beta2=beta2,
                max_iterations=max_iterations,
            )
            try:
                finals.append(run(bundle, config, init="random")[1].final.mse)
            except SolverDivergedError:  # a diverging triple ranks last
                finals.append(np.inf)
        per_problem.append(float(np.mean(finals)))
    return float(max(per_problem)), per_problem


def tune_adam(problems, trials: int, seed: int, *, points=None,
              runs_per_problem: int = TUNE_RUNS_PER_PROBLEM,
              max_iterations: int | None = None):
    """Random-search tuning of (alpha, beta1, beta2) over a problem suite.

    ``problems`` is a sequence of (bundle, k) pairs, normally with k equal to
    the planted inner dimension.  Each trial triple is scored by the maximum
    over problems of the mean final MSE of ``runs_per_problem`` adam runs
    from seeded random starting points.  alpha is sampled log-uniformly on
    [1e-4, 1e-1] (three decades; uniform sampling would oversample the top
    decade), beta1 uniformly on [0.2, 0.999], beta2 on [0.1, 0.999].

    Each run is a ``run(bundle, config, init="random")`` with the run's
    seed in ``config.seed``.  ``points`` replaces the random sampling
    with explicit (alpha, beta1, beta2) triples.  Returns trial dicts sorted
    by score (ties by trial index); deterministic for a fixed seed.
    """
    problems = [(b, int(k)) for b, k in problems]
    rng = np.random.default_rng(seed)
    if points is not None:
        triples = [tuple(float(x) for x in p) for p in points]
    else:
        triples = []
        for _ in range(trials):
            log_alpha = rng.uniform(*np.log10(TUNE_ALPHA_RANGE))
            beta1 = rng.uniform(*TUNE_BETA1_RANGE)
            beta2 = rng.uniform(*TUNE_BETA2_RANGE)
            triples.append((10.0**log_alpha, beta1, beta2))
    run_seeds = rng.integers(2**63, size=(len(triples), len(problems), runs_per_problem))

    rows = []
    for idx, (alpha, beta1, beta2) in enumerate(triples):
        score, per_problem = _score_point(
            problems, alpha, beta1, beta2, run_seeds[idx], max_iterations
        )
        rows.append({"trial": idx, "alpha": alpha, "beta1": beta1, "beta2": beta2,
                     "per_problem_mse": per_problem, "score": score})
    return sorted(rows, key=lambda row: (row["score"], row["trial"]))

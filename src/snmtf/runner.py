"""The one solve entry point for all four solvers.

``run`` builds the starting point (deterministic spectral G or seeded random
G, seeded random symmetric S blocks), checks it, looks up the configured
method's iteration generator in :data:`SOLVERS` and hands it to
``model.drive``, the one loop that owns the trace and the stopping rules.
Every solver takes and returns native factors, and both the start and the
result are checked to be native.  Everything downstream of (bundle, config,
init kind) is deterministic.
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

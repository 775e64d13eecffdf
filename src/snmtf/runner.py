"""One front door for running any of the four solvers on a bundle.

Builds the starting point (deterministic spectral G or seeded random G,
seeded random symmetric S blocks) and dispatches; every solver takes and
returns native factors.  Everything downstream of (bundle, config,
init kind) is deterministic.
"""

from __future__ import annotations

import numpy as np

from . import adam, bcd, fpm, gmels, initialization
from .model import (
    SYMMETRY_ITERATE_RTOL,
    DataBundle,
    DimensionError,
    Factorization,
    SolverConfig,
    _check_finite,
    _check_nonnegative,
    _check_symmetric,
    check_compatible,
)

INIT_KINDS = ("deterministic", "random")


def build_start(bundle: DataBundle, config: SolverConfig, init: str = "deterministic",
                rng: np.random.Generator | None = None) -> Factorization:
    """Starting factorization for a run.

    ``deterministic`` pairs the spectral G with seeded random symmetric S
    blocks (the S blocks have no deterministic counterpart; bcd ignores them
    and refits from constants).  ``random`` draws both factors uniform(0,1).
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

    ``start`` overrides the built starting point; it must match ``config.k``
    (DimensionError otherwise), every block must be finite and non-negative
    and every S_i symmetric to the iterate tolerance (ValidationError
    otherwise).
    """
    rng = np.random.default_rng(config.seed)
    if start is None:
        start = build_start(bundle, config, init, rng)
    check_compatible(bundle, start)
    if start.k != config.k:
        raise DimensionError(f"start has k = {start.k} columns, config.k = {config.k}")
    names = ["start G"] + [f"start S_{i + 1}" for i in range(start.N)]
    for name, x in zip(names, [start.G, *start.S]):
        _check_finite(x, name)
        _check_nonnegative(x, name)
    for name, s in zip(names[1:], start.S):
        _check_symmetric(s, name, SYMMETRY_ITERATE_RTOL)

    # Overflow and NaN are detected explicitly (a non-finite SE or adam
    # gradient raises SolverDivergedError), so numpy's warnings would only
    # repeat that report.
    with np.errstate(over="ignore", invalid="ignore"):
        if config.method == "fpm":
            return fpm.fpm_solve(bundle, config, start)
        if config.method == "bcd":
            return bcd.bcd_solve(bundle, config, start.G, rng=rng)
        if config.method == "gmels":
            return gmels.gmels_solve(bundle, config, start)
        return adam.adam_solve(bundle, config, start)

"""Multiplicative-update solver (fixed-point iteration on the KKT system).

Updates, with element-wise product/division/square root and A = G^T G:

    G   <- G   * sqrt( (sum_i R_i G S_i) / (sum_i G S_i A S_i) )
    S_i <- S_i * sqrt( (G^T R_i G) / (A S_i A) )

Machine epsilon is added to every denominator entry (and only there).  Both
updates preserve non-negativity and zeros exactly; at a strictly positive
exact factorization both ratios are all-ones and the update is the identity.
Each iteration updates G first, then every S_i using the new G.
Data passes (see ``DataBundle.times``): N at the start, N per iteration.
"""

from __future__ import annotations

import numpy as np

from .gradients import _g_terms, _gram_products
from .model import (
    MACHINE_EPS,
    ConvergenceTrace,
    DataBundle,
    Factorization,
    SolverConfig,
    check_compatible,
    se_from_gram,
)


def _update_g(g, gram, h, s) -> np.ndarray:
    """Multiplicative G update from A = G^T G and the stacks H = R_i G and S."""
    num, sas = _g_terms(gram, h, s)
    return g * np.sqrt(num / (g @ sas + MACHINE_EPS))


def _update_s(gram, mid, s) -> np.ndarray:
    """Multiplicative S update from A = G^T G and M = G^T R_i G (one block or
    a stack of them)."""
    return s * np.sqrt(mid / (gram @ s @ gram + MACHINE_EPS))


def fpm_step_g(bundle: DataBundle, fact: Factorization) -> np.ndarray:
    """One multiplicative update of G (S blocks held fixed)."""
    check_compatible(bundle, fact)
    g = fact.G
    return _update_g(g, g.T @ g, bundle.times(g), fact.S)


def fpm_step_s(bundle: DataBundle, fact: Factorization, i: int) -> np.ndarray:
    """One multiplicative update of S_i (G held fixed); it needs only R_i G,
    so it indexes ``bundle.R[i]`` instead of taking a full data pass."""
    check_compatible(bundle, fact)
    g = fact.G
    return _update_s(g.T @ g, g.T @ (bundle.R[i] @ g), fact.S[i])


def fpm_solve(bundle: DataBundle, config: SolverConfig, start: Factorization):
    """Iterate the multiplicative updates from a starting point.

    Returns (native factorization, trace).  Per iteration the data is touched
    once, by the N products H_i = R_i G of the new G: they give the S updates'
    G^T R_i G, SE (through ``se_from_gram``) and the next G update's
    numerator.  A non-finite objective aborts with the partial trace attached
    to the raised error.
    """
    if config.method != "fpm":
        raise ValueError(f"config.method is {config.method!r}, expected 'fpm'")
    check_compatible(bundle, start)
    g, s = start.G, start.S
    norms = bundle.norms_sq

    trace = ConvergenceTrace(bundle, config)
    gram, h, mid = _gram_products(bundle, g)
    trace.start(se_from_gram(norms, gram, mid, s))

    while trace.running:
        g = _update_g(g, gram, h, s)
        gram, h, mid = _gram_products(bundle, g)
        s = _update_s(gram, mid, s)
        trace.step(se_from_gram(norms, gram, mid, s))
    return Factorization(g, s), trace

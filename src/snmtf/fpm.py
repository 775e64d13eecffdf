"""Multiplicative-update solver (fixed-point iteration on the KKT system).

Updates, with element-wise product/division/square root and A = G^T G:

    G   <- G   * sqrt( (sum_i R_i G S_i) / (sum_i G S_i A S_i) )
    S_i <- S_i * sqrt( (G^T R_i G) / (A S_i A) )

Machine epsilon is added to every denominator entry (and only there).  Both
updates preserve non-negativity and zeros exactly; at a strictly positive
exact factorization both ratios are all-ones and the update is the identity.
G^T R_i G and A S_i A enter through their symmetric parts (see
``gradients``), so every S_i stays exactly symmetric.
Each iteration updates G first, then every S_i using the new G.
Data passes (see ``DataBundle.times``): N at the start, N per iteration.

``iterate`` is the solver, an iteration generator that ``runner.run`` hands
to ``model.drive``; ``_update_g`` and ``_update_s`` are its two updates.
"""

from __future__ import annotations

import numpy as np

from .gradients import _g_terms, _gram_products
from .model import (
    MACHINE_EPS,
    DataBundle,
    Factorization,
    SolverConfig,
    _sandwich,
    se_from_gram,
)


def _update_g(g, gram, h, s) -> np.ndarray:
    """Multiplicative G update from A = G^T G and the stacks H = R_i G and S."""
    num, sas = _g_terms(gram, h, s)
    return g * np.sqrt(num / (g @ sas + MACHINE_EPS))


def _update_s(gram, mid, s) -> np.ndarray:
    """Multiplicative S update from A = G^T G and M = G^T R_i G (one block or
    a stack of them); with M and A S A symmetric, a symmetric S stays so."""
    return s * np.sqrt(mid / (_sandwich(gram, s) + MACHINE_EPS))


def iterate(bundle: DataBundle, config: SolverConfig, start: Factorization, rng):
    """The multiplicative updates from a native start, as an iteration
    generator for ``model.drive`` (``config`` and ``rng`` are unused).

    Per iteration the data is touched once, by the N products H_i = R_i G
    of the new G: they give the S updates' G^T R_i G, SE (through
    ``se_from_gram``) and the next G update's numerator.
    """
    g, s = start.G, start.S
    norms = bundle.norms_sq
    gram, h, mid = _gram_products(bundle, g)
    while (yield se_from_gram(norms, gram, mid, s)):
        g = _update_g(g, gram, h, s)
        gram, h, mid = _gram_products(bundle, g)
        s = _update_s(gram, mid, s)
    yield Factorization(g, s)

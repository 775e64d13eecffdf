"""Two-block coordinate descent with projected-gradient inner solves.

Each outer iteration solves the S-block, then the G-block, each by a fixed
number of projected-gradient steps with exact line search:

* S-block: for fixed G the problem splits into N independent convex
  quadratics.  Along the gradient direction dS_i the objective is a quadratic
  in t with closed-form minimizer
  t_i* = <R_i - G S_i G^T, G dS_i G^T> / ||G dS_i G^T||^2, after which the
  step is projected onto the non-negative orthant.  All N blocks step at once
  as one (N, k, k) stack, each with its own t_i*; a block whose denominator
  is not finite and positive is frozen for the rest of the solve.  Each
  projected step is averaged with its transpose, so every S_i stays exactly
  symmetric.
* G-block: along dG the objective is a quartic p(t), the line polynomial of
  ``gradients._line_poly`` with G(t) = G + t dG and S fixed; ``poly_minimize``
  minimizes it over [-1, 0].  When the best step is t = 0 or the decrease is
  smaller than 1e-3, a small uniform random perturbation (scale 1e-5) is
  added before projecting, to escape flat spots.

All line-search quantities are reduced to k x k products (Frobenius traces),
so the cost is dominated by the data passes (see ``DataBundle.times``):
N at the start, then 2 N per G step (R_i dG for the quartic, then R_i G at
the new point, which also serves the next G step and the trace), i.e. 20 N
per outer iteration at the default 10 inner steps.  The S block needs
M_i = G^T R_i G only, which the last G step's products already hold.
"""

from __future__ import annotations

import numpy as np

from .gradients import _grad_g, _gram_products, _line_poly
from .model import (
    ConvergenceTrace,
    DataBundle,
    Factorization,
    LinePolynomial,
    SolverConfig,
    _se_terms,
    _traces,
    check_compatible,
    poly_minimize,
    se_from_gram,
)

SEARCH_INTERVAL = (-1.0, 0.0)
MIN_DECREASE = 1e-3
PERTURBATION_SCALE = 1e-5
INITIAL_S_VALUE = 0.5


def quartic_coeffs(bundle: DataBundle, fact: Factorization, dg: np.ndarray) -> LinePolynomial:
    """Quartic p(t) = sum_i ||R_i - (G+t dG) S_i (G+t dG)^T||^2 along dG: the
    line polynomial with P = (G, dG), Q = (S,)."""
    check_compatible(bundle, fact)
    g, dg = fact.G, np.asarray(dg, float)
    rp = (bundle.times(g), bundle.times(dg))
    return LinePolynomial(_line_poly(bundle, (g, dg), fact.S[None], rp))


def _g_step(bundle: DataBundle, g, gram, h, s, rng):
    """One projected-gradient step on G with exact quartic line search, given
    A = G^T G and the products H_i = R_i G; R_i dG is its one data pass."""
    dg = _grad_g(g, gram, h, s)
    poly = LinePolynomial(_line_poly(bundle, (g, dg), s[None], (h, bundle.times(dg))))
    t = poly_minimize(poly, *SEARCH_INTERVAL)
    g_new = g + t * dg
    if t == 0.0 or poly(t) - poly.c[0] > -MIN_DECREASE:
        g_new = g_new + PERTURBATION_SCALE * rng.random(g.shape)
    return np.maximum(g_new, 0.0)


def linesearch_g(bundle: DataBundle, fact: Factorization, rng: np.random.Generator) -> np.ndarray:
    """Projected exact-line-search update of G (gradient direction, [-1, 0])."""
    check_compatible(bundle, fact)
    g = fact.G
    return _g_step(bundle, g, g.T @ g, bundle.times(g), fact.S, rng)


def linesearch_s(bundle: DataBundle, fact: Factorization, i: int) -> np.ndarray:
    """Projected exact-line-search update of S_i at fixed G; it needs only R_i G,
    so it indexes ``bundle.R[i]`` instead of taking a full data pass."""
    check_compatible(bundle, fact)
    g = fact.G
    mid = g.T @ (bundle.R[i] @ g)
    return _s_inner_solve(g.T @ g, mid[None], fact.S[i][None], 1)[0]


def _s_inner_solve(gram, mid, s, iterations, norms_sq=None, substep_log=None):
    """Projected-gradient inner solve for the (N, k, k) stack ``s`` at fixed G.

    ``mid`` is the stack of M_i = G^T R_i G.  Every block takes its own exact
    step; a block whose step denominator ||G dS_i G^T||^2 is not finite and
    positive is frozen from then on.  ``substep_log``, when given, collects
    one row per block and step with the block's SE before the step, at the
    unprojected line-search point and after projection (``norms_sq`` holds
    the ||R_i||^2); used to study how the projection interacts with descent.

    Each projected step is averaged with its transpose: the steps are
    symmetric only up to the rounding of A S_i A and M_i, which would
    otherwise build up over the outer iterations and break the output
    contract's symmetry.  Averaging per step keeps ``iterations`` steps equal
    to as many one-step solves (:func:`linesearch_s`).
    """
    s = np.array(s, dtype=float)
    live = np.ones(len(s), dtype=bool)
    for step in range(iterations):
        asa = gram @ s @ gram
        ds = 2.0 * (asa - mid)
        denom = _traces(gram @ ds @ gram, ds)
        live &= np.isfinite(denom) & (denom > 0.0)
        if not live.any():
            break
        ds, m, x, asa = ds[live], mid[live], s[live], asa[live]
        t = _traces(m - asa, ds) / denom[live]
        raw = x + t[:, None, None] * ds
        projected = np.maximum(raw, 0.0)
        projected = (projected + projected.swapaxes(1, 2)) / 2.0
        if substep_log is not None:
            norms = np.asarray(norms_sq)[live]
            ses = [_se_terms(norms, m, y, gram @ y @ gram) for y in (x, raw, projected)]
            substep_log.extend(
                {"step": step, "se_before": float(a), "se_unprojected": float(b), "se_projected": float(c)}
                for a, b, c in zip(*ses)
            )
        s[live] = projected
    return s


def bcd_solve(
    bundle: DataBundle,
    config: SolverConfig,
    start_g: np.ndarray,
    rng: np.random.Generator | None = None,
    substep_log: list | None = None,
):
    """Run coordinate descent from a non-negative starting G.

    The S blocks start from constant matrices (all entries 0.5); the first
    S-block solve therefore doubles as the S initialization.  Returns
    (native factorization, trace).
    """
    if config.method != "bcd":
        raise ValueError(f"config.method is {config.method!r}, expected 'bcd'")
    g = np.array(start_g, dtype=float)
    if g.ndim != 2 or g.shape != (bundle.n, config.k):
        raise ValueError(f"start G has shape {g.shape}, expected ({bundle.n}, {config.k})")
    if g.size and float(g.min()) < 0.0:
        raise ValueError("start G must be non-negative")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    s = np.full((bundle.N, config.k, config.k), INITIAL_S_VALUE)
    norms = bundle.norms_sq
    trace = ConvergenceTrace(bundle, config)

    gram, h, mid = _gram_products(bundle, g)
    trace.start(se_from_gram(norms, gram, mid, s))

    while trace.running:
        s = _s_inner_solve(gram, mid, s, config.bcd_inner_iterations, norms, substep_log)
        for _ in range(config.bcd_inner_iterations):
            g = _g_step(bundle, g, gram, h, s, rng)
            gram, h, mid = _gram_products(bundle, g)
        trace.step(se_from_gram(norms, gram, mid, s))
    return Factorization(g, s), trace

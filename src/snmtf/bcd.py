"""Two-block coordinate descent with projected-gradient inner solves.

Each outer iteration solves the S-block, then the G-block, each by the
paper's fixed ``INNER_STEPS`` = 10 projected-gradient steps with exact line
search:

* S-block: for fixed G the problem splits into N independent convex
  quadratics.  Along the gradient direction dS_i the objective is a quadratic
  in t with closed-form minimizer
  t_i* = <R_i - G S_i G^T, G dS_i G^T> / ||G dS_i G^T||^2, after which the
  step is projected onto the non-negative orthant.  All N blocks step at once
  as one (N, k, k) stack, each with its own t_i*; a block whose denominator
  is not finite and positive is frozen for the rest of the solve.  dS_i
  comes from the Gram kernel (``gradients._grad_s``) and is exactly
  symmetric, so every S_i stays exactly symmetric.
* G-block: along dG, with S fixed, the objective is a quartic
  p(t) = SE(G + t dG) - SE(G) (``_quartic``), built from terms the G step
  already holds: A = G^T G, the gradient's numerator sum_i R_i G S_i and
  the one new product R_i dG.  ``poly_minimize`` minimizes it over [-1, 0].
  When the best step is t = 0 or the decrease is smaller than 1e-3, a small
  uniform random perturbation (scale 1e-5) is added before projecting, to
  escape flat spots.

All line-search quantities are reduced to k x k products (Frobenius traces),
so the cost is dominated by the data passes (see ``DataBundle.times``):
N at the start, then 2 N per G step (R_i dG for the quartic, then R_i G at
the new point, which also serves the next G step and the trace), i.e. 20 N
per outer iteration.  The S block and the trace need M_i = G^T R_i G, which
is formed once per G block from the last G step's products.
R_i G is formed afresh rather than carried through the projection, as gmels
carries it along its line.  Measured per G step on the three benchmark
suites, 57-80% of G's entries sit at the active set (G = 0, dG > 0) and stay
0, and only 0.3-1.3% cross zero on average (15% at most), but the crossings
fall in 5.5-34% of the rows (92% at most); the escape perturbation fired in
none of 620 steps.  Carrying R_i G would take R_i dG over the active and the
free entries apart, one 2k-wide pass where the quartic and the fresh product
take k each, plus a correction for the rows that cross.  A prototype of
that was slower: bcd 1.28x at n = 1000 and 1.17x at n = 200.

``iterate`` is the solver, an iteration generator that ``runner.run`` hands
to ``model.drive``; ``linesearch_g`` and ``linesearch_s`` are single steps.
"""

from __future__ import annotations

import numpy as np

from .gradients import _g_terms, _grad_g, _grad_s, _gram_products, _grams, _poly_inner
from .model import (
    DataBundle,
    Factorization,
    SolverConfig,
    _sandwich,
    _se_terms,
    _traces,
    check_compatible,
    poly_minimize,
    poly_value,
    se_from_gram,
)

SEARCH_INTERVAL = (-1.0, 0.0)
MIN_DECREASE = 1e-3
PERTURBATION_SCALE = 1e-5
INNER_STEPS = 10


def quartic_coeffs(bundle: DataBundle, fact: Factorization, dg: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the quartic
    p(t) = sum_i ||R_i - (G+t dG) S_i (G+t dG)^T||^2 along dG: SE at G as
    c0, the rest from ``_quartic``."""
    check_compatible(bundle, fact)
    g, s, dg = fact.G, fact.S, np.asarray(dg, float)
    gram, h, mid = _gram_products(bundle, g)
    c = _quartic(g, dg, gram, s, _g_terms(gram, h, s)[0], bundle.times(dg))
    c[0] = se_from_gram(bundle.norms_sq, gram, mid, s)
    return c


def _quartic(g, dg, gram, s, num, rdg) -> np.ndarray:
    """Ascending coefficients of p(t) = SE(G + t dG) - SE(G) for the (N, k, k)
    stack ``s`` of symmetric S_i; c0 = 0.

    With A_0 = ``gram`` = G^T G, A_1 = G^T dG + dG^T G, A_2 = dG^T dG and
    B_a = A_a S_i, the fit term <A S_i, (A S_i)^T> is the line polynomial
    of the B_a, paired by ``gradients._poly_inner`` as gmels' fit term is.
    The data term -2 <G^T R_i G, S_i> gives -4 t <num, dG> with ``num`` =
    sum_i H_i S_i, the gradient's numerator, and -2 t^2 <E_i, S_i> with
    E_i = dG^T R_i dG from ``rdg``, the (N, n, k) stack R_i dG.  So no
    G^T R_i dG product is formed, and no data pass.
    """
    x = g.T @ dg
    b = np.stack((gram, x + x.T, dg.T @ dg))[:, None] @ s
    c = _poly_inner(b, b.swapaxes(-1, -2))
    c[0] = 0.0
    c[1] -= 4.0 * float(np.vdot(num, dg))
    c[2] -= 2.0 * float(_traces(dg.T @ rdg, s).sum())
    return c


def _g_step(bundle: DataBundle, g, gram, h, s, rng):
    """One projected-gradient step on G with exact quartic line search, given
    A = G^T G and the products H_i = R_i G; R_i dG is its one data pass."""
    dg, num = _grad_g(g, gram, h, s)
    c = _quartic(g, dg, gram, s, num, bundle.times(dg))
    t = poly_minimize(c, *SEARCH_INTERVAL)
    g_new = g + t * dg
    if t == 0.0 or poly_value(c, t) > -MIN_DECREASE:
        g_new = g_new + PERTURBATION_SCALE * rng.random(g.shape)
    return np.maximum(g_new, 0.0)


def linesearch_g(bundle: DataBundle, fact: Factorization, rng: np.random.Generator) -> np.ndarray:
    """Projected exact-line-search update of G (gradient direction, [-1, 0])."""
    check_compatible(bundle, fact)
    g = fact.G
    return _g_step(bundle, g, g.T @ g, bundle.times(g), fact.S, rng)


def linesearch_s(bundle: DataBundle, fact: Factorization, i: int) -> np.ndarray:
    """Projected exact-line-search update of S_i at fixed G."""
    check_compatible(bundle, fact)
    gram, _, mid = _gram_products(bundle, fact.G)
    return _s_inner_solve(gram, mid[i:i + 1], fact.S[i:i + 1], 1)[0]


def _s_inner_solve(gram, mid, s, iterations, norms_sq=None, substep_log=None):
    """Projected-gradient inner solve for the (N, k, k) stack ``s`` at fixed G.

    ``mid`` is the stack of M_i = G^T R_i G from ``_gram_products``, and
    dS_i and A S_i A come from the Gram kernel's ``_grad_s``, so a symmetric
    S_i stays exactly symmetric.  Every block takes its own exact step; a
    block whose step denominator ||G dS_i G^T||^2 is not finite and positive
    is frozen from then on.  ``substep_log``, when given, collects one row
    per block and step with the block's SE before the step, at the
    unprojected line-search point and after projection (``norms_sq`` holds
    the ||R_i||^2); used to study how the projection interacts with descent.
    """
    s = np.array(s, dtype=float)
    live = np.ones(len(s), dtype=bool)
    for step in range(iterations):
        ds, asa = _grad_s(gram, mid, s)
        denom = _traces(_sandwich(gram, ds), ds)
        live &= np.isfinite(denom) & (denom > 0.0)
        if not live.any():
            break
        ds, m, x, asa = ds[live], mid[live], s[live], asa[live]
        t = _traces(m - asa, ds) / denom[live]
        raw = x + t[:, None, None] * ds
        projected = np.maximum(raw, 0.0)
        if substep_log is not None:
            norms = np.asarray(norms_sq)[live]
            ses = [_se_terms(norms, m, y, _sandwich(gram, y)) for y in (x, raw, projected)]
            substep_log.extend(
                {"step": step, "se_before": float(a), "se_unprojected": float(b), "se_projected": float(c)}
                for a, b, c in zip(*ses)
            )
        s[live] = projected
    return s


def iterate(bundle: DataBundle, config: SolverConfig, start: Factorization,
            rng: np.random.Generator, substep_log: list | None = None):
    """Coordinate descent from ``start``, as an iteration generator for
    ``model.drive``; ``rng`` draws the escape perturbations.  ``substep_log``
    is passed to every S-block solve (see ``_s_inner_solve``).
    """
    g, s = start.G, start.S
    norms = bundle.norms_sq
    gram, h, mid = _gram_products(bundle, g)
    while (yield se_from_gram(norms, gram, mid, s)):
        s = _s_inner_solve(gram, mid, s, INNER_STEPS, norms, substep_log)
        for _ in range(INNER_STEPS):
            g = _g_step(bundle, g, g.T @ g, h, s, rng)
            h = bundle.times(g)
        gram, mid = _grams(g, h)
    yield Factorization(g, s)

"""Two-block coordinate descent with projected-gradient inner solves.

Each outer iteration solves the S-block, then the G-block, each by a fixed
number of projected-gradient steps with exact line search:

* S-block: for fixed G the problem splits into N independent convex
  quadratics.  Along the gradient direction dS_i the objective is a quadratic
  in t with closed-form minimizer
  t* = <R_i - G S_i G^T, G dS_i G^T> / ||G dS_i G^T||^2, after which the step
  is projected onto the non-negative orthant.
* G-block: along dG the objective is a quartic p(t) whose five coefficients
  are computed in closed form; p is minimized over [-1, 0].  When the best
  step is t = 0 or the decrease is smaller than 1e-3, a small uniform random
  perturbation (scale 1e-5) is added before projecting, to escape flat spots.

All line-search quantities are reduced to k x k products (Frobenius traces),
so the per-step cost is dominated by the N products R_i @ [G, dG].
"""

from __future__ import annotations

import numpy as np

from .gradients import _gram_step
from .model import (
    DataBundle,
    Factorization,
    LinePolynomial,
    SolverConfig,
    TraceBuilder,
    _require_native,
    check_compatible,
    se_from_gram,
)

SEARCH_INTERVAL = (-1.0, 0.0)
MIN_DECREASE = 1e-3
PERTURBATION_SCALE = 1e-5
INITIAL_S_VALUE = 0.5


def _vdot(a, b) -> float:
    return float(np.vdot(a, b))


def _quartic_coefficients(r_list, norms_sq, g, s_list, dg, h_list=None) -> np.ndarray:
    """Ascending coefficients of p(t) = sum_i ||R_i - (G+t dG) S_i (G+t dG)^T||^2.

    With Z_i the residual, P_i = dG S_i G^T + G S_i dG^T and
    Q_i = dG S_i dG^T:

        c0 = sum ||Z_i||^2            c1 = -2 sum <Z_i, P_i>
        c2 = sum (||P_i||^2 - 2 <Z_i, Q_i>)
        c3 = 2 sum <P_i, Q_i>         c4 = sum ||Q_i||^2

    evaluated through k x k traces (A = G^T G, B = G^T dG, C = dG^T dG,
    M_i = G^T R_i G, N_i = G^T R_i dG, O_i = dG^T R_i dG).  ``h_list``
    passes in precomputed R_i @ G products when the caller already has them.
    """
    a = g.T @ g
    b = g.T @ dg
    cc = dg.T @ dg
    coeffs = np.zeros(5)
    if h_list is None:
        h_list = [r @ g for r in r_list]
    for r, nrm, s, h in zip(r_list, norms_sq, s_list, h_list):
        j = r @ dg
        m = g.T @ h
        nk = g.T @ j
        o = dg.T @ j
        sas = s @ a @ s
        sbs = s @ b @ s
        scs = s @ cc @ s
        y = s @ b.T
        z_sq = nrm - 2.0 * _vdot(m, s) + _vdot(sas, a)
        zp = 2.0 * _vdot(nk, s) - 2.0 * _vdot(b, sas)
        zq = _vdot(o, s) - _vdot(sbs, b)
        p_sq = 2.0 * _vdot(scs, a) + 2.0 * _vdot(y, y.T)
        pq = _vdot(scs, b) + _vdot(sbs, cc)
        q_sq = _vdot(scs, cc)
        coeffs[0] += z_sq
        coeffs[1] += -2.0 * zp
        coeffs[2] += p_sq - 2.0 * zq
        coeffs[3] += 2.0 * pq
        coeffs[4] += q_sq
    return coeffs


def quartic_coeffs(bundle: DataBundle, fact: Factorization, dg: np.ndarray) -> LinePolynomial:
    """Quartic step-size polynomial along dG at a native-coordinates point."""
    _require_native(fact, "quartic_coeffs")
    check_compatible(bundle, fact)
    c = _quartic_coefficients(bundle.R, bundle.norms_sq, fact.G, fact.S, np.asarray(dg, float))
    return LinePolynomial(c)


def _minimize_quartic(poly: LinePolynomial, lo: float = SEARCH_INTERVAL[0], hi: float = SEARCH_INTERVAL[1]) -> float:
    """Global minimum of a quartic on [lo, hi].

    Candidates: the interval endpoints and the real parts of the roots of the
    cubic p', clipped to [lo, hi].  The real stationary points are among them,
    so this is the exact global minimum.  Ties keep the earliest candidate, so
    a flat polynomial returns ``hi`` (= 0 for the descent interval).
    """
    roots = np.roots(poly.derivative_coeffs()[::-1])
    candidates = [hi, lo] + [float(t) for t in np.clip(roots.real, lo, hi)]
    values = [poly(t) for t in candidates]
    return candidates[int(np.argmin(values))]


def _g_step(r_list, norms_sq, g, s_list, rng):
    """One projected-gradient step on G with exact quartic line search."""
    _, dg, _, h_list = _gram_step(r_list, norms_sq, g, s_list)
    coeffs = _quartic_coefficients(r_list, norms_sq, g, s_list, dg, h_list)
    poly = LinePolynomial(coeffs)
    t = _minimize_quartic(poly)
    g_new = g + t * dg
    if t == 0.0 or poly(t) - coeffs[0] > -MIN_DECREASE:
        g_new = g_new + PERTURBATION_SCALE * rng.random(g.shape)
    return np.maximum(g_new, 0.0)


def linesearch_g(bundle: DataBundle, fact: Factorization, rng: np.random.Generator) -> np.ndarray:
    """Projected exact-line-search update of G (gradient direction, [-1, 0])."""
    _require_native(fact, "linesearch_g")
    check_compatible(bundle, fact)
    return _g_step(bundle.R, bundle.norms_sq, fact.G, fact.S, rng)


def linesearch_s(bundle: DataBundle, fact: Factorization, i: int) -> np.ndarray:
    """Projected exact-line-search update of S_i at fixed G."""
    _require_native(fact, "linesearch_s")
    check_compatible(bundle, fact)
    g = fact.G
    gram = g.T @ g
    mid = g.T @ (bundle.R[i] @ g)
    return _s_inner_solve(gram, mid, fact.S[i], 1)


def _s_inner_solve(gram, mid, s, iterations, norm_sq=None, substep_log=None):
    """Projected-gradient inner solve for one S block at fixed G.

    ``substep_log``, when given, collects per-step SE values (before the
    step, at the unprojected line-search point, and after projection) via the
    trace identity; used to study how the projection interacts with descent.
    """
    s = s.copy()
    for step in range(iterations):
        asa = gram @ s @ gram
        ds = 2.0 * (asa - mid)
        adsa = gram @ ds @ gram
        denom = _vdot(adsa, ds)
        if not np.isfinite(denom) or denom <= 0.0:
            break
        t = _vdot(mid - asa, ds) / denom
        raw = s + t * ds
        projected = np.maximum(raw, 0.0)
        if substep_log is not None:
            substep_log.append(
                {
                    "step": step,
                    "se_before": _block_se(norm_sq, gram, mid, s),
                    "se_unprojected": _block_se(norm_sq, gram, mid, raw),
                    "se_projected": _block_se(norm_sq, gram, mid, projected),
                }
            )
        s = projected
    return s


def _block_se(norm_sq, gram, mid, s) -> float:
    return norm_sq - 2.0 * _vdot(mid, s) + _vdot(gram @ s @ gram, s)


def _g_products(r_list, g):
    gram = g.T @ g
    mid = [g.T @ (r @ g) for r in r_list]
    return gram, mid


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

    s_list = [np.full((config.k, config.k), INITIAL_S_VALUE) for _ in range(bundle.N)]
    norms = bundle.norms_sq
    tracer = TraceBuilder(bundle, config)

    gram, mid = _g_products(bundle.R, g)
    tracer.start(se_from_gram(norms, gram, mid, s_list))

    stop = None
    for outer in range(1, config.max_iterations + 1):
        for i in range(bundle.N):
            s_list[i] = _s_inner_solve(
                gram, mid[i], s_list[i], config.bcd_inner_iterations,
                norm_sq=norms[i], substep_log=substep_log,
            )
        for _ in range(config.bcd_inner_iterations):
            g = _g_step(bundle.R, norms, g, s_list, rng)
        gram, mid = _g_products(bundle.R, g)
        stop = tracer.step(outer, se_from_gram(norms, gram, mid, s_list))
        if stop is not None:
            break
    return Factorization(g, s_list), tracer.finish(stop)

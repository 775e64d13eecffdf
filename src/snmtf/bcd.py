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
so the cost is dominated by the data passes (see ``DataBundle.times``):
N at the start, then per outer iteration 2 N per G step (R_i G, then R_i dG,
which needs dG and so cannot share one n x 2k product with R_i G) plus N for
the next S block, i.e. 21 N at the default 10 inner steps.
"""

from __future__ import annotations

import numpy as np

from .gradients import _gram_products, _gram_step
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


def _traces(x, y) -> np.ndarray:
    """Frobenius inner products <X_i, Y_i> over a (N, k, k) stack ``x``;
    ``y`` is a stack too or one k x k matrix shared by every i.  ``np.vecdot``
    (numpy 2) takes the same dot product as ``np.vdot``, term for term."""
    return np.vecdot(x.reshape(len(x), -1), y.reshape(*y.shape[:-2], -1))


def _quartic_coefficients(bundle: DataBundle, g, s, dg, h) -> np.ndarray:
    """Ascending coefficients of p(t) = sum_i ||R_i - (G+t dG) S_i (G+t dG)^T||^2.

    With Z_i the residual, P_i = dG S_i G^T + G S_i dG^T and
    Q_i = dG S_i dG^T:

        c0 = sum ||Z_i||^2            c1 = -2 sum <Z_i, P_i>
        c2 = sum (||P_i||^2 - 2 <Z_i, Q_i>)
        c3 = 2 sum <P_i, Q_i>         c4 = sum ||Q_i||^2

    evaluated through k x k traces (A = G^T G, B = G^T dG, C = dG^T dG,
    M_i = G^T R_i G, N_i = G^T R_i dG, O_i = dG^T R_i dG).  ``s`` is the
    (N, k, k) stack of the S_i and ``h`` the stack of products R_i G that the
    gradient already took, so the products R_i dG are this function's one
    data pass.
    """
    a = g.T @ g
    b = g.T @ dg
    cc = dg.T @ dg
    j = bundle.times(dg)
    m = g.T @ h
    nk = g.T @ j
    o = dg.T @ j
    sas = s @ a @ s
    sbs = s @ b @ s
    scs = s @ cc @ s
    y = s @ b.T
    z_sq = np.asarray(bundle.norms_sq) - 2.0 * _traces(m, s) + _traces(sas, a)
    zp = 2.0 * _traces(nk, s) - 2.0 * _traces(sas, b)
    zq = _traces(o, s) - _traces(sbs, b)
    p_sq = 2.0 * _traces(scs, a) + 2.0 * _traces(y, y.swapaxes(1, 2))
    pq = _traces(scs, b) + _traces(sbs, cc)
    q_sq = _traces(scs, cc)
    terms = np.stack((z_sq, -2.0 * zp, p_sq - 2.0 * zq, 2.0 * pq, q_sq), axis=1)
    return terms.sum(axis=0)  # an axis-0 sum adds the rows in order of i


def quartic_coeffs(bundle: DataBundle, fact: Factorization, dg: np.ndarray) -> LinePolynomial:
    """Quartic step-size polynomial along dG at a native-coordinates point."""
    _require_native(fact, "quartic_coeffs")
    check_compatible(bundle, fact)
    g = fact.G
    c = _quartic_coefficients(bundle, g, np.array(fact.S), np.asarray(dg, float), bundle.times(g))
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


def _g_step(bundle: DataBundle, g, s, rng):
    """One projected-gradient step on G with exact quartic line search."""
    _, dg, _, h = _gram_step(bundle, g, s)
    coeffs = _quartic_coefficients(bundle, g, s, dg, h)
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
    return _g_step(bundle, fact.G, np.array(fact.S), rng)


def linesearch_s(bundle: DataBundle, fact: Factorization, i: int) -> np.ndarray:
    """Projected exact-line-search update of S_i at fixed G; it needs only R_i G,
    so it indexes ``bundle.R[i]`` instead of taking a full data pass."""
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
    tracer = TraceBuilder(bundle, config)

    gram, _, mid = _gram_products(bundle, g)
    tracer.start(se_from_gram(norms, gram, mid, s))

    stop = None
    for outer in range(1, config.max_iterations + 1):
        for i in range(bundle.N):
            s[i] = _s_inner_solve(
                gram, mid[i], s[i], config.bcd_inner_iterations,
                norm_sq=norms[i], substep_log=substep_log,
            )
        for _ in range(config.bcd_inner_iterations):
            g = _g_step(bundle, g, s, rng)
        gram, _, mid = _gram_products(bundle, g)
        stop = tracer.step(outer, se_from_gram(norms, gram, mid, s))
        if stop is not None:
            break
    return Factorization(g, list(s)), tracer.finish(stop)

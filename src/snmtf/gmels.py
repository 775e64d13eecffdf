"""Gradient descent with exact line search on the squared-variable objective.

In SQUARE coordinates the objective

    SE = sum_i || R_i - G'^2 S_i'^2 G'^2T ||^2        (squares element-wise)

is a polynomial, so along the negative gradient it restricts to a degree-12
univariate polynomial p(t) = SE(G' - t dG', S_i' - t dS_i') whose thirteen
coefficients can be assembled exactly.  Along the line the native factors are
quadratic in t, G(t) = P0 + t P1 + t^2 P2 and S_i(t) = Q0 + t Q1 + t^2 Q2, and

    p(t) = sum_i ||R_i||^2 - 2 <G(t)^T R_i G(t), S_i(t)> + <A S_i, (A S_i)^T>(t)

with A(t) = G(t)^T G(t).  Given R_i P0 (the products the gradient already
needs), only R_i P1 and R_i P2 touch the data; everything else is k x k
polynomial algebra, so no n x n matrix is ever formed.  Every iteration steps
all variables by the global minimizer of p, so SE never increases.
"""

from __future__ import annotations

import numpy as np

from .gradients import _transformed_step
from .model import (
    DataBundle,
    Factorization,
    LinePolynomial,
    SolverConfig,
    TraceBuilder,
    Transform,
    check_compatible,
)

# Coefficient below 1e-14 of the largest are treated as zero when the
# derivative's companion matrix is formed.
LEADING_COEFF_RTOL = 1e-14
REAL_ROOT_IMAG_RTOL = 1e-8

SQUARE = Transform.SQUARE


def _require_square_coords(fact: Factorization, what: str) -> None:
    if fact.coords is not SQUARE:
        raise ValueError(f"{what} expects square-transform coordinates, got {fact.coords.value}")


def _square_line(x, d) -> np.ndarray:
    """Stacked coefficients of (x + t d)^2 = x^2 + 2t x*d + t^2 d^2, element-wise."""
    return np.stack((x * x, 2.0 * x * d, d * d))


def _poly_matmul(x, y) -> np.ndarray:
    """Stacked coefficients of the matrix polynomial product X(t) Y(t)."""
    out = np.zeros((len(x) + len(y) - 1, x.shape[1], y.shape[2]))
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            out[a + b] += xa @ yb
    return out


def _poly_inner(x, y) -> np.ndarray:
    """Ascending coefficients of the Frobenius product <X(t), Y(t)>."""
    pairs = np.tensordot(x, y, axes=([1, 2], [1, 2]))
    out = np.zeros(len(x) + len(y) - 1)
    for a, row in enumerate(pairs):
        out[a:a + len(y)] += row
    return out


def _line_poly_coefficients(r_list, norms_sq, g, s_list, step_g, step_s, h_list) -> np.ndarray:
    """Ascending coefficients of p(t) = SE(G + t step_G, S_i + t step_S_i).

    ``g`` / ``s_list`` are the SQUARE-coordinates variables and ``h_list``
    holds R_i P0 = R_i (G * G), the native products at the current point.
    """
    p = _square_line(g, step_g)
    pt = p.transpose(0, 2, 1)
    gram = _poly_matmul(pt, p)
    coeffs = np.zeros(13)
    for r, nrm, s, ds, h in zip(r_list, norms_sq, s_list, step_s, h_list):
        q = _square_line(s, ds)
        mid = _poly_matmul(pt, np.stack((h, r @ p[1], r @ p[2])))
        asq = _poly_matmul(gram, q)
        coeffs[0] += nrm
        coeffs[:7] -= 2.0 * _poly_inner(mid, q)
        coeffs += _poly_inner(asq, asq.transpose(0, 2, 1))
    return coeffs


def line_poly_coeffs(bundle: DataBundle, fact: Factorization, grad_g, grad_s) -> LinePolynomial:
    """Degree-12 polynomial p(t) = SE(G - t dG, S_i - t dS_i).

    ``grad_g`` / ``grad_s`` are the gradients at the current point; the sign
    flip to the descent direction happens here, so p describes exactly the
    trial step the solver takes.
    """
    _require_square_coords(fact, "line_poly_coeffs")
    check_compatible(bundle, fact)
    native_g = SQUARE.apply(fact.G)
    h_list = [r @ native_g for r in bundle.R]
    step_g = -np.asarray(grad_g, dtype=float)
    step_s = [-np.asarray(d, dtype=float) for d in grad_s]
    c = _line_poly_coefficients(bundle.R, bundle.norms_sq, fact.G, fact.S, step_g, step_s, h_list)
    return LinePolynomial(c)


def poly_minimize(poly: LinePolynomial) -> float:
    """Global minimizer of p among {0} and the real stationary points.

    Stationary points are the roots of p', found as eigenvalues of the
    balanced companion matrix after stripping leading coefficients below
    1e-14 of the largest.  Near-real roots (|imag| <= 1e-8 (1 + |real|)) are
    kept.  Ties prefer smaller p, then smaller |t|, then the negative sign.
    """
    dc = poly.derivative_coeffs()
    if dc.size == 0:
        return 0.0
    scale = float(np.abs(dc).max())
    if scale == 0.0:
        return 0.0
    keep = np.nonzero(np.abs(dc) > LEADING_COEFF_RTOL * scale)[0]
    dc = dc[: keep[-1] + 1]
    if len(dc) == 1:
        # p' is a nonzero constant: p is effectively linear; stay at 0.
        return 0.0
    roots = np.roots(dc[::-1])
    real = [float(r.real) for r in roots if abs(r.imag) <= REAL_ROOT_IMAG_RTOL * (1.0 + abs(r.real))]
    candidates = np.array([0.0] + real)
    values = poly(candidates)
    order = np.lexsort((candidates, np.abs(candidates), values))
    return float(candidates[order[0]])


def gmels_solve(bundle: DataBundle, config: SolverConfig, start: Factorization):
    """Run the exact line search from a SQUARE-coordinates starting point.

    Returns (native factorization, trace); the native factors are the
    element-wise squares of the final variables.  Per iteration the data is
    touched by 3 N products R_i X with X of shape n x k.
    """
    if config.method != "gmels":
        raise ValueError(f"config.method is {config.method!r}, expected 'gmels'")
    _require_square_coords(start, "gmels_solve")
    check_compatible(bundle, start)

    fact = start.copy()
    tracer = TraceBuilder(bundle, config)
    se_value, dg, ds, h_list = _transformed_step(bundle, fact)
    tracer.start(se_value)

    stop = None
    for it in range(1, config.max_iterations + 1):
        step_g = -dg
        step_s = [-d for d in ds]
        poly = LinePolynomial(_line_poly_coefficients(
            bundle.R, bundle.norms_sq, fact.G, fact.S, step_g, step_s, h_list
        ))
        t = poly_minimize(poly)
        if t != 0.0:
            fact.G += t * step_g
            for s, d in zip(fact.S, step_s):
                s += t * d
        se_value, dg, ds, h_list = _transformed_step(bundle, fact)
        stop = tracer.step(it, se_value)
        if stop is not None:
            break
    return fact.to_native(), tracer.finish(stop)

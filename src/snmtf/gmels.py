"""Gradient descent with exact line search on the squared-variable objective.

The solver substitutes G = G'^2 and S_i = S_i'^2 element-wise
(``Transform.SQUARE``): it lifts a native start to the raw variables G' and
the stack of the S_i' by element-wise square roots, works on those plain
arrays, and squares them back at the end.  In the raw variables the objective

    SE = sum_i || R_i - G'^2 S_i'^2 G'^2T ||^2        (squares element-wise)

is a polynomial, so along the negative gradient it restricts to a degree-12
univariate polynomial p(t) = SE(G' - t dG', S_i' - t dS_i') whose thirteen
coefficients can be assembled exactly.  Along the line the native factors are
quadratic in t, G(t) = P0 + t P1 + t^2 P2 and S_i(t) = Q0 + t Q1 + t^2 Q2, and

    p(t) = sum_i ||R_i||^2 - 2 <G(t)^T R_i G(t), S_i(t)> + <A S_i, (A S_i)^T>(t)

with A(t) = G(t)^T G(t).  Given R_i P0 (the products the gradient already
needs), only R_i P1 and R_i P2 touch the data; the coefficients then come
from the line-polynomial kernel that bcd's quartic shares
(``gradients._line_poly``), k x k polynomial algebra in which no n x n matrix
is formed.  Every iteration steps all variables by the global minimizer of p
(``poly_minimize``, unbounded), so SE never increases.

Data passes (see ``DataBundle.times``): N at the start, 3 N per iteration
(R_i [P1, P2] as one n x 2k product, then R_i G at the new point).
"""

from __future__ import annotations

import numpy as np

from .gradients import _line_poly, _transformed_step
from .model import (
    ConvergenceTrace,
    DataBundle,
    Factorization,
    LinePolynomial,
    SolverConfig,
    Transform,
    check_compatible,
    poly_minimize,
)

SQUARE = Transform.SQUARE


def _square_line(x, d) -> np.ndarray:
    """Stacked coefficients of (x + t d)^2 = x^2 + 2t x*d + t^2 d^2, element-wise."""
    return np.stack((x * x, 2.0 * x * d, d * d))


def _line_poly_coefficients(bundle: DataBundle, g, s, step_g, step_s, h) -> np.ndarray:
    """Ascending coefficients of p(t) = SE(G + t step_G, S_i + t step_S_i).

    ``g`` and the (N, k, k) stack ``s`` are the raw variables G' and S_i'
    and ``h`` holds the stack R_i P0 = R_i (G * G), the native products at
    the current point.  The products R_i [P1, P2] are this function's one
    n x 2k data pass.
    """
    k = g.shape[1]
    p = _square_line(g, step_g)
    rp = bundle.times(np.hstack((p[1], p[2])))
    return _line_poly(bundle, p, _square_line(s, step_s), (h, rp[..., :k], rp[..., k:]))


def line_poly_coeffs(bundle: DataBundle, g, s, grad_g, grad_s) -> LinePolynomial:
    """Degree-12 polynomial p(t) = SE((G' - t dG')^2, (S_i' - t dS_i')^2).

    ``g`` and ``s`` (a stack or sequence of the S_i') are the raw variables
    and ``grad_g`` / ``grad_s`` the gradients there; the sign flip to the
    descent direction happens here, so p describes exactly the trial step
    the solver takes.
    """
    g = np.asarray(g, dtype=float)
    s = np.asarray(s, dtype=float)
    native = Factorization(SQUARE.apply(g), SQUARE.apply(s))
    check_compatible(bundle, native)
    h = bundle.times(native.G)
    step_g = -np.asarray(grad_g, dtype=float)
    step_s = -np.asarray(grad_s, dtype=float)
    return LinePolynomial(_line_poly_coefficients(bundle, g, s, step_g, step_s, h))


def gmels_solve(bundle: DataBundle, config: SolverConfig, start: Factorization):
    """Run the exact line search from a native starting point.

    Returns (native factorization, trace).  The start is lifted by
    element-wise square roots (ValidationError on a negative entry) and the
    result is the element-wise square of the final raw variables.
    """
    if config.method != "gmels":
        raise ValueError(f"config.method is {config.method!r}, expected 'gmels'")
    check_compatible(bundle, start)

    g, s = SQUARE.lift(start.G), SQUARE.lift(start.S)
    trace = ConvergenceTrace(bundle, config)
    se_value, dg, ds, h = _transformed_step(bundle, SQUARE, g, s)
    trace.start(se_value)

    while trace.running:
        poly = LinePolynomial(_line_poly_coefficients(bundle, g, s, -dg, -ds, h))
        t = poly_minimize(poly)
        if t != 0.0:
            g -= t * dg
            s -= t * ds
        se_value, dg, ds, h = _transformed_step(bundle, SQUARE, g, s)
        trace.step(se_value)
    return Factorization(SQUARE.apply(g), SQUARE.apply(s)), trace

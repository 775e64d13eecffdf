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
needs), only R_i P1 and R_i P2 touch the data, as one n x 2k pass over the
last 2k columns of the n x 3k matrix [P0 P1 P2].  The coefficients then come
from the line-polynomial kernel ``gradients._line_poly``: a few GEMMs over
the products as the pass returns them, and k x k polynomial algebra, in which
no n x n matrix is formed.  Every iteration steps all variables by the global
minimizer t* of p (``poly_minimize``, unbounded), so SE never increases.

The products R_i G at the new point follow from the same ones: G(t*) is on
the line, so R_i G(t*) = R_i P0 + t* R_i P1 + t*^2 R_i P2.  The solver
carries H_i = R_i G through the iterations that way and never forms it
again after the start; the carried H_i stays within rounding of a fresh
product (a test pins the drift).  Data passes (see ``DataBundle.times``):
N at the start, 2 N per iteration (R_i [P1, P2] as one n x 2k product).

``iterate`` is the solver, an iteration generator that ``runner.run`` hands
to ``model.drive``.
"""

from __future__ import annotations

import numpy as np

from .gradients import _line_poly, _transformed_step
from .model import (
    DataBundle,
    Factorization,
    SolverConfig,
    Transform,
    poly_minimize,
)

SQUARE = Transform.SQUARE


def _square_line(x, d) -> np.ndarray:
    """Stacked coefficients of (x + t d)^2 = x^2 + 2t x*d + t^2 d^2, element-wise."""
    return np.stack((x * x, 2.0 * x * d, d * d))


def _line_poly_coefficients(bundle: DataBundle, g, s, step_g, step_s, h):
    """Ascending coefficients of p(t) = SE(G + t step_G, S_i + t step_S_i),
    and the products (R_i P1, R_i P2).

    ``g`` and the (N, k, k) stack ``s`` are the raw variables G' and S_i'
    and ``h`` holds R_i P0 = R_i (G * G), the native products at the
    current point.  P0, P1 and P2 are written side by side into one
    n x 3k matrix, and R_i [P1, P2], over its last 2k columns, is this
    function's one data pass; its (2k, N, n) output splits into the
    contiguous (k, N, n) halves R_i P1 and R_i P2, in the layout of ``h``
    (see ``DataBundle.times``).
    """
    k = g.shape[1]
    p = np.empty((len(g), 3 * k))
    np.multiply(g, g, out=p[:, :k])
    np.multiply(2.0 * g, step_g, out=p[:, k:2 * k])
    np.multiply(step_g, step_g, out=p[:, 2 * k:])
    rp = bundle.times(p[:, k:])
    rp = (rp[:k], rp[k:])
    return _line_poly(bundle, p, _square_line(s, step_s), (h, *rp)), rp


def iterate(bundle: DataBundle, config: SolverConfig, start: Factorization, rng):
    """The exact line search from a native start, as an iteration generator
    for ``model.drive`` (``config`` and ``rng`` are unused).

    The start is lifted by element-wise square roots and the result is the
    element-wise square of the final raw variables.  H_i = R_i G is formed
    once, at the start, and then moved along each step's line.
    """
    g, s = SQUARE.lift(start.G), SQUARE.lift(start.S)
    h = bundle.times(SQUARE.apply(g))
    se_value, dg, ds = _transformed_step(bundle, SQUARE, g, s, h)
    while (yield se_value):
        coeffs, (rp1, rp2) = _line_poly_coefficients(bundle, g, s, -dg, -ds, h)
        t = poly_minimize(coeffs)
        g -= t * dg
        s -= t * ds
        # h + (t rp1 + t^2 rp2), summed in the products' own storage: they
        # are spent after this step, and no N x n x k temporary is made.
        # Dropping them here keeps them from living on beside the next pass.
        rp1 *= t
        rp2 *= t * t
        rp1 += rp2
        h += rp1
        del rp1, rp2
        se_value, dg, ds = _transformed_step(bundle, SQUARE, g, s, h)
    yield Factorization(SQUARE.apply(g), SQUARE.apply(s))

"""Adaptive moment estimation on the absolute-value-transformed objective.

The solver substitutes G = |G'| and S_i = |S_i'| element-wise
(``Transform.ABS``): a native start is already a valid point in the raw
variables G' and the stack of the S_i', which are held as plain arrays, and
the result is their element-wise absolute value.

Per step and per variable X (X ranges over G' and the stack of the S_i'):

    M_X <- beta1 M_X + (1 - beta1) dX
    V_X <- beta2 V_X + (1 - beta2) dX * dX
    X   <- X - eta * M_X / (sqrt(V_X) + eps)

with element-wise products, division and square root, and the fixed
eps = ``EPSILON`` = 1e-8.  The step size at step i is
eta = alpha * sqrt(1 - (1 - beta2)^i) / (1 - (1 - beta1)^i).
No descent guarantee holds, so no monotonicity is asserted anywhere.

The objective and gradient come from the shared Gram step, and no n x n
temporary is formed.  Data passes (see ``DataBundle.times``): N at the start,
N per iteration.

``iterate`` is the solver, an iteration generator that ``runner.run`` hands
to ``model.drive``; ``_eta`` is its step size and ``_moment_update`` its
step, once for G' and once for the S' stack.
"""

from __future__ import annotations

import math

import numpy as np

from .gradients import _transformed_step
from .model import DataBundle, Factorization, SolverConfig, Transform

ABS = Transform.ABS

EPSILON = 1e-8


def _eta(alpha: float, beta1: float, beta2: float, i: int) -> float:
    """Step size alpha * sqrt(1 - (1 - beta2)^i) / (1 - (1 - beta1)^i) at
    step i >= 1; tends to alpha as i grows."""
    return alpha * math.sqrt(1.0 - (1.0 - beta2) ** i) / (1.0 - (1.0 - beta1) ** i)


def _moment_update(m, v, grad, eta, beta1, beta2, x) -> None:
    """Advance the moments M and V of one variable X by its gradient, and
    step X, all three in place."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    x -= eta * m / (np.sqrt(v) + EPSILON)


def iterate(bundle: DataBundle, config: SolverConfig, start: Factorization, rng):
    """Adam from a native start, as an iteration generator for
    ``model.drive`` (``rng`` is unused).

    The start is copied into the raw variables and the result is the
    element-wise absolute value of the final raw variables.  A diverging run
    is ended by the trace (``model.ConvergenceTrace.step``): a non-finite
    gradient makes the next SE non-finite.
    """
    g, s = ABS.lift(start.G), ABS.lift(start.S)
    m_g, v_g, m_s, v_s = np.zeros_like(g), np.zeros_like(g), np.zeros_like(s), np.zeros_like(s)
    alpha, beta1, beta2 = config.adam_alpha, config.adam_beta1, config.adam_beta2
    se_value, dg, ds = _transformed_step(bundle, ABS, g, s, bundle.times(ABS.apply(g)))
    it = 0
    while (yield se_value):
        it += 1
        eta = _eta(alpha, beta1, beta2, it)
        _moment_update(m_g, v_g, dg, eta, beta1, beta2, g)
        _moment_update(m_s, v_s, ds, eta, beta1, beta2, s)
        se_value, dg, ds = _transformed_step(bundle, ABS, g, s, bundle.times(ABS.apply(g)))
    yield Factorization(ABS.apply(g), ABS.apply(s))

"""Exact objective gradients in native and transformed coordinates.

Native coordinates (G, S_i >= 0):

    dG   = -4 sum_i R_i G S_i + 4 sum_i G S_i (G^T G) S_i
    dS_i = -2 G^T R_i G + 2 (G^T G) S_i (G^T G)

Transformed coordinates X = f(X') with Z_i = R_i - f(G') f(S_i') f(G')^T:

    dG'   = -4 sum_i f'(G') * (Z_i f(G') f(S_i')^T)
    dS_i' = -2 f'(S_i') * (f(G')^T Z_i f(G'))

where * is the element-wise product and f' acts element-wise.  Only the i-th
residual enters dS_i' (the cross terms vanish identically; a finite-difference
oracle in the test suite pins this down).

The native gradient needs no residual: with H_i = R_i G it is k x k algebra
on A = G^T G and M_i = G^T H_i, and so is SE (``se_from_gram``).  Every solver
gets its objective and gradient from that one Gram step; in transformed
coordinates the gradient follows by the chain rule, dX' = f'(X') * dX.
:func:`grad_transformed` evaluates the formulas above from the n x n residuals
instead and is kept as the independent reference the tests compare against.
"""

from __future__ import annotations

import numpy as np

from .model import (
    DataBundle,
    Factorization,
    Transform,
    _require_native,
    check_compatible,
    residuals,
    se_from_gram,
)

__all__ = ["Transform", "grad_native", "grad_transformed"]


def grad_native(bundle: DataBundle, fact: Factorization):
    """Gradient of SE with respect to G and each S_i at a native point.

    Returns (dG, [dS_1 .. dS_N]).  Every dS_i is symmetric whenever S_i is.
    """
    _require_native(fact, "grad_native")
    check_compatible(bundle, fact)
    _, dg, ds, _ = _gram_step(bundle.R, bundle.norms_sq, fact.G, fact.S)
    return dg, ds


def _gram_step(r_list, norms_sq, g, s_list):
    """SE and native gradient at (G, [S_i]) from the N products H_i = R_i G.

    Returns (SE, dG, [dS_i], [H_i]); the products are handed back for callers
    that reuse them.  No n x n matrix is formed.
    """
    gram = g.T @ g
    h_list = [r @ g for r in r_list]
    mid = [g.T @ h for h in h_list]
    num = np.zeros_like(g)
    sas = np.zeros_like(gram)
    ds = []
    for h, m, s in zip(h_list, mid, s_list):
        ds.append(2.0 * (gram @ s @ gram - m))
        num += h @ s
        sas += s @ gram @ s
    dg = 4.0 * (g @ sas - num)
    return se_from_gram(norms_sq, gram, mid, s_list), dg, ds, h_list


def _transformed_step(bundle: DataBundle, fact: Factorization):
    """SE and the gradient in the stored variables, f = fact.coords.

    Runs :func:`_gram_step` at the native point (f(G'), [f(S_i')]) and applies
    the chain rule dX' = f'(X') * dX.  Returns (SE, dG', [dS_i'], [H_i]) with
    H_i = R_i f(G').
    """
    f = fact.coords
    se_value, dg, ds, h_list = _gram_step(bundle.R, bundle.norms_sq, f.apply(fact.G),
                                          [f.apply(s) for s in fact.S])
    return (se_value, f.derivative(fact.G) * dg,
            [f.derivative(s) * d for s, d in zip(fact.S, ds)], h_list)


def grad_transformed(bundle: DataBundle, fact: Factorization):
    """Gradient of the transformed SE with respect to the raw variables.

    Built from the n x n residuals Z_i; the reference for the Gram-space
    kernel.  In IDENTITY coordinates this reduces to :func:`grad_native`.
    """
    f = fact.coords
    fg = f.apply(fact.G)
    acc = np.zeros_like(fact.G)
    ds = []
    for z, s in zip(residuals(bundle, fact), fact.S):
        fs = f.apply(s)
        acc += (z @ fg) @ fs.T
        ds.append(-2.0 * f.derivative(s) * (fg.T @ z @ fg))
    dg = -4.0 * f.derivative(fact.G) * acc
    return dg, ds

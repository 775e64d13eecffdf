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
on A = G^T G and M_i = G^T H_i, and so is SE (``se_from_gram``), which shares
the products A S_i A with dS_i.  Every solver gets its objective and gradient
from that one Gram step; in transformed coordinates the gradient follows by
the chain rule, dX' = f'(X') * dX.  A Gram step is one data pass (see
``DataBundle.times``), R_i G for every i; the rest is batched k x k algebra
on the (N, k, k) stack of the S_i.
:func:`grad_transformed` evaluates the formulas above from the n x n residuals
instead and is kept as the independent reference the tests compare against.

Both exact line searches (bcd's quartic in G, gmels' degree-12 polynomial)
restrict SE to a line G(t) = sum_a t^a P_a, S_i(t) = sum_b t^b Q_b and get
its coefficients from :func:`_line_poly`, given the products R_i P_a.
"""

from __future__ import annotations

import numpy as np

from .model import (
    DataBundle,
    Factorization,
    Transform,
    _require_native,
    _se_from_asa,
    check_compatible,
    residuals,
)

__all__ = ["Transform", "grad_native", "grad_transformed"]


def grad_native(bundle: DataBundle, fact: Factorization):
    """Gradient of SE with respect to G and each S_i at a native point.

    Returns (dG, dS) with dS the (N, k, k) stack of the dS_i.  Every dS_i is
    symmetric whenever S_i is.
    """
    _require_native(fact, "grad_native")
    check_compatible(bundle, fact)
    _, dg, ds, _ = _gram_step(bundle, fact.G, fact.S)
    return dg, ds


def _gram_products(bundle: DataBundle, g):
    """A = G^T G, the products H_i = R_i G and M_i = G^T H_i: one data pass.

    H and M come back as (N, n, k) and (N, k, k) stacks.
    """
    h = bundle.times(g)
    return g.T @ g, h, g.T @ h


def _g_terms(gram, h, s):
    """The two halves of dG: sum_i H_i S_i and sum_i S_i A S_i."""
    return (h @ s).sum(axis=0), (s @ gram @ s).sum(axis=0)


def _grad_g(g, gram, h, s):
    """dG at (G, S) from A = G^T G and the products H_i = R_i G."""
    num, sas = _g_terms(gram, h, s)
    return 4.0 * (g @ sas - num)


def _gram_step(bundle: DataBundle, g, s):
    """SE and native gradient at (G, S) from the N products H_i = R_i G.

    ``s`` is the (N, k, k) stack of the S_i.  Returns (SE, dG, dS, H) with dS
    and H as stacks; H is handed back for callers that reuse it.  No n x n
    matrix is formed.
    """
    gram, h, mid = _gram_products(bundle, g)
    asa = gram @ s @ gram
    ds = 2.0 * (asa - mid)
    return _se_from_asa(bundle.norms_sq, mid, s, asa), _grad_g(g, gram, h, s), ds, h


def _poly_matmul(x, y) -> np.ndarray:
    """Stacked coefficients of the matrix polynomial product X(t) Y(t).

    Axis 0 indexes the power of t; the rest broadcast as in ``matmul``.
    """
    shape = np.broadcast_shapes(x.shape[1:-2], y.shape[1:-2]) + (x.shape[-2], y.shape[-1])
    out = np.zeros((len(x) + len(y) - 1,) + shape)
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            out[a + b] += xa @ yb
    return out


def _poly_inner(x, y) -> np.ndarray:
    """Ascending coefficients of the Frobenius product <X(t), Y(t)>, summed
    over every axis after the first."""
    pairs = np.tensordot(x, y, axes=(range(1, x.ndim), range(1, y.ndim)))
    out = np.zeros(len(x) + len(y) - 1)
    for a, row in enumerate(pairs):
        out[a:a + len(y)] += row
    return out


def _paired_products(p, y) -> np.ndarray:
    """Stacked coefficients of sum_{a,b} t^(a+b) P_a^T Y_b when
    P_b^T Y_a = (P_a^T Y_b)^T, as for Y = P or Y_b = R_i P_b: each unordered
    pair (a, b) is multiplied once and its transpose added."""
    out = np.zeros((2 * len(p) - 1,) + y[0].shape[:-2] + (p[0].shape[1],) * 2)
    for a in range(len(p)):
        for b in range(a, len(p)):
            x = p[a].T @ y[b]
            out[a + b] += x if a == b else x + x.swapaxes(-1, -2)
    return out


def _line_poly(bundle: DataBundle, p, q, rp) -> np.ndarray:
    """Ascending coefficients of SE along G(t) = sum_a t^a P_a,
    S_i(t) = sum_b t^b Q_b:

        p(t) = sum_i ||R_i||^2 - 2 <G(t)^T R_i G(t), S_i(t)> + <A S_i, (A S_i)^T>(t)

    with A(t) = G(t)^T G(t).  ``p`` holds the n x k matrices P_a, ``q`` the
    (N, k, k) stacks Q_b and ``rp`` the (N, n, k) data products R_i P_a, so
    the rest is k x k polynomial algebra and no data pass.
    """
    mid = _paired_products(p, rp)
    asq = _poly_matmul(_paired_products(p, p), q)
    coeffs = _poly_inner(asq, asq.swapaxes(-1, -2))
    coeffs[:len(mid) + len(q) - 1] -= 2.0 * _poly_inner(mid, q)
    coeffs[0] += bundle.norm_sq_total
    return coeffs


def _transformed_step(bundle: DataBundle, fact: Factorization):
    """SE and the gradient in the stored variables, f = fact.coords.

    Runs :func:`_gram_step` at the native point (f(G'), f(S')) and applies
    the chain rule dX' = f'(X') * dX.  Returns (SE, dG', dS', H) with dS' and
    H = R_i f(G') as stacks.
    """
    f = fact.coords
    se_value, dg, ds, h = _gram_step(bundle, f.apply(fact.G), f.apply(fact.S))
    return se_value, f.derivative(fact.G) * dg, f.derivative(fact.S) * ds, h


def grad_transformed(bundle: DataBundle, fact: Factorization):
    """Gradient of the transformed SE with respect to the raw variables.

    Built from the n x n residuals Z_i; the reference for the Gram-space
    kernel.  Returns (dG', dS') with dS' as an (N, k, k) stack.  In IDENTITY
    coordinates this reduces to :func:`grad_native`.
    """
    f = fact.coords
    fg = f.apply(fact.G)
    acc = np.zeros_like(fact.G)
    ds = np.empty_like(fact.S)
    for i, (z, s) in enumerate(zip(residuals(bundle, fact), fact.S)):
        fs = f.apply(s)
        acc += (z @ fg) @ fs.T
        ds[i] = -2.0 * f.derivative(s) * (fg.T @ z @ fg)
    dg = -4.0 * f.derivative(fact.G) * acc
    return dg, ds

"""Exact objective gradients in native and transformed coordinates.

Native factors (G, S_i >= 0):

    dG   = -4 sum_i R_i G S_i + 4 sum_i G S_i (G^T G) S_i
    dS_i = -2 G^T R_i G + 2 (G^T G) S_i (G^T G)

Raw variables X' of a substitution X = f(X') (``Transform``), with
Z_i = R_i - f(G') f(S_i') f(G')^T:

    dG'   = -4 sum_i f'(G') * (Z_i f(G') f(S_i')^T)
    dS_i' = -2 f'(S_i') * (f(G')^T Z_i f(G'))

where * is the element-wise product and f' acts element-wise.  Only the i-th
residual enters dS_i' (the cross terms vanish identically; a finite-difference
oracle in the test suite pins this down).

The native gradient needs no residual: with H_i = R_i G it is k x k algebra
on A = G^T G and M_i = G^T H_i, and so is SE (``se_from_gram``), which shares
the products A S_i A with dS_i.  Every solver gets its objective and gradient
from that one Gram step; in raw variables the gradient follows by the chain
rule, dX' = f'(X') * dX.  A Gram step takes the products H_i = R_i G from its
caller, who forms them with one data pass (see ``DataBundle.times``) or, as
gmels does, carries them along its line search; the step itself is batched
k x k algebra on the (N, k, k) stack of the S_i.
:func:`grad_transformed` evaluates the formulas above from the n x n residuals
instead and is kept as the independent reference the tests compare against.

The Gram step takes M_i and A S_i A at their symmetric parts (X + X^T) / 2,
so every dS_i is exactly symmetric: the gradient on the feasible set of
symmetric S_i, without the rounding that makes the two products asymmetric.
fpm's ratio, gmels' chain rule and step, adam's moments and bcd's projected
step all act element-wise on such operands, so a symmetric start stays
exactly symmetric in every solver.

gmels' exact line search restricts SE to a line G(t) = sum_a t^a P_a,
S_i(t) = sum_b t^b Q_b and gets its degree-12 coefficients from
:func:`_line_poly`, given the products R_i P_a.  bcd's quartic in G builds
its coefficients from terms its G step already holds, the gradient's
numerator sum_i H_i S_i among them (``bcd._quartic``).  Both take the fit
term <A S_i, (A S_i)^T>(t) from :func:`_poly_inner`, one GEMM over the
coefficient stacks; their data terms stay separate, since bcd reads its
linear one from the gradient's numerator and forms no G^T R_i dG.
"""

from __future__ import annotations

import numpy as np

from .model import (
    DataBundle,
    Factorization,
    Transform,
    _sandwich,
    _se_from_asa,
    _symmetric_part,
    check_compatible,
    residuals,
)

__all__ = ["Transform", "grad_native", "grad_transformed"]


def grad_native(bundle: DataBundle, fact: Factorization):
    """Gradient of SE with respect to G and each S_i.

    Returns (dG, dS) with dS the (N, k, k) stack of the dS_i.  Every dS_i is
    exactly symmetric: the gradient for a symmetric S_i, and its projection
    onto the symmetric matrices otherwise.
    """
    check_compatible(bundle, fact)
    _, dg, ds = _gram_step(bundle, fact.G, fact.S, bundle.times(fact.G))
    return dg, ds


def _grams(g, h):
    """A = G^T G and the (N, k, k) stack of the symmetric parts of
    M_i = G^T H_i, given the (N, n, k) stack of the products H_i = R_i G."""
    return g.T @ g, _symmetric_part(g.T @ h)


def _gram_products(bundle: DataBundle, g):
    """A = G^T G, the products H_i = R_i G and the symmetric parts of
    M_i = G^T H_i: one data pass.

    H and M come back as (N, n, k) and (N, k, k) stacks.
    """
    h = bundle.times(g)
    gram, mid = _grams(g, h)
    return gram, h, mid


def _grad_s(gram, mid, s):
    """dS_i = 2 (A S_i A - M_i) over the (N, k, k) stack ``s``, given A and
    the stack of M_i from :func:`_gram_products`; returns (dS, A S A), both
    exactly symmetric."""
    asa = _sandwich(gram, s)
    return 2.0 * (asa - mid), asa


def _g_terms(gram, h, s):
    """The two halves of dG: sum_i H_i S_i and sum_i S_i A S_i."""
    return (h @ s).sum(axis=0), (s @ gram @ s).sum(axis=0)


def _grad_g(g, gram, h, s):
    """dG at (G, S) from A = G^T G and the products H_i = R_i G, and the
    numerator sum_i H_i S_i it is built from (bcd's quartic reads it)."""
    num, sas = _g_terms(gram, h, s)
    return 4.0 * (g @ sas - num), num


def _gram_step(bundle: DataBundle, g, s, h):
    """SE and native gradient at (G, S) from the N products H_i = R_i G.

    ``s`` is the (N, k, k) stack of the S_i and ``h`` the (N, n, k) stack of
    the H_i.  Returns (SE, dG, dS) with dS as a stack.  No data pass is
    taken and no n x n matrix is formed.
    """
    gram, mid = _grams(g, h)
    ds, asa = _grad_s(gram, mid, s)
    return _se_from_asa(bundle.norms_sq, mid, s, asa), _grad_g(g, gram, h, s)[0], ds


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
    over every axis after the first.

    Every pair <X_a, Y_b> comes from one GEMM over the flattened coefficient
    stacks (``reshape`` copies a view such as a ``swapaxes`` transpose).
    """
    pairs = x.reshape(len(x), -1) @ y.reshape(len(y), -1).T
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


def _transformed_step(bundle: DataBundle, transform: Transform, g, s, h):
    """SE and the gradient in the raw variables G' and the (N, k, k) stack S'
    of the substitution X = f(X'), f = ``transform``.

    Runs :func:`_gram_step` at the native point (f(G'), f(S')), given the
    (N, n, k) stack ``h`` of the products R_i f(G'), and applies the chain
    rule dX' = f'(X') * dX.  Returns (SE, dG', dS') with dS' as a stack.
    """
    f = transform
    se_value, dg, ds = _gram_step(bundle, f.apply(g), f.apply(s), h)
    return se_value, f.derivative(g) * dg, f.derivative(s) * ds


def grad_transformed(bundle: DataBundle, transform: Transform, g, s):
    """Gradient of SE(f(G'), f(S')) with respect to the raw variables G' and
    S' (a stack or sequence of the S_i'), f = ``transform``.

    Built from the n x n residuals Z_i; the reference for the Gram-space
    kernel.  Returns (dG', dS') with dS' as an (N, k, k) stack.
    """
    f = transform
    g = np.asarray(g, dtype=float)
    s = np.asarray(s, dtype=float)
    fg = f.apply(g)
    acc = np.zeros_like(g)
    ds = np.empty(s.shape)
    for i, (z, si) in enumerate(zip(residuals(bundle, Factorization(fg, f.apply(s))), s)):
        fs = f.apply(si)
        acc += (z @ fg) @ fs.T
        ds[i] = -2.0 * f.derivative(si) * (fg.T @ z @ fg)
    dg = -4.0 * f.derivative(g) * acc
    return dg, ds

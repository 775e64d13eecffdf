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
S_i(t) = sum_c t^c Q_c and gets its degree-12 coefficients from
:func:`_line_poly`, given the products R_i P_a.  It reads each (N, n, k)
stack of products as the (k N, n) matrix of the (R_i P_a)^T, which is the
data pass's own (m, N n) output and so needs no copy, and takes every
P_b^T R_i P_a it needs from one GEMM per a.  bcd's quartic in G builds
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


def _rows(y) -> np.ndarray:
    """The (N, n, m) stack of products R_i X as the (m N, n) matrix whose
    row (j, i) is column j of R_i X.

    A view of ``DataBundle.times`` output, whose (m, N n) product it
    reads back, and of that output's column slices; a copy for any other
    layout.
    """
    return y.transpose(2, 0, 1).reshape(-1, y.shape[1])


def _line_poly(bundle: DataBundle, p, q, rp) -> np.ndarray:
    """Ascending coefficients of SE along G(t) = sum_a t^a P_a,
    S_i(t) = sum_c t^c Q_c:

        p(t) = sum_i ||R_i||^2 - 2 <G(t)^T R_i G(t), S_i(t)> + <A S_i, (A S_i)^T>(t)

    with A(t) = G(t)^T G(t).  ``p`` holds the n x k matrices P_a, either as
    a sequence or side by side as the one n x (A k) matrix [P_0 P_1 ...]
    (no copy then); ``q`` holds the (N, k, k) stacks Q_c of symmetric
    blocks and ``rp`` the A (N, n, k) data products R_i P_a, so the rest is
    k x k polynomial algebra and no data pass.

    Fit term: every P_a^T P_b comes from one GEMM over [P_0 P_1 ...], and
    the products A_d Q_c from one batched matmul per d (a single one over
    every (d, c) pair leaves a temporary large enough that allocating and
    freeing it each iteration costs page faults).  Data term: for each a,
    one GEMM of [P_a P_a+1 ...]^T with the rows of R_i P_a (:func:`_rows`)
    gives P_b^T R_i P_a for every b >= a and i, and one more traces that
    block against the flattened Q stack.  <P_b^T R_i P_a, Q_c,i> equals
    <P_a^T R_i P_b, Q_c,i>, since R_i and Q_c,i are symmetric, so a pair
    b > a counts twice and is formed once.
    """
    q = np.asarray(q)
    pk = p if isinstance(p, np.ndarray) else np.concatenate(p, axis=1)
    na, nc = len(rp), len(q)
    k = pk.shape[1] // na
    blocks = (pk.T @ pk).reshape(na, k, na, k).swapaxes(1, 2)  # [a, b] = P_a^T P_b
    gram = np.zeros((2 * na - 1, k, k))
    for a in range(na):
        gram[a:a + na] += blocks[a]
    asq = np.zeros((len(gram) + nc - 1,) + q.shape[1:])
    for d, x in enumerate(gram):
        asq[d:d + nc] += x @ q
    coeffs = _poly_inner(asq, asq.swapaxes(-1, -2))
    flat_q = q.transpose(0, 2, 3, 1).reshape(nc, -1)  # Q_c,i[l, j] at (l, j, i)
    for a, y in enumerate(rp):
        traces = (pk[:, a * k:].T @ _rows(y).T).reshape(na - a, -1) @ flat_q.T
        traces[1:] *= 2.0
        for b, row in enumerate(traces, start=a):
            coeffs[a + b:a + b + nc] -= 2.0 * row
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

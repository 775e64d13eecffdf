import numpy as np
import pytest

from snmtf.gradients import (
    _gram_step,
    _line_poly,
    _poly_inner,
    _transformed_step,
    grad_transformed,
)
from snmtf.model import DataBundle, Factorization, Transform, residuals, se_from_gram

from conftest import (
    assert_block_stack,
    exact_fit_pair,
    native_gradient,
    random_bundle,
    random_native_fact,
)


def transformed_se(bundle, transform, g, s):
    native = Factorization(transform.apply(g), transform.apply(s))
    return sum(float(np.sum(z * z)) for z in residuals(bundle, native))


def fd_grad(fun, x, h):
    """Central finite differences, entry by entry."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def fd_check_point(bundle, transform, g, s, h, rtol, kink_tol=None):
    """Compare analytic gradients with finite differences of the objective
    in the raw variables ``g`` and the stack ``s``."""
    s = np.array(s)
    dg, ds = grad_transformed(bundle, transform, g, s)

    def se_of_g(x):
        return transformed_se(bundle, transform, x, s)

    fd_g = fd_grad(se_of_g, g, h)
    mask = np.ones_like(g, dtype=bool)
    if kink_tol is not None:
        mask = np.abs(g) > kink_tol
    num = np.linalg.norm((fd_g - dg)[mask])
    den = np.linalg.norm(dg[mask])
    assert num <= rtol * den

    for i in range(bundle.N):
        def se_of_s(x, i=i):
            s_list = [y.copy() for y in s]
            s_list[i] = x
            return transformed_se(bundle, transform, g, s_list)

        fd_s = fd_grad(se_of_s, s[i], h)
        smask = np.ones_like(s[i], dtype=bool)
        if kink_tol is not None:
            smask = np.abs(s[i]) > kink_tol
        assert np.linalg.norm((fd_s - ds[i])[smask]) <= rtol * np.linalg.norm(ds[i][smask])


class TestPolyInner:
    @pytest.mark.parametrize("lengths", [(3, 3), (7, 7), (5, 3), (2, 4)])
    def test_matches_a_double_loop_over_pairs(self, rng, lengths):
        # y is a transposed view, as bcd's quartic and gmels pass it.
        x = rng.random((lengths[0], 3, 4, 4))
        y = rng.random((lengths[1], 3, 4, 4)).swapaxes(-1, -2)
        expected = np.zeros(sum(lengths) - 1)
        for a, xa in enumerate(x):
            for b, yb in enumerate(y):
                expected[a + b] += np.sum(xa * yb)
        np.testing.assert_allclose(_poly_inner(x, y), expected, rtol=1e-13)


def line_poly_by_pairs(bundle, p, q, rp):
    """SE's coefficients along G(t) = sum_a t^a P_a, S_i(t) = sum_c t^c Q_c,
    one k x k product per pair of coefficients: G(t)^T R_i G(t) from the
    P_a^T R_i P_b, A(t) S_i(t) from the P_a^T P_b and the Q_c, and every
    Frobenius product summed term by term."""
    k = p[0].shape[1]
    mid = np.zeros((2 * len(p) - 1, bundle.N, k, k))
    gram = np.zeros((2 * len(p) - 1, k, k))
    for a, pa in enumerate(p):
        for b, pb in enumerate(p):
            mid[a + b] += pa.T @ rp[b]
            gram[a + b] += pa.T @ pb
    asq = np.zeros((len(gram) + len(q) - 1, bundle.N, k, k))
    for d, x in enumerate(gram):
        for c, y in enumerate(q):
            asq[d + c] += x @ y
    coeffs = np.zeros(2 * len(asq) - 1)
    for e, x in enumerate(asq):
        for f, y in enumerate(asq):
            coeffs[e + f] += np.sum(x * y.swapaxes(-1, -2))
    for e, x in enumerate(mid):
        for c, y in enumerate(q):
            coeffs[e + c] -= 2.0 * np.sum(x * y)
    coeffs[0] += bundle.norm_sq_total
    return coeffs


class TestLinePoly:
    @pytest.mark.parametrize("n_p", [1, 2, 3])
    @pytest.mark.parametrize("n_q", [1, 3])
    def test_matches_a_loop_over_pairs(self, rng, n_p, n_q):
        # P goes in as the one n x (A k) matrix gmels writes, and rp as the
        # (k, N, n) slices of one DataBundle.times output, as gmels splits
        # its pass; the loop reads them as (N, n, k) stacks R_i P_a.
        n, k, N = 9, 4, 3
        bundle = random_bundle(rng, n, N)
        p = [rng.standard_normal((n, k)) for _ in range(n_p)]
        q = rng.standard_normal((n_q, N, k, k))
        q = q + q.swapaxes(-1, -2)
        products = bundle.times(np.hstack(p))
        rp = [products[a * k:(a + 1) * k] for a in range(n_p)]
        expected = line_poly_by_pairs(bundle, p, q, [y.transpose(1, 2, 0) for y in rp])
        got = _line_poly(bundle, np.hstack(p), q, rp)
        assert got.shape == (4 * n_p + 2 * n_q - 5,)
        np.testing.assert_allclose(got, expected, rtol=1e-13)


class TestGradNative:
    def test_zero_at_exact_fit(self, rng):
        bundle, fact = exact_fit_pair(rng, 8, 3, 2)
        dg, ds = native_gradient(bundle, fact)
        scale = bundle.norm_sq_total
        assert np.abs(dg).max() <= 1e-10 * scale
        assert max(np.abs(d).max() for d in ds) <= 1e-10 * scale

    def test_matches_finite_differences(self, rng):
        from snmtf.model import se

        bundle = random_bundle(rng, 8, 2)
        fact = random_native_fact(rng, 8, 3, 2)
        dg, ds = native_gradient(bundle, fact)

        fd_g = fd_grad(lambda g: se(bundle, Factorization(g, fact.S)), fact.G, 1e-6)
        assert np.linalg.norm(fd_g - dg) <= 1e-5 * np.linalg.norm(dg)
        for i in range(2):
            def se_of_s(s, i=i):
                s_list = [x.copy() for x in fact.S]
                s_list[i] = s
                return se(bundle, Factorization(fact.G, s_list))

            fd_s = fd_grad(se_of_s, fact.S[i], 1e-6)
            assert np.linalg.norm(fd_s - ds[i]) <= 1e-5 * np.linalg.norm(ds[i])

    def test_scalar_case(self):
        # R = 4, G = 1, S = 1: d/dG (4 - G S G)^2 = -12, d/dS = -6.
        bundle = DataBundle.from_matrices([np.array([[4.0]])])
        fact = Factorization(np.array([[1.0]]), [np.array([[1.0]])])
        dg, ds = native_gradient(bundle, fact)
        assert dg[0, 0] == pytest.approx(-12.0)
        assert ds[0][0, 0] == pytest.approx(-6.0)

    def test_gram_step_se_is_se_from_gram_bit_for_bit(self, rng):
        bundle = random_bundle(rng, 9, 3)
        fact = random_native_fact(rng, 9, 4, 3)
        h = bundle.times(fact.G)
        se_value, _, _ = _gram_step(bundle, fact.G, np.array(fact.S), h)
        h_list = h.transpose(1, 2, 0)  # the (N, n, k) stack of the R_i G
        gram = fact.G.T @ fact.G
        mid = [fact.G.T @ x for x in h_list]
        assert se_value == se_from_gram(bundle.norms_sq, gram, mid, fact.S)

    def test_gram_step_matches_per_matrix_loop(self, rng):
        # The kernel does the per-i arithmetic of a loop over the matrices,
        # so H, dS and SE are bit-identical.  M_i and A S_i A enter through
        # their symmetric parts.  dG is not: its sum_i H_i S_i is one GEMM
        # over the (k N, n) products, which sums over i and j in BLAS's
        # order instead of the loop's, so it agrees to rounding.
        def sym(x):
            return (x + x.T) / 2.0

        bundle = random_bundle(rng, 11, 4)
        fact = random_native_fact(rng, 11, 3, 4)
        g = fact.G
        h = bundle.times(g)
        se_value, dg, ds = _gram_step(bundle, g, np.array(fact.S), h)
        gram = g.T @ g
        h_loop = [r @ g for r in bundle.R]
        mid = [sym(g.T @ x) for x in h_loop]
        num, sas = np.zeros_like(g), np.zeros_like(gram)
        for x, s in zip(h_loop, fact.S):
            num += x @ s
            sas += s @ gram @ s
        np.testing.assert_array_equal(h.transpose(1, 2, 0), h_loop)
        expected_dg = 4.0 * (g @ sas - num)
        assert np.abs(dg - expected_dg).max() <= 1e-14 * np.abs(expected_dg).max()
        np.testing.assert_array_equal(
            ds, [2.0 * (sym(gram @ s @ gram) - m) for s, m in zip(fact.S, mid)])
        assert se_value == se_from_gram(bundle.norms_sq, gram, mid, fact.S)

    @pytest.mark.parametrize(
        "transform", [pytest.param(None, id="native"), Transform.ABS, Transform.SQUARE]
    )
    def test_ds_is_one_stack(self, rng, transform):
        bundle = random_bundle(rng, 7, 3)
        fact = random_native_fact(rng, 7, 2, 3)
        if transform is None:
            assert_block_stack(native_gradient(bundle, fact)[1], 3, 2)
        else:
            assert_block_stack(grad_transformed(bundle, transform, fact.G, fact.S)[1], 3, 2)

    def test_ds_symmetric(self, rng):
        bundle = random_bundle(rng, 7, 3)
        fact = random_native_fact(rng, 7, 3, 3)
        _, ds = native_gradient(bundle, fact)
        for d in ds:
            assert np.abs(d - d.T).max() <= 1e-10 * max(np.abs(d).max(), 1.0)


class TestGradTransformed:
    def test_identity_equals_native(self, rng):
        # The residual formulas with f = identity, against the Gram kernel.
        bundle = random_bundle(rng, 6, 2)
        fact = random_native_fact(rng, 6, 3, 2)
        dg_n, ds_n = native_gradient(bundle, fact)
        g = fact.G
        zs = residuals(bundle, fact)
        dg_t = -4.0 * sum((z @ g) @ s.T for z, s in zip(zs, fact.S))
        ds_t = [-2.0 * (g.T @ z @ g) for z in zs]
        np.testing.assert_allclose(dg_t, dg_n, rtol=1e-12, atol=1e-12)
        for a, b in zip(ds_t, ds_n):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_square_matches_finite_differences(self, rng):
        bundle = random_bundle(rng, 8, 2)
        g = rng.standard_normal((8, 3)) * 0.7
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((3, 3)) * 0.7) for _ in range(2)]
        fd_check_point(bundle, Transform.SQUARE, g, s_list, h=1e-6, rtol=1e-5)

    def test_abs_zero_entry_has_zero_gradient(self, rng):
        bundle = random_bundle(rng, 5, 2)
        g = rng.standard_normal((5, 2))
        g[2, 1] = 0.0
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((2, 2))) for _ in range(2)]
        dg, _ = grad_transformed(bundle, Transform.ABS, g, s_list)
        assert dg[2, 1] == 0.0

    @pytest.mark.parametrize("transform", [Transform.ABS, Transform.SQUARE])
    @pytest.mark.parametrize("h", [1e-5, 1e-6])
    def test_fd_agreement_many_points(self, transform, h):
        # 20 random points per transform; abs-kink entries (within 1e-4 of
        # zero) are excluded from the comparison.
        rng = np.random.default_rng(99)
        bundle = random_bundle(rng, 8, 2)
        kink = 1e-4 if transform is Transform.ABS else None
        for _ in range(20):
            g = rng.standard_normal((8, 3)) * 0.8
            s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((3, 3)) * 0.8) for _ in range(2)]
            fd_check_point(bundle, transform, g, s_list, h=h, rtol=1e-5, kink_tol=kink)

    def test_square_chain_rule(self, rng):
        # d/dX SE(f2(X)) = 2 X * the native gradient at the squared point.
        bundle = random_bundle(rng, 7, 2)
        g = rng.standard_normal((7, 3)) * 0.8
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((3, 3)) * 0.8) for _ in range(2)]
        dg_t, ds_t = grad_transformed(bundle, Transform.SQUARE, g, s_list)
        native_point = Factorization(g * g, [x * x for x in s_list])
        dg_n, ds_n = native_gradient(bundle, native_point)
        np.testing.assert_allclose(dg_t, 2.0 * g * dg_n, rtol=1e-10, atol=1e-10)
        for x, d_t, d_n in zip(s_list, ds_t, ds_n):
            np.testing.assert_allclose(d_t, 2.0 * x * d_n, rtol=1e-10, atol=1e-10)

    def test_ds_symmetric_in_transformed_coords(self, rng):
        bundle = random_bundle(rng, 6, 2)
        g = rng.standard_normal((6, 2))
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((2, 2))) for _ in range(2)]
        for transform in (Transform.ABS, Transform.SQUARE):
            _, ds = grad_transformed(bundle, transform, g, s_list)
            for d in ds:
                assert np.abs(d - d.T).max() <= 1e-10 * max(np.abs(d).max(), 1.0)

    @pytest.mark.parametrize("transform", [Transform.ABS, Transform.SQUARE])
    def test_gram_kernel_matches_residual_reference(self, transform):
        # the kernel the solvers use against the n x n residual formulas
        rng = np.random.default_rng(7)
        bundle = random_bundle(rng, 9, 3)
        for _ in range(10):
            g = rng.standard_normal((9, 4)) * 0.8
            s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((4, 4)) * 0.8)
                      for _ in range(3)]
            s = np.array(s_list)
            h = bundle.times(transform.apply(g))
            se_value, dg, ds = _transformed_step(bundle, transform, g, s, h)
            ref_g, ref_s = grad_transformed(bundle, transform, g, s)
            assert se_value == pytest.approx(transformed_se(bundle, transform, g, s), rel=1e-10)
            assert np.linalg.norm(dg - ref_g) <= 1e-10 * np.linalg.norm(ref_g)
            for d, ref in zip(ds, ref_s):
                assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)

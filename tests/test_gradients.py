import numpy as np
import pytest

from snmtf.gradients import _gram_step, _transformed_step, grad_native, grad_transformed
from snmtf.model import DataBundle, Factorization, Transform, residuals, se_from_gram

from conftest import assert_block_stack, exact_fit_pair, random_bundle, random_native_fact


def transformed_se(bundle, fact):
    return sum(float(np.sum(z * z)) for z in residuals(bundle, fact))


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


def fd_check_point(bundle, fact, h, rtol, kink_tol=None):
    """Compare analytic gradients with finite differences of the objective."""
    dg, ds = grad_transformed(bundle, fact)

    def se_of_g(g):
        return transformed_se(bundle, Factorization(g, fact.S, fact.coords))

    fd_g = fd_grad(se_of_g, fact.G, h)
    mask = np.ones_like(fact.G, dtype=bool)
    if kink_tol is not None:
        mask = np.abs(fact.G) > kink_tol
    num = np.linalg.norm((fd_g - dg)[mask])
    den = np.linalg.norm(dg[mask])
    assert num <= rtol * den

    for i in range(bundle.N):
        def se_of_s(s, i=i):
            s_list = [x.copy() for x in fact.S]
            s_list[i] = s
            return transformed_se(bundle, Factorization(fact.G, s_list, fact.coords))

        fd_s = fd_grad(se_of_s, fact.S[i], h)
        smask = np.ones_like(fact.S[i], dtype=bool)
        if kink_tol is not None:
            smask = np.abs(fact.S[i]) > kink_tol
        assert np.linalg.norm((fd_s - ds[i])[smask]) <= rtol * np.linalg.norm(ds[i][smask])


class TestGradNative:
    def test_zero_at_exact_fit(self, rng):
        bundle, fact = exact_fit_pair(rng, 8, 3, 2)
        dg, ds = grad_native(bundle, fact)
        scale = bundle.norm_sq_total
        assert np.abs(dg).max() <= 1e-10 * scale
        assert max(np.abs(d).max() for d in ds) <= 1e-10 * scale

    def test_matches_finite_differences(self, rng):
        from snmtf.model import se

        bundle = random_bundle(rng, 8, 2)
        fact = random_native_fact(rng, 8, 3, 2)
        dg, ds = grad_native(bundle, fact)

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
        dg, ds = grad_native(bundle, fact)
        assert dg[0, 0] == pytest.approx(-12.0)
        assert ds[0][0, 0] == pytest.approx(-6.0)

    def test_gram_step_se_is_se_from_gram_bit_for_bit(self, rng):
        bundle = random_bundle(rng, 9, 3)
        fact = random_native_fact(rng, 9, 4, 3)
        se_value, _, _, h_list = _gram_step(bundle, fact.G, np.array(fact.S))
        gram = fact.G.T @ fact.G
        mid = [fact.G.T @ h for h in h_list]
        assert se_value == se_from_gram(bundle.norms_sq, gram, mid, fact.S)

    def test_gram_step_matches_per_matrix_loop(self, rng):
        # The batched kernel does the per-i arithmetic of a loop over the
        # matrices, in the same order, so the results are bit-identical.
        bundle = random_bundle(rng, 11, 4)
        fact = random_native_fact(rng, 11, 3, 4)
        g = fact.G
        se_value, dg, ds, h = _gram_step(bundle, g, np.array(fact.S))
        gram = g.T @ g
        h_loop = [r @ g for r in bundle.R]
        mid = [g.T @ x for x in h_loop]
        num, sas = np.zeros_like(g), np.zeros_like(gram)
        for x, s in zip(h_loop, fact.S):
            num += x @ s
            sas += s @ gram @ s
        np.testing.assert_array_equal(h, h_loop)
        np.testing.assert_array_equal(dg, 4.0 * (g @ sas - num))
        np.testing.assert_array_equal(ds, [2.0 * (gram @ s @ gram - m) for s, m in zip(fact.S, mid)])
        assert se_value == se_from_gram(bundle.norms_sq, gram, mid, fact.S)

    @pytest.mark.parametrize("coords", [Transform.IDENTITY, Transform.ABS, Transform.SQUARE])
    def test_ds_is_one_stack(self, rng, coords):
        bundle = random_bundle(rng, 7, 3)
        fact = random_native_fact(rng, 7, 2, 3)
        assert_block_stack(grad_transformed(bundle, Factorization(fact.G, fact.S, coords))[1], 3, 2)
        if coords is Transform.IDENTITY:
            assert_block_stack(grad_native(bundle, fact)[1], 3, 2)

    def test_ds_symmetric(self, rng):
        bundle = random_bundle(rng, 7, 3)
        fact = random_native_fact(rng, 7, 3, 3)
        _, ds = grad_native(bundle, fact)
        for d in ds:
            assert np.abs(d - d.T).max() <= 1e-10 * max(np.abs(d).max(), 1.0)


class TestGradTransformed:
    def test_identity_equals_native(self, rng):
        bundle = random_bundle(rng, 6, 2)
        fact = random_native_fact(rng, 6, 3, 2)
        dg_n, ds_n = grad_native(bundle, fact)
        dg_t, ds_t = grad_transformed(bundle, fact)
        np.testing.assert_allclose(dg_t, dg_n, rtol=1e-12, atol=1e-12)
        for a, b in zip(ds_t, ds_n):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_square_matches_finite_differences(self, rng):
        bundle = random_bundle(rng, 8, 2)
        g = rng.standard_normal((8, 3)) * 0.7
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((3, 3)) * 0.7) for _ in range(2)]
        fact = Factorization(g, s_list, Transform.SQUARE)
        fd_check_point(bundle, fact, h=1e-6, rtol=1e-5)

    def test_abs_zero_entry_has_zero_gradient(self, rng):
        bundle = random_bundle(rng, 5, 2)
        g = rng.standard_normal((5, 2))
        g[2, 1] = 0.0
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((2, 2))) for _ in range(2)]
        fact = Factorization(g, s_list, Transform.ABS)
        dg, _ = grad_transformed(bundle, fact)
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
            fact = Factorization(g, s_list, transform)
            fd_check_point(bundle, fact, h=h, rtol=1e-5, kink_tol=kink)

    def test_square_chain_rule(self, rng):
        # d/dX SE(f2(X)) = 2 X * grad_native evaluated at the squared point.
        bundle = random_bundle(rng, 7, 2)
        g = rng.standard_normal((7, 3)) * 0.8
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((3, 3)) * 0.8) for _ in range(2)]
        fact = Factorization(g, s_list, Transform.SQUARE)
        dg_t, ds_t = grad_transformed(bundle, fact)
        native_point = fact.to_native()
        dg_n, ds_n = grad_native(bundle, native_point)
        np.testing.assert_allclose(dg_t, 2.0 * g * dg_n, rtol=1e-10, atol=1e-10)
        for x, d_t, d_n in zip(s_list, ds_t, ds_n):
            np.testing.assert_allclose(d_t, 2.0 * x * d_n, rtol=1e-10, atol=1e-10)

    def test_ds_symmetric_in_transformed_coords(self, rng):
        bundle = random_bundle(rng, 6, 2)
        g = rng.standard_normal((6, 2))
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((2, 2))) for _ in range(2)]
        for transform in (Transform.ABS, Transform.SQUARE):
            fact = Factorization(g, s_list, transform)
            _, ds = grad_transformed(bundle, fact)
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
            fact = Factorization(g, s_list, transform)
            se_value, dg, ds, _ = _transformed_step(bundle, fact)
            ref_g, ref_s = grad_transformed(bundle, fact)
            assert se_value == pytest.approx(transformed_se(bundle, fact), rel=1e-10)
            assert np.linalg.norm(dg - ref_g) <= 1e-10 * np.linalg.norm(ref_g)
            for d, ref in zip(ds, ref_s):
                assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)

import tracemalloc

import numpy as np
import pytest

from snmtf.gmels import gmels_solve, line_poly_coeffs, poly_minimize
from snmtf.gradients import grad_transformed
from snmtf.initialization import lift_to_transformed
from snmtf.model import (
    Factorization,
    LinePolynomial,
    SolverConfig,
    Transform,
    residuals,
)

from conftest import random_bundle


def square_point(rng, n, k, N, scale=0.7):
    g = rng.standard_normal((n, k)) * scale
    s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((k, k)) * scale) for _ in range(N)]
    return Factorization(g, s_list, Transform.SQUARE)


def transformed_se(bundle, fact):
    return sum(float(np.sum(z * z)) for z in residuals(bundle, fact))


def trial_point(fact, grads, t):
    dg, ds = grads
    return Factorization(
        fact.G - t * dg, [s - t * d for s, d in zip(fact.S, ds)], Transform.SQUARE
    )


class TestLinePolyCoeffs:
    def test_zero_directions(self, rng):
        bundle = random_bundle(rng, 6, 2)
        fact = square_point(rng, 6, 2, 2)
        zero = (np.zeros_like(fact.G), [np.zeros_like(s) for s in fact.S])
        poly = line_poly_coeffs(bundle, fact, *zero)
        assert poly.degree == 12
        assert poly.c[0] == pytest.approx(transformed_se(bundle, fact), rel=1e-12)
        np.testing.assert_allclose(poly.c[1:], 0.0, atol=1e-9)

    def test_c12_is_top_term_norm(self, rng):
        bundle = random_bundle(rng, 5, 2)
        fact = square_point(rng, 5, 2, 2)
        dg, ds = grad_transformed(bundle, fact)
        poly = line_poly_coeffs(bundle, fact, dg, ds)
        expected = 0.0
        for dsi in ds:
            top = ((dg * dg) @ (dsi * dsi)) @ (dg * dg).T
            expected += float(np.sum(top * top))
        assert poly.c[12] == pytest.approx(expected, rel=1e-10)
        assert poly.c[12] >= 0.0

    def test_matches_vandermonde_interpolation(self, rng):
        # 13-node exact interpolation through direct SE values at
        # t = 0, +-0.1, ..., +-0.6 recovers the assembled coefficients.
        # Moderate factor scale keeps the coefficient span within what the
        # float64 interpolation can resolve.
        bundle = random_bundle(rng, 6, 2)
        fact = square_point(rng, 6, 2, 2, scale=0.5)
        grads = grad_transformed(bundle, fact)
        poly = line_poly_coeffs(bundle, fact, *grads)

        nodes = np.array([0.0] + [s * 0.1 * j for j in range(1, 7) for s in (1, -1)])
        values = [transformed_se(bundle, trial_point(fact, grads, t)) for t in nodes]
        vander = np.vander(nodes, 13, increasing=True)
        interpolated = np.linalg.solve(vander, values)
        rel = np.abs(interpolated - poly.c) / np.abs(poly.c)
        assert rel.max() <= 1e-6

    def test_horner_matches_direct_se_along_step(self, rng):
        bundle = random_bundle(rng, 6, 2)
        fact = square_point(rng, 6, 2, 2)
        grads = grad_transformed(bundle, fact)
        poly = line_poly_coeffs(bundle, fact, *grads)
        for t in rng.uniform(-1.0, 1.0, 20):
            direct = transformed_se(bundle, trial_point(fact, grads, t))
            assert poly(t) == pytest.approx(direct, rel=1e-8)

    def test_requires_square_coords(self, rng):
        bundle = random_bundle(rng, 4, 1)
        fact = Factorization(rng.random((4, 2)), [np.eye(2)])
        with pytest.raises(ValueError, match="square-transform"):
            line_poly_coeffs(bundle, fact, np.zeros((4, 2)), [np.zeros((2, 2))])


class TestPolyMinimize:
    def test_shifted_parabola(self):
        # p(t) = (t - 3)^2 = 9 - 6t + t^2
        assert poly_minimize(LinePolynomial([9.0, -6.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_double_well(self):
        # p(t) = t^4 - 2 t^2: global minima at -1 and +1, both value -1.
        t = poly_minimize(LinePolynomial([0.0, 0.0, -2.0, 0.0, 1.0]))
        assert abs(t) == pytest.approx(1.0, abs=1e-10)
        poly = LinePolynomial([0.0, 0.0, -2.0, 0.0, 1.0])
        assert poly(t) == pytest.approx(-1.0, abs=1e-12)

    def test_flat_polynomial_returns_zero(self):
        assert poly_minimize(LinePolynomial([5.0])) == 0.0
        assert poly_minimize(LinePolynomial(np.zeros(13))) == 0.0

    def test_random_degree_12_against_grid(self, rng):
        for _ in range(5):
            c = rng.standard_normal(13)
            c[12] = abs(c[12]) + 0.5  # positive leading coefficient
            poly = LinePolynomial(c)
            t = poly_minimize(poly)

            ts = np.linspace(-10.0, 10.0, 10**7)
            best = np.inf
            for chunk in np.array_split(ts, 20):
                best = min(best, float(np.min(poly(chunk))))
            # the analytic minimizer is at least as good as the grid optimum
            assert poly(t) <= best + 1e-8 * (1.0 + abs(best))

    def test_tiny_leading_coefficients_stripped(self):
        c = np.zeros(13)
        c[0], c[1], c[2] = 1.0, -2.0, 1.0  # (t - 1)^2
        c[12] = 1e-30
        assert poly_minimize(LinePolynomial(c)) == pytest.approx(1.0, abs=1e-9)


class TestSolve:
    def test_monotone_nonincreasing_on_random_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            bundle = random_bundle(rng, 8, 2)
            start = lift_to_transformed(
                Factorization(
                    rng.random((8, 2)),
                    [(lambda s: (s + s.T) / 2.0)(rng.random((2, 2))) for _ in range(2)],
                ),
                Transform.SQUARE,
            )
            config = SolverConfig(method="gmels", k=2, seed=seed, max_iterations=60, mse_stop=0.0)
            _, trace = gmels_solve(bundle, config, start)
            ses = [r.se for r in trace.records]
            for a, b in zip(ses, ses[1:]):
                assert b <= a * (1 + 1e-12)

    def test_returns_native_nonnegative(self, rng):
        bundle = random_bundle(rng, 6, 2)
        start = square_point(rng, 6, 2, 2)
        config = SolverConfig(method="gmels", k=2, seed=0, max_iterations=20)
        fact, _ = gmels_solve(bundle, config, start)
        assert fact.coords is Transform.IDENTITY
        assert float(fact.G.min()) >= 0.0
        assert all(float(s.min()) >= 0.0 for s in fact.S)

    def test_planted_recovery_small(self):
        from snmtf.data import generate_synthetic
        from snmtf.runner import run

        bundle, _ = generate_synthetic(n=40, K=4, N=5, seed=3)
        config = SolverConfig(method="gmels", k=4, seed=1)
        fact, trace = run(bundle, config, init="deterministic")
        assert trace.final.mse <= 0.05

    def test_overparameterized_recovery(self):
        # k = 1.2 K leaves spare capacity; the threshold must still be
        # reached within the default cap from the deterministic start.
        from snmtf.data import generate_synthetic
        from snmtf.runner import run

        bundle, _ = generate_synthetic(n=100, K=10, N=5, seed=11)
        config = SolverConfig(method="gmels", k=12, seed=1)
        _, trace = run(bundle, config, init="deterministic")
        assert trace.final.mse <= 0.01
        assert trace.iterations <= 1000

    def test_never_allocates_an_n_by_n_matrix(self, rng):
        # The line polynomial and the gradient come from R_i @ X products
        # with X of shape n x k; the traced peak stays below one n x n matrix.
        n, k, N = 400, 10, 5
        bundle = random_bundle(rng, n, N)
        start = square_point(rng, n, k, N, scale=0.3)
        config = SolverConfig(method="gmels", k=k, seed=0, max_iterations=3, mse_stop=0.0)
        tracemalloc.start()
        try:
            _, trace = gmels_solve(bundle, config, start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.iterations == 3
        assert peak < n * n * 8

    def test_terminal_polynomial_is_flat_at_zero(self, rng):
        # at a delta-criterion stop the line polynomial's minimum is ~p(0)
        from snmtf.gradients import grad_transformed

        bundle = random_bundle(rng, 6, 2)
        start = square_point(rng, 6, 2, 2)
        config = SolverConfig(method="gmels", k=2, seed=0, mse_stop=0.0, max_iterations=1000)
        fact, trace = gmels_solve(bundle, config, start)
        if trace.stop_reason == "delta_threshold":
            lifted = lift_to_transformed(fact, Transform.SQUARE)
            grads = grad_transformed(bundle, lifted)
            poly = line_poly_coeffs(bundle, lifted, *grads)
            t = poly_minimize(poly)
            assert abs(poly(t) - poly.c[0]) <= 1e-8 * (1.0 + poly.c[0])

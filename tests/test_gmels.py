import tracemalloc

import numpy as np
import pytest

from snmtf.gmels import poly_minimize
from snmtf.gradients import grad_transformed
from snmtf.model import (
    Factorization,
    SolverConfig,
    Transform,
    ValidationError,
    residuals,
)
from snmtf.runner import run

from conftest import random_bundle, square_line_poly


SQUARE = Transform.SQUARE


def square_point(rng, n, k, N, scale=0.7):
    """Raw variables (G', stack of the S_i') of a squared-variable point."""
    g = rng.standard_normal((n, k)) * scale
    s_list = [(lambda s: (s + s.T) / 2.0)(rng.standard_normal((k, k)) * scale) for _ in range(N)]
    return g, np.array(s_list)


def native_start(g, s):
    """The native factorization whose square-root lift is (|G'|, |S'|); the
    squared-variable objective is the same at both points."""
    return Factorization(SQUARE.apply(g), SQUARE.apply(s))


def transformed_se(bundle, g, s):
    return sum(float(np.sum(z * z)) for z in residuals(bundle, native_start(g, s)))


def trial_point(point, grads, t):
    (g, s), (dg, ds) = point, grads
    return g - t * dg, [x - t * d for x, d in zip(s, ds)]


class TestLinePolyCoeffs:
    def test_zero_directions(self, rng):
        bundle = random_bundle(rng, 6, 2)
        g, s = square_point(rng, 6, 2, 2)
        zero = (np.zeros_like(g), [np.zeros_like(x) for x in s])
        c = square_line_poly(bundle, g, s, *zero)
        assert len(c) == 13
        assert c[0] == pytest.approx(transformed_se(bundle, g, s), rel=1e-12)
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-9)

    def test_c12_is_top_term_norm(self, rng):
        bundle = random_bundle(rng, 5, 2)
        g, s = square_point(rng, 5, 2, 2)
        dg, ds = grad_transformed(bundle, SQUARE, g, s)
        c = square_line_poly(bundle, g, s, dg, ds)
        expected = 0.0
        for dsi in ds:
            top = ((dg * dg) @ (dsi * dsi)) @ (dg * dg).T
            expected += float(np.sum(top * top))
        assert c[12] == pytest.approx(expected, rel=1e-10)
        assert c[12] >= 0.0

    def test_matches_vandermonde_interpolation(self, rng):
        # 13-node exact interpolation through direct SE values at
        # t = 0, +-0.1, ..., +-0.6 recovers the assembled coefficients.
        # Moderate factor scale keeps the coefficient span within what the
        # float64 interpolation can resolve.
        bundle = random_bundle(rng, 6, 2)
        point = square_point(rng, 6, 2, 2, scale=0.5)
        grads = grad_transformed(bundle, SQUARE, *point)
        c = square_line_poly(bundle, *point, *grads)

        nodes = np.array([0.0] + [s * 0.1 * j for j in range(1, 7) for s in (1, -1)])
        values = [transformed_se(bundle, *trial_point(point, grads, t)) for t in nodes]
        vander = np.vander(nodes, 13, increasing=True)
        interpolated = np.linalg.solve(vander, values)
        rel = np.abs(interpolated - c) / np.abs(c)
        assert rel.max() <= 1e-6

    def test_horner_matches_direct_se_along_step(self, rng):
        bundle = random_bundle(rng, 6, 2)
        point = square_point(rng, 6, 2, 2)
        grads = grad_transformed(bundle, SQUARE, *point)
        c = square_line_poly(bundle, *point, *grads)
        for t in rng.uniform(-1.0, 1.0, 20):
            direct = transformed_se(bundle, *trial_point(point, grads, t))
            assert np.polynomial.polynomial.polyval(t, c) == pytest.approx(direct, rel=1e-8)


class TestPolyMinimize:
    def test_shifted_parabola(self):
        # p(t) = (t - 3)^2 = 9 - 6t + t^2
        assert poly_minimize([9.0, -6.0, 1.0]) == pytest.approx(3.0, abs=1e-12)

    def test_double_well(self):
        # p(t) = t^4 - 2 t^2: global minima at -1 and +1, both value -1.
        c = [0.0, 0.0, -2.0, 0.0, 1.0]
        t = poly_minimize(c)
        assert abs(t) == pytest.approx(1.0, abs=1e-10)
        assert np.polynomial.polynomial.polyval(t, c) == pytest.approx(-1.0, abs=1e-12)

    def test_flat_polynomial_returns_zero(self):
        assert poly_minimize([5.0]) == 0.0
        assert poly_minimize(np.zeros(13)) == 0.0

    def test_bounded_stationary_point_outside_gives_best_endpoint(self):
        # (t - 3)^2 and (t + 3)^2 have their minimizers outside [-1, 0].
        assert poly_minimize([9.0, -6.0, 1.0], -1.0, 0.0) == 0.0
        assert poly_minimize([9.0, 6.0, 1.0], -1.0, 0.0) == -1.0
        # p(t) = t is linear: no stationary point, the lower bound wins.
        assert poly_minimize([0.0, 1.0], -1.0, 0.0) == -1.0
        # (t + 1/2)^2 has its minimizer inside.
        assert poly_minimize([0.25, 1.0, 1.0], -1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)
        # t^4 - 2 t^2 on [0, 2]: only the well at +1 is in range.
        assert poly_minimize([0.0, 0.0, -2.0, 0.0, 1.0], 0.0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_bounded_flat_polynomial_returns_zero(self):
        assert poly_minimize([5.0], -1.0, 0.0) == 0.0
        assert poly_minimize(np.zeros(5), -1.0, 0.0) == 0.0

    def test_random_degree_12_against_grid(self, rng):
        for _ in range(5):
            c = rng.standard_normal(13)
            c[12] = abs(c[12]) + 0.5  # positive leading coefficient
            t = poly_minimize(c)

            ts = np.linspace(-10.0, 10.0, 10**7)
            best = np.inf
            for chunk in np.array_split(ts, 20):
                best = min(best, float(np.min(np.polynomial.polynomial.polyval(chunk, c))))
            # the analytic minimizer is at least as good as the grid optimum
            assert np.polynomial.polynomial.polyval(t, c) <= best + 1e-8 * (1.0 + abs(best))

    def test_tiny_leading_coefficients_stripped(self):
        c = np.zeros(13)
        c[0], c[1], c[2] = 1.0, -2.0, 1.0  # (t - 1)^2
        c[12] = 1e-30
        assert poly_minimize(c) == pytest.approx(1.0, abs=1e-9)


class TestSolve:
    def test_monotone_nonincreasing_on_random_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            bundle = random_bundle(rng, 8, 2)
            start = Factorization(
                rng.random((8, 2)),
                [(lambda s: (s + s.T) / 2.0)(rng.random((2, 2))) for _ in range(2)],
            )
            config = SolverConfig(method="gmels", k=2, seed=seed, max_iterations=60, mse_stop=0.0)
            _, trace = run(bundle, config, start=start)
            ses = [r.se for r in trace.records]
            for a, b in zip(ses, ses[1:]):
                assert b <= a * (1 + 1e-12)

    def test_zero_g_start_takes_only_zero_steps(self, rng):
        # At G = 0 both gradients are exactly 0, so every step is an exact
        # no-op and the lifted start comes back unchanged.
        bundle = random_bundle(rng, 6, 2)
        s = np.array([(lambda x: (x + x.T) / 2.0)(rng.random((2, 2))) for _ in range(2)])
        config = SolverConfig(method="gmels", k=2, max_iterations=5, mse_stop=0.0, delta_stop=0.0)
        fact, _ = run(bundle, config, start=Factorization(np.zeros((6, 2)), s))
        assert not fact.G.any()
        assert fact.S.tobytes() == SQUARE.apply(SQUARE.lift(s)).tobytes()

    def test_returns_native_nonnegative(self, rng):
        bundle = random_bundle(rng, 6, 2)
        start = native_start(*square_point(rng, 6, 2, 2))
        config = SolverConfig(method="gmels", k=2, seed=0, max_iterations=20)
        fact, _ = run(bundle, config, start=start)
        assert isinstance(fact, Factorization)
        assert float(fact.G.min()) >= 0.0
        assert all(float(s.min()) >= 0.0 for s in fact.S)

    @pytest.mark.parametrize("block", ["G", "S_2"])
    def test_negative_start_rejected(self, rng, block):
        # run refuses a negative entry before the square-root lift could.
        bundle = random_bundle(rng, 6, 2)
        start = Factorization(rng.random((6, 2)), [np.eye(2), np.eye(2)])
        (start.G if block == "G" else start.S[1])[1, 1] = -0.25
        config = SolverConfig(method="gmels", k=2, seed=0, max_iterations=5)
        with pytest.raises(ValidationError, match="negative"):
            run(bundle, config, start=start)

    def test_planted_recovery_small(self):
        from snmtf.data import generate_synthetic

        bundle, _ = generate_synthetic(n=40, K=4, N=5, seed=3)
        config = SolverConfig(method="gmels", k=4, seed=1)
        fact, trace = run(bundle, config, init="deterministic")
        assert trace.final.mse <= 0.05

    def test_overparameterized_recovery(self):
        # k = 1.2 K leaves spare capacity; the threshold must still be
        # reached within the default cap from the deterministic start.
        from snmtf.data import generate_synthetic

        bundle, _ = generate_synthetic(n=100, K=10, N=5, seed=11)
        config = SolverConfig(method="gmels", k=12, seed=1)
        _, trace = run(bundle, config, init="deterministic")
        assert trace.final.mse <= 0.01
        assert trace.iterations <= 1000

    def test_carried_products_do_not_drift(self, monkeypatch):
        # R_i G is formed once and then moved along each line search.  After
        # the full default cap the carried products still match a fresh
        # R_i G at the last point, and the traced SE matches the n x n
        # residual oracle at the returned factors.
        from snmtf import gmels, se
        from snmtf.data import generate_synthetic

        last = {}
        step = gmels._transformed_step

        def recorded(bundle, transform, g, s, h):
            last["g"], last["h"] = g.copy(), h.copy()
            return step(bundle, transform, g, s, h)

        monkeypatch.setattr(gmels, "_transformed_step", recorded)
        bundle, _ = generate_synthetic(n=200, K=20, N=5, seed=0)
        config = SolverConfig(method="gmels", k=20, mse_stop=0.0, delta_stop=0.0)
        fact, trace = run(bundle, config)
        assert trace.iterations == 1000
        fresh = bundle.times(SQUARE.apply(last["g"]))
        assert np.abs(last["h"] - fresh).max() <= 1e-13 * np.abs(fresh).max()
        assert trace.final.se == pytest.approx(se(bundle, fact), rel=1e-12, abs=0.0)

    def test_never_allocates_an_n_by_n_matrix(self, rng):
        # The line polynomial and the gradient come from R_i @ X products
        # with X of shape n x k; the traced peak stays below one n x n matrix.
        n, k, N = 400, 10, 5
        bundle = random_bundle(rng, n, N)
        start = native_start(*square_point(rng, n, k, N, scale=0.3))
        config = SolverConfig(method="gmels", k=k, seed=0, max_iterations=3, mse_stop=0.0)
        tracemalloc.start()
        try:
            _, trace = run(bundle, config, start=start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.iterations == 3
        assert peak < n * n * 8

    def test_terminal_polynomial_is_flat_at_zero(self, rng):
        # at a delta-criterion stop the line polynomial's minimum is ~p(0)
        from snmtf.gradients import grad_transformed

        bundle = random_bundle(rng, 6, 2)
        start = native_start(*square_point(rng, 6, 2, 2))
        config = SolverConfig(method="gmels", k=2, seed=0, mse_stop=0.0, max_iterations=1000)
        fact, trace = run(bundle, config, start=start)
        if trace.stop_reason == "delta_threshold":
            lifted = SQUARE.lift(fact.G), SQUARE.lift(fact.S)
            grads = grad_transformed(bundle, SQUARE, *lifted)
            c = square_line_poly(bundle, *lifted, *grads)
            t = poly_minimize(c)
            assert abs(np.polynomial.polynomial.polyval(t, c) - c[0]) <= 1e-8 * (1.0 + c[0])

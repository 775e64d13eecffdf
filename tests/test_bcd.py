import numpy as np
import pytest

from snmtf.bcd import INNER_STEPS, _g_step, _quartic, _s_inner_solve, iterate
from snmtf.gradients import _grad_g, _gram_products, _line_poly
from snmtf.model import (
    DataBundle,
    Factorization,
    SolverConfig,
    drive,
    se,
)
from snmtf.runner import build_start, run

from conftest import exact_fit_pair, native_gradient, quartic_along, random_bundle, random_native_fact


class TestQuarticCoeffs:
    def test_zero_direction(self, rng):
        bundle = random_bundle(rng, 6, 2)
        fact = random_native_fact(rng, 6, 2, 2)
        c = quartic_along(bundle, fact, np.zeros_like(fact.G))
        assert c[0] == pytest.approx(se(bundle, fact), rel=1e-12)
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)

    def test_exact_fit_leaves_only_even_terms(self, rng):
        bundle, fact = exact_fit_pair(rng, 6, 2, 2)
        dg = rng.standard_normal(fact.G.shape)
        c = quartic_along(bundle, fact, dg)
        scale = bundle.norm_sq_total
        assert abs(c[0]) <= 1e-12 * scale
        assert abs(c[1]) <= 1e-10 * scale
        assert c[2] >= 0.0  # sum of ||P_i||^2
        assert c[4] >= 0.0

    def test_probe_values_match_direct_se(self, rng):
        bundle = random_bundle(rng, 5, 3)
        fact = random_native_fact(rng, 5, 2, 3)
        dg, _ = native_gradient(bundle, fact)
        c = quartic_along(bundle, fact, dg)
        for t in (-1.0, -0.5, -0.1, 0.1, 0.5):
            direct = se(bundle, Factorization(fact.G + t * dg, fact.S))
            assert np.polynomial.polynomial.polyval(t, c) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("direction", ["gradient", "random"])
    def test_quartic_matches_the_line_polynomial(self, rng, direction):
        # The G step's quartic from its own terms against the general line
        # polynomial with P = (G, dG), Q = (S,); only c0 = SE is left out.
        bundle = random_bundle(rng, 9, 3)
        fact = random_native_fact(rng, 9, 4, 3)
        g, s = fact.G, fact.S
        gram, h, _ = _gram_products(bundle, g)
        dg, num = _grad_g(g, gram, h, s)
        if direction == "random":
            dg = rng.standard_normal(g.shape)
        rdg = bundle.times(dg)
        c = _quartic(g, dg, gram, s, num, rdg)
        assert c[0] == 0.0
        reference = _line_poly(bundle, np.hstack((g, dg)), s[None], (h, rdg))
        np.testing.assert_allclose(c[1:], reference[1:], rtol=1e-10)

    def test_c4_nonnegative(self, rng):
        bundle = random_bundle(rng, 6, 2)
        fact = random_native_fact(rng, 6, 3, 2)
        dg = rng.standard_normal(fact.G.shape)
        assert quartic_along(bundle, fact, dg)[4] >= 0.0


class TestLinesearchG:
    def test_scalar_case_matches_grid_search(self):
        # R = 4, G = 1, S = 1: gradient is -12 and
        # p(t) = (4 - (1 - 12 t)^2)^2 over [-1, 0].
        bundle = DataBundle.from_matrices([np.array([[4.0]])])
        fact = Factorization(np.array([[1.0]]), [np.array([[1.0]])])
        g_new = _g_step(bundle, fact.G, fact.G.T @ fact.G, bundle.times(fact.G), fact.S,
                        np.random.default_rng(0))
        t_taken = (g_new[0, 0] - 1.0) / -12.0

        ts = np.linspace(-1.0, 0.0, 10**6)
        vals = (4.0 - (1.0 - 12.0 * ts) ** 2) ** 2
        t_grid = ts[np.argmin(vals)]
        assert t_taken == pytest.approx(t_grid, abs=1e-6)

    def test_strict_descent_case_decreases_se(self, rng):
        bundle = random_bundle(rng, 8, 2, scale=2.0)
        fact = random_native_fact(rng, 8, 3, 2)
        before = se(bundle, fact)
        g_new = _g_step(bundle, fact.G, fact.G.T @ fact.G, bundle.times(fact.G), fact.S,
                        np.random.default_rng(1))
        after = se(bundle, Factorization(g_new, fact.S))
        # far from stationarity the decrease clears the perturbation threshold
        assert after < before - 1e-3
        assert float(g_new.min()) >= 0.0

    def test_perturbation_fires_at_exact_fit(self, rng):
        bundle, fact = exact_fit_pair(rng, 6, 2, 2)
        g_new = _g_step(bundle, fact.G, fact.G.T @ fact.G, bundle.times(fact.G), fact.S,
                        np.random.default_rng(5))
        delta = g_new - fact.G
        assert np.any(delta != 0.0)
        assert np.abs(delta).max() <= 1e-5  # escape scale
        after = se(bundle, Factorization(g_new, fact.S))
        assert after <= 1e-6  # tiny controlled increase


class TestLinesearchS:
    def test_exact_fit_unchanged(self, rng):
        bundle, fact = exact_fit_pair(rng, 6, 2, 2)
        gram, _, mid = _gram_products(bundle, fact.G)
        s_new = _s_inner_solve(gram, mid, fact.S, 1)[0]
        np.testing.assert_allclose(s_new, fact.S[0], atol=1e-12)

    def test_t_matches_grid_search(self, rng):
        bundle = random_bundle(rng, 6, 1)
        fact = random_native_fact(rng, 6, 2, 1)
        _, ds = native_gradient(bundle, fact)
        d = ds[0]
        z = bundle.R[0] - (fact.G @ fact.S[0]) @ fact.G.T
        w = (fact.G @ d) @ fact.G.T

        # independent grid search on ||Z - t W||^2 over [-2, 2], 10^6 points
        ts = np.linspace(-2.0, 2.0, 10**6)
        best_t, best_v = 0.0, np.inf
        for chunk in np.array_split(ts, 50):
            vals = np.sum((z[None, :, :] - chunk[:, None, None] * w[None, :, :]) ** 2, axis=(1, 2))
            j = int(np.argmin(vals))
            if vals[j] < best_v:
                best_v, best_t = vals[j], chunk[j]

        t_closed = float(np.sum(z * w)) / float(np.sum(w * w))
        gram, _, mid = _gram_products(bundle, fact.G)
        s_new = _s_inner_solve(gram, mid, fact.S, 1)[0]
        np.testing.assert_allclose(s_new, np.maximum(fact.S[0] + t_closed * d, 0.0), atol=1e-12)
        assert abs(t_closed - best_t) <= 1e-5

    def test_quadratic_value_never_above_start(self, rng):
        # p_i(t*) <= p_i(0) for 100 random instances (convexity).
        for trial in range(100):
            r = np.random.default_rng(trial)
            bundle = random_bundle(r, 5, 1)
            fact = random_native_fact(r, 5, 2, 1)
            _, ds = native_gradient(bundle, fact)
            d = ds[0]
            z = bundle.R[0] - (fact.G @ fact.S[0]) @ fact.G.T
            w = (fact.G @ d) @ fact.G.T
            denom = float(np.sum(w * w))
            if denom == 0.0:
                continue
            t = float(np.sum(z * w)) / denom
            p0 = float(np.sum(z * z))
            pt = float(np.sum((z - t * w) ** 2))
            assert pt <= p0 * (1 + 1e-12)

    def test_degenerate_direction_skips(self):
        # G = 0 makes ||G dS G^T|| = 0; the update must be a no-op.
        bundle = DataBundle.from_matrices([np.eye(3)])
        fact = Factorization(np.zeros((3, 2)), [np.full((2, 2), 0.5)])
        gram, _, mid = _gram_products(bundle, fact.G)
        s_new = _s_inner_solve(gram, mid, fact.S, 1)[0]
        np.testing.assert_array_equal(s_new, fact.S[0])


def per_block_s_solve(gram, mid, s, iterations):
    """One S block's projected-gradient solve as a scalar loop: the reference
    for the batched ``_s_inner_solve``.  Like the Gram kernel, it takes
    A S A and A dS A at their symmetric parts."""
    def sandwich(x):
        y = gram @ x @ gram
        return (y + y.T) / 2.0

    s = s.copy()
    for _ in range(iterations):
        asa = sandwich(s)
        ds = 2.0 * (asa - mid)
        denom = float(np.vdot(sandwich(ds), ds))
        if not np.isfinite(denom) or denom <= 0.0:
            break
        s = np.maximum(s + float(np.vdot(mid - asa, ds)) / denom * ds, 0.0)
    return s


class TestSInnerSolve:
    def _blocks(self, rng):
        # Block 1 is an exact fit of its quadratic: dS_1 = 0, so its step
        # denominator is 0 and it must stay frozen while the others move.
        bundle = random_bundle(rng, 8, 3)
        g = rng.random((8, 3))
        gram, _, mid = _gram_products(bundle, g)
        s = np.stack([(x + x.T) / 2.0 for x in rng.random((3, 3, 3))])
        mid[1] = gram @ s[1] @ gram
        return bundle, gram, mid, s

    def test_batched_matches_per_block_loop_bit_for_bit(self, rng):
        _, gram, mid, s = self._blocks(rng)
        out = _s_inner_solve(gram, mid, s, 10)
        for i in range(3):
            np.testing.assert_array_equal(out[i], per_block_s_solve(gram, mid[i], s[i], 10))
        np.testing.assert_array_equal(out[1], s[1])
        assert not np.array_equal(out[0], s[0])

    def test_substep_log_rows_match_per_block_runs(self, rng):
        bundle, gram, mid, s = self._blocks(rng)
        norms = np.asarray(bundle.norms_sq)
        batched: list = []
        _s_inner_solve(gram, mid, s, 10, norms, batched)
        single: list = []
        for i in range(3):
            _s_inner_solve(gram, mid[i:i + 1], s[i:i + 1], 10, norms[i:i + 1], single)

        def rows(log):
            return sorted((r["step"], r["se_before"], r["se_unprojected"], r["se_projected"]) for r in log)

        assert len(batched) == 20  # the frozen block logs nothing
        assert rows(batched) == rows(single)


class TestSolve:
    def test_planted_recovery_small(self):
        from snmtf.data import generate_synthetic

        bundle, _ = generate_synthetic(n=40, K=4, N=5, seed=3)
        config = SolverConfig(method="bcd", k=4, seed=1)
        fact, trace = run(bundle, config, start=build_start(bundle, config))
        assert trace.final.mse <= 0.05
        assert float(fact.G.min()) >= 0.0
        assert all(float(s.min()) >= 0.0 for s in fact.S)

    def test_symmetry_maintained(self, rng):
        bundle = random_bundle(rng, 10, 3)
        config = SolverConfig(method="bcd", k=3, seed=2, max_iterations=20, mse_stop=0.0)
        fact, _ = run(bundle, config, start=random_native_fact(rng, 10, 3, bundle.N))
        for s in fact.S:
            assert np.abs(s - s.T).max() <= 1e-10 * max(np.abs(s).max(), 1.0)

    def test_s_substeps_never_increase_pre_projection(self, rng):
        bundle = random_bundle(rng, 8, 2)
        config = SolverConfig(method="bcd", k=2, seed=0, max_iterations=5, mse_stop=0.0)
        log: list = []
        start = random_native_fact(rng, 8, 2, bundle.N)
        drive(bundle, config, iterate(bundle, config, start, np.random.default_rng(config.seed),
                                      substep_log=log))
        assert log
        for row in log:
            assert row["se_unprojected"] <= row["se_before"] * (1 + 1e-12) + 1e-12

    def test_negative_start_rejected(self, rng):
        bundle = random_bundle(rng, 4, 1)
        config = SolverConfig(method="bcd", k=1)
        with pytest.raises(ValueError, match="start G has negative entry"):
            run(bundle, config, start=Factorization(-np.ones((4, 1)), rng.random((1, 1, 1))))

    def test_outer_iteration_is_s_block_then_g_block(self, rng):
        # one outer iteration == 10 S line searches per i from the start's
        # S at fixed G, then 10 G line searches at the new S
        bundle = random_bundle(rng, 6, 2)
        start = random_native_fact(rng, 6, 2, bundle.N)
        config = SolverConfig(
            method="bcd", k=2, seed=3, max_iterations=1, mse_stop=0.0, delta_stop=0.0
        )
        fact, _ = run(bundle, config, start=start)

        gram, _, mid = _gram_products(bundle, start.G)
        s = start.S
        for _ in range(INNER_STEPS):
            s = _s_inner_solve(gram, mid, s, 1)
        g = start.G
        manual_rng = np.random.default_rng(config.seed)
        for _ in range(INNER_STEPS):
            g = _g_step(bundle, g, g.T @ g, bundle.times(g), s, manual_rng)
        np.testing.assert_array_equal(fact.G, g)
        for a, b in zip(fact.S, s):
            np.testing.assert_array_equal(a, b)

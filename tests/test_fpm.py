import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmtf.model import (
    DataBundle,
    Factorization,
    SolverConfig,
    mse,
)
from snmtf.runner import run

from conftest import exact_fit_pair, fpm_new_g, fpm_new_s, random_bundle, random_native_fact


class TestStepG:
    def test_fixed_point_at_strictly_positive_exact_fit(self, rng):
        bundle, fact = exact_fit_pair(rng, 8, 3, 2, strictly_positive=True)
        g_new = fpm_new_g(bundle, fact)
        assert np.abs(g_new - fact.G).max() <= 1e-12 * np.abs(fact.G).max()

    def test_zero_entries_stay_zero(self, rng):
        bundle = random_bundle(rng, 6, 2)
        fact = random_native_fact(rng, 6, 3, 2)
        fact.G[1, 2] = 0.0
        fact.G[4, 0] = 0.0
        g = fact.G
        for _ in range(25):
            g = fpm_new_g(bundle, Factorization(g, fact.S))
        assert g[1, 2] == 0.0 and g[4, 0] == 0.0
        assert float(g.min()) >= 0.0

    def test_scalar_update(self):
        # R = 4, G = 1, S = 1: G <- 1 * sqrt(4 / 1) = 2.
        bundle = DataBundle.from_matrices([np.array([[4.0]])])
        fact = Factorization(np.array([[1.0]]), [np.array([[1.0]])])
        assert fpm_new_g(bundle, fact)[0, 0] == pytest.approx(2.0, rel=1e-12)


class TestStepS:
    def test_fixed_point_at_exact_fit(self, rng):
        bundle, fact = exact_fit_pair(rng, 7, 2, 3, strictly_positive=True)
        s_new = fpm_new_s(bundle, fact)
        for i in range(3):
            assert np.abs(s_new[i] - fact.S[i]).max() <= 1e-12 * np.abs(fact.S[i]).max()

    def test_scalar_update(self):
        # R = 4, G = 2, S = 1: S <- 1 * sqrt(16 / 16) = 1.
        bundle = DataBundle.from_matrices([np.array([[4.0]])])
        fact = Factorization(np.array([[2.0]]), [np.array([[1.0]])])
        assert fpm_new_s(bundle, fact)[0][0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_symmetry_drift_after_1000_steps(self, rng):
        bundle = random_bundle(rng, 10, 2)
        fact = random_native_fact(rng, 10, 3, 2)
        s = fact.S[0]
        for _ in range(1000):
            s = fpm_new_s(bundle, Factorization(fact.G, [s, fact.S[1]]))[0]
        assert np.abs(s - s.T).max() <= 1e-10 * max(np.abs(s).max(), 1.0)


class TestSolve:
    def test_exact_start_stops_quickly_via_delta(self, rng):
        bundle, fact = exact_fit_pair(rng, 8, 3, 2)
        config = SolverConfig(method="fpm", k=3, seed=0)
        result, trace = run(bundle, config, start=fact)
        assert trace.stop_reason == "delta_threshold"
        assert trace.iterations <= 2

    def test_planted_recovery_small(self):
        from snmtf.data import generate_synthetic

        bundle, _ = generate_synthetic(n=40, K=4, N=5, seed=3)
        config = SolverConfig(method="fpm", k=4, seed=1)
        fact, trace = run(bundle, config, init="deterministic")
        assert trace.final.mse <= 0.02
        assert float(fact.G.min()) >= 0.0

    def test_nonnegativity_preserved_every_iteration(self, rng):
        bundle = random_bundle(rng, 8, 3)
        start = random_native_fact(rng, 8, 2, 3)
        config = SolverConfig(method="fpm", k=2, seed=0, max_iterations=50, mse_stop=0.0)
        fact, trace = run(bundle, config, start=start)
        assert float(fact.G.min()) >= 0.0
        assert all(float(s.min()) >= 0.0 for s in fact.S)

    def test_trace_invariants(self, rng):
        bundle = random_bundle(rng, 8, 2)
        start = random_native_fact(rng, 8, 2, 2)
        config = SolverConfig(method="fpm", k=2, seed=0, max_iterations=30, mse_stop=0.0)
        _, trace = run(bundle, config, start=start)
        iters = [r.iteration for r in trace.records]
        assert iters == sorted(iters) and len(set(iters)) == len(iters)
        times = [r.elapsed_seconds for r in trace.records]
        assert all(b >= a for a, b in zip(times, times[1:]))
        for rec in trace.records:
            assert rec.mse == pytest.approx(rec.se / bundle.norm_sq_total, rel=1e-15)

    def test_iteration_updates_g_first_then_s_with_new_g(self, rng):
        # one solver iteration == step_g, then step_s for each i at the new G
        bundle = random_bundle(rng, 6, 2)
        start = random_native_fact(rng, 6, 2, 2)
        config = SolverConfig(
            method="fpm", k=2, seed=0, max_iterations=1, mse_stop=0.0, delta_stop=0.0
        )
        fact, _ = run(bundle, config, start=start)

        g1 = fpm_new_g(bundle, start)
        s1 = fpm_new_s(bundle, Factorization(g1, start.S))
        np.testing.assert_array_equal(fact.G, g1)
        for a, b in zip(fact.S, s1):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_update_nonnegative_for_any_seed(self, seed):
        rng = np.random.default_rng(seed)
        bundle = random_bundle(rng, 5, 2)
        fact = random_native_fact(rng, 5, 2, 2)
        g_new = fpm_new_g(bundle, fact)
        assert float(g_new.min()) >= 0.0
        s_new = fpm_new_s(bundle, fact)[0]
        assert float(s_new.min()) >= 0.0

import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmtf.adam import AdamState, adam_eta, adam_solve, adam_step, tune_adam
from snmtf.data import generate_synthetic
from snmtf.initialization import random_init
from snmtf.model import (
    DataBundle,
    Factorization,
    SolverConfig,
    SolverDivergedError,
    ValidationError,
)

from conftest import assert_block_stack, random_bundle


class TestEta:
    def test_first_step_value(self):
        # alpha sqrt(1 - 0.005^1) / (1 - 0.05^1)
        expected = 0.002 * math.sqrt(1.0 - 0.005) / (1.0 - 0.05)
        assert adam_eta(0.002, 0.95, 0.995, 1) == pytest.approx(expected, rel=1e-15)

    def test_tends_to_alpha(self):
        assert adam_eta(0.002, 0.95, 0.995, 10_000) == pytest.approx(0.002, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(min_value=0.2, max_value=0.99),
        i=st.integers(min_value=1, max_value=500),
    )
    def test_equal_betas_never_below_alpha(self, beta, i):
        # beta1 = beta2 = beta collapses the schedule to alpha / sqrt(1-(1-beta)^i)
        eta = adam_eta(0.01, beta, beta, i)
        assert eta >= 0.01 * (1 - 1e-12)
        assert eta == pytest.approx(0.01 / math.sqrt(1.0 - (1.0 - beta) ** i), rel=1e-12)

    def test_standard_bias_correction_variant(self):
        expected = 0.002 * math.sqrt(1.0 - 0.995) / (1.0 - 0.95)
        assert adam_eta(0.002, 0.95, 0.995, 1, standard_bias_correction=True) == pytest.approx(
            expected, rel=1e-15
        )


class TestStep:
    def _point(self, rng):
        """Raw variables G' and a one-block S' stack."""
        g = rng.standard_normal((2, 2))
        s = rng.standard_normal((2, 2))
        s = (s + s.T) / 2.0
        return g, s[None].copy()

    def test_moments_are_stacks(self, rng):
        g, s = rng.random((4, 2)), rng.random((3, 2, 2))
        state = AdamState.zeros_like(g, s)
        assert_block_stack(state.m_s, 3, 2)
        assert_block_stack(state.v_s, 3, 2)

    def test_stacked_step_matches_per_block_steps(self, rng):
        g, s = rng.random((4, 2)), rng.random((3, 2, 2))
        grads = (rng.standard_normal((4, 2)), rng.standard_normal((3, 2, 2)))
        expected = []
        for x, d in zip(s, grads[1]):
            m, v = (1.0 - 0.9) * d, (1.0 - 0.99) * d * d
            expected.append(x - 0.05 * m / (np.sqrt(v) + 1e-8))
        adam_step(AdamState.zeros_like(g, s), g, s, grads, 0.05, 0.9, 0.99, 1e-8)
        np.testing.assert_array_equal(s, expected)

    def test_zero_gradient_zero_state_moves_nothing(self, rng):
        g, s = self._point(rng)
        g0 = g.copy()
        state = AdamState.zeros_like(g, s)
        zero = (np.zeros_like(g), [np.zeros_like(x) for x in s])
        adam_step(state, g, s, zero, eta=0.1, beta1=0.9, beta2=0.99, eps=1e-8)
        np.testing.assert_array_equal(g, g0)
        assert np.all(state.m_g == 0.0) and np.all(state.v_g == 0.0)

    def test_zero_gradient_decays_existing_moments(self, rng):
        g, s = self._point(rng)
        state = AdamState.zeros_like(g, s)
        state.m_g += 0.25
        state.v_g += 0.5
        zero = (np.zeros_like(g), [np.zeros_like(x) for x in s])
        adam_step(state, g, s, zero, eta=0.1, beta1=0.9, beta2=0.99, eps=1e-8)
        np.testing.assert_allclose(state.m_g, 0.25 * 0.9, rtol=1e-15)
        np.testing.assert_allclose(state.v_g, 0.5 * 0.99, rtol=1e-15)

    def test_first_step_direction(self, rng):
        g, s = self._point(rng)
        g0 = g.copy()
        grad = rng.standard_normal(g.shape)
        state = AdamState.zeros_like(g, s)
        beta1, beta2, eps, eta = 0.95, 0.995, 1e-8, 0.002
        adam_step(state, g, s, (grad, [np.zeros((2, 2))]), eta, beta1, beta2, eps)
        expected = g0 - eta * (1 - beta1) * grad / (np.sqrt((1 - beta2) * grad**2) + eps)
        np.testing.assert_allclose(g, expected, rtol=1e-12)
        # per entry that is sign(-grad) scaled nearly uniformly
        moved = np.sign(g - g0)
        np.testing.assert_array_equal(moved, -np.sign(grad))

    def test_three_scripted_steps_match_hand_recursion(self, rng):
        g, s = self._point(rng)
        state = AdamState.zeros_like(g, s)
        beta1, beta2, eps = 0.9, 0.99, 1e-8
        grads = [rng.standard_normal((2, 2)) for _ in range(3)]
        s_grads = [rng.standard_normal((2, 2)) for _ in range(3)]
        s_grads = [(d + d.T) / 2.0 for d in s_grads]

        # independent hand-tracked recursion
        xg = g.copy()
        xs = s[0].copy()
        mg = np.zeros((2, 2))
        vg = np.zeros((2, 2))
        ms = np.zeros((2, 2))
        vs = np.zeros((2, 2))
        for step in range(3):
            eta = 0.01 * (step + 1)
            mg = beta1 * mg + (1 - beta1) * grads[step]
            vg = beta2 * vg + (1 - beta2) * grads[step] ** 2
            xg = xg - eta * mg / (np.sqrt(vg) + eps)
            ms = beta1 * ms + (1 - beta1) * s_grads[step]
            vs = beta2 * vs + (1 - beta2) * s_grads[step] ** 2
            xs = xs - eta * ms / (np.sqrt(vs) + eps)

        for step in range(3):
            eta = 0.01 * (step + 1)
            adam_step(state, g, s, (grads[step], [s_grads[step]]), eta, beta1, beta2, eps)

        np.testing.assert_allclose(g, xg, atol=1e-12)
        np.testing.assert_allclose(s[0], xs, atol=1e-12)

    def test_second_moment_nonnegative(self, rng):
        g, s = self._point(rng)
        state = AdamState.zeros_like(g, s)
        for _ in range(50):
            grad = rng.standard_normal(g.shape)
            adam_step(state, g, s, (grad, [np.zeros((2, 2))]), 0.01, 0.9, 0.99, 1e-8)
            assert float(state.v_g.min()) >= 0.0


class TestSolve:
    def test_planted_recovery_small(self):
        from snmtf.runner import run

        bundle, _ = generate_synthetic(n=40, K=4, N=5, seed=3)
        config = SolverConfig(method="adam", k=4, seed=1)
        fact, trace = run(bundle, config, init="deterministic")
        assert trace.final.mse <= 0.01
        assert float(fact.G.min()) >= 0.0
        assert all(float(s.min()) >= 0.0 for s in fact.S)

    def test_zero_gradient_start_never_moves(self, rng):
        # An exact fit has zero gradient, so no entry may move.  Dyadic
        # entries make every product exact in any evaluation order, so the
        # computed gradient is exactly zero too, not just zero up to rounding.
        g = rng.integers(1, 9, (12, 2)) / 8.0
        s_list = [(lambda s: np.triu(s) + np.triu(s, 1).T)(rng.integers(0, 5, (2, 2)) / 4.0)
                  for _ in range(2)]
        bundle = DataBundle.from_matrices([g @ s @ g.T for s in s_list])
        start = Factorization(g, s_list)
        config = SolverConfig(method="adam", k=2, seed=0, max_iterations=10,
                              mse_stop=0.0, delta_stop=0.0)
        fact, trace = adam_solve(bundle, config, start)
        assert trace.iterations == 10
        np.testing.assert_array_equal(fact.G, g)
        for s, s0 in zip(fact.S, s_list):
            np.testing.assert_array_equal(s, s0)

    def test_never_allocates_an_n_by_n_matrix(self, rng):
        # SE and the gradient come from R_i @ X products with X of shape
        # n x k; the traced peak stays below one n x n matrix.
        n, k, N = 400, 10, 5
        bundle = random_bundle(rng, n, N)
        start = random_init(n, k, N, seed=2)
        config = SolverConfig(method="adam", k=k, seed=0, max_iterations=3, mse_stop=0.0)
        tracemalloc.start()
        try:
            _, trace = adam_solve(bundle, config, start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.iterations == 3
        assert peak < n * n * 8

    def test_symmetry_preserved(self, rng):
        bundle = random_bundle(rng, 8, 2)
        start = random_init(8, 3, 2, seed=4)
        config = SolverConfig(method="adam", k=3, seed=0, max_iterations=500, mse_stop=0.0)
        fact, _ = adam_solve(bundle, config, start)
        for s in fact.S:
            assert np.abs(s - s.T).max() <= 1e-10 * max(np.abs(s).max(), 1.0)

    def test_divergence_aborts_with_records(self, rng):
        bundle = random_bundle(rng, 6, 2)
        start = random_init(6, 2, 2, seed=1)
        config = SolverConfig(
            method="adam", k=2, seed=0, adam_alpha=1e150, max_iterations=50, mse_stop=0.0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergedError) as err:
                adam_solve(bundle, config, start)
        assert err.value.records  # partial trace attached

    @pytest.mark.parametrize("block", ["G", "S_1"])
    def test_negative_start_rejected(self, rng, block):
        # The lift inside the solver refuses a negative entry, although
        # |X'| would map it to a valid point.
        bundle = random_bundle(rng, 4, 1)
        start = random_init(4, 2, 1, seed=0)
        (start.G if block == "G" else start.S[0])[1, 1] = -0.25
        config = SolverConfig(method="adam", k=2)
        with pytest.raises(ValidationError, match="negative"):
            adam_solve(bundle, config, start)


REAL_DATA = os.environ.get("SNMTF_REAL_DATA")


@pytest.mark.skipif(
    not (REAL_DATA and (Path(REAL_DATA) / "voting").is_dir()),
    reason="set SNMTF_REAL_DATA to a directory holding a 'voting' bundle",
)
def test_voting_similarity_matrix_optional():
    # Externally sourced 435-point similarity data; expected MSE about
    # 0.003 +- 0.005 at k = 5.
    from snmtf.data import load_bundle
    from snmtf.runner import run

    bundle = load_bundle(Path(REAL_DATA) / "voting", symmetrize=True)
    config = SolverConfig(method="adam", k=5, seed=1)
    _, trace = run(bundle, config, init="deterministic")
    assert trace.final.mse <= 0.008


class TestTuner:
    def _suite(self):
        problems = []
        for seed in (0, 1):
            bundle, planted = generate_synthetic(n=24, K=3, N=2, seed=seed)
            problems.append((bundle, planted.k))
        return problems

    def test_deterministic_ranked_list(self):
        problems = self._suite()
        a = tune_adam(problems, trials=3, seed=11, max_iterations=200)
        b = tune_adam(problems, trials=3, seed=11, max_iterations=200)
        assert [r["trial"] for r in a] == [r["trial"] for r in b]
        assert [r["score"] for r in a] == [r["score"] for r in b]
        assert [r["score"] for r in a] == sorted(r["score"] for r in a)

    def test_fixed_point_scoring(self):
        problems = self._suite()
        rows = tune_adam(problems, trials=1, seed=0, points=[(0.002, 0.95, 0.995)])
        assert len(rows) == 1
        assert rows[0]["alpha"] == 0.002
        assert len(rows[0]["per_problem_mse"]) == len(problems)

    def test_degenerate_scalar_problem_scores_zero(self):
        # one exactly factorable scalar problem: R = [[4]] = g s g^T
        from snmtf.model import DataBundle

        bundle = DataBundle.from_matrices([np.array([[4.0]])])
        rows = tune_adam([(bundle, 1)], trials=1, seed=3,
                         points=[(0.002, 0.95, 0.995)], max_iterations=2000)
        assert rows[0]["score"] <= 1e-2

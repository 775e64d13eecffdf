import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmtf import adam, bcd, runner
from snmtf.model import (
    DELTA_THRESHOLD,
    LEADING_COEFF_RTOL,
    MAX_ITERATIONS,
    METHODS,
    MSE_THRESHOLD,
    SYMMETRY_INPUT_RTOL,
    ConvergenceTrace,
    REAL_ROOT_IMAG_RTOL,
    DataBundle,
    DimensionError,
    Factorization,
    SolverConfig,
    SolverDivergedError,
    Transform,
    ValidationError,
    _check_symmetric,
    drive,
    mse,
    poly_minimize,
    poly_value,
    residuals,
    se,
    se_from_gram,
)

from conftest import (
    assert_block_stack,
    assert_one_stack,
    exact_fit_pair,
    random_bundle,
    random_native_fact,
)


def se_triple_loop(r_list, g, s_list):
    """Independent O(n^2 k^2) summation oracle for the objective."""
    n, k = g.shape
    total = 0.0
    for r, s in zip(r_list, s_list):
        for mu in range(n):
            for nu in range(n):
                acc = 0.0
                for p in range(k):
                    for q in range(k):
                        acc += g[mu, p] * s[p, q] * g[nu, q]
                total += (r[mu, nu] - acc) ** 2
    return total


class TestSE:
    def test_zero_factors_give_total_norm(self, rng):
        bundle = random_bundle(rng, 6, 3)
        fact = Factorization(np.zeros((6, 2)), [np.zeros((2, 2))] * 3)
        assert se(bundle, fact) == pytest.approx(bundle.norm_sq_total, rel=1e-14)

    def test_exact_fit_is_zero(self, rng):
        bundle, fact = exact_fit_pair(rng, 7, 3, 2)
        assert se(bundle, fact) <= 1e-16 * bundle.norm_sq_total

    def test_matches_triple_loop_oracle(self, rng):
        bundle = random_bundle(rng, 6, 2)
        fact = random_native_fact(rng, 6, 2, 2)
        expected = se_triple_loop(bundle.R, fact.G, fact.S)
        assert se(bundle, fact) == pytest.approx(expected, rel=1e-12)

    def test_se_matches_residual_norms(self, rng):
        bundle = random_bundle(rng, 8, 3)
        fact = random_native_fact(rng, 8, 4, 3)
        z = residuals(bundle, fact)
        via_residuals = sum(float(np.sum(zi * zi)) for zi in z)
        assert se(bundle, fact) == pytest.approx(via_residuals, rel=1e-12)

    def test_se_from_gram_identity(self, rng):
        bundle = random_bundle(rng, 9, 2)
        fact = random_native_fact(rng, 9, 3, 2)
        gram = fact.G.T @ fact.G
        mid = [fact.G.T @ (r @ fact.G) for r in bundle.R]
        fast = se_from_gram(bundle.norms_sq, gram, mid, fact.S)
        assert fast == pytest.approx(se(bundle, fact), rel=1e-10)

    def test_dimension_mismatch_names_matrix(self, rng):
        bundle = random_bundle(rng, 6, 2)
        with pytest.raises(DimensionError, match="S_2"):
            se(bundle, Factorization(np.zeros((6, 2)), [np.zeros((2, 2)), np.zeros((3, 3))]))
        with pytest.raises(DimensionError, match="G"):
            se(bundle, Factorization(np.zeros((5, 2)), [np.zeros((2, 2))] * 2))

    def test_block_count_mismatch(self, rng):
        bundle = random_bundle(rng, 6, 2)
        with pytest.raises(DimensionError, match="factorization has 1 S matrices, bundle has N = 2"):
            se(bundle, Factorization(np.zeros((6, 2)), [np.zeros((2, 2))]))


class TestMSE:
    def test_zero_factors_give_one(self, rng):
        bundle = random_bundle(rng, 5, 2)
        fact = Factorization(np.zeros((5, 3)), [np.zeros((3, 3))] * 2)
        assert mse(bundle, fact) == pytest.approx(1.0, rel=1e-14)

    def test_exact_fit_is_zero(self, rng):
        bundle, fact = exact_fit_pair(rng, 6, 2, 3)
        assert mse(bundle, fact) <= 1e-16

    def test_all_zero_bundle_rejected(self):
        bundle = DataBundle.from_matrices([np.zeros((3, 3))])
        fact = Factorization(np.zeros((3, 1)), [np.zeros((1, 1))])
        with pytest.raises(ValidationError, match="all-zero"):
            mse(bundle, fact)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_invariance(self, c):
        rng = np.random.default_rng(7)
        bundle = random_bundle(rng, 6, 2)
        fact = random_native_fact(rng, 6, 2, 2)
        scaled = DataBundle.from_matrices([c * r for r in bundle.R])
        fact_scaled = Factorization(fact.G, [c * s for s in fact.S])
        assert mse(scaled, fact_scaled) == pytest.approx(mse(bundle, fact), rel=1e-10)


class TestResiduals:
    def test_exact_fit_residuals_vanish(self, rng):
        bundle, fact = exact_fit_pair(rng, 6, 2, 2)
        for z in residuals(bundle, fact):
            assert np.abs(z).max() <= 1e-12

    def test_square_transform_all_ones_hand_expanded(self):
        # f(G) = all-ones for G = all-ones, so the fitted part is 1 S 1^T:
        # every entry equals the total sum of f(S).
        r = np.full((3, 3), 5.0)
        bundle = DataBundle.from_matrices([r])
        g = np.ones((3, 2))
        s = np.array([[1.0, 2.0], [2.0, 0.5]])
        fact = Factorization(Transform.SQUARE.apply(g), [Transform.SQUARE.apply(s)])
        expected = r - np.full((3, 3), float(np.sum(s * s)))
        z = residuals(bundle, fact)[0]
        np.testing.assert_allclose(z, expected, rtol=1e-14)

    def test_residuals_symmetric_for_symmetric_s(self, rng):
        bundle = random_bundle(rng, 7, 3)
        fact = random_native_fact(rng, 7, 2, 3)
        for z in residuals(bundle, fact):
            assert np.abs(z - z.T).max() <= 1e-12


class TestDataBundle:
    def test_rejects_asymmetric_without_flag(self, rng):
        r = rng.random((5, 5))
        r = (r + r.T) / 2.0
        r[0, 1] += 1e-6
        with pytest.raises(ValidationError, match="not symmetric"):
            DataBundle.from_matrices([r])
        bundle = DataBundle.from_matrices([r], symmetrize=True)
        np.testing.assert_allclose(bundle.R[0], (r + r.T) / 2.0)

    def test_rejects_negative_entry_with_coordinates(self, rng):
        r = rng.random((4, 4))
        r = (r + r.T) / 2.0
        r[2, 1] = r[1, 2] = -0.5
        with pytest.raises(ValidationError, match=r"R_1 has negative entry .* at \(1, 2\)"):
            DataBundle.from_matrices([r])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        data=st.data(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_rejects_any_non_finite_entry(self, n, data, bad):
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=0, max_value=n - 1))
        r = np.ones((n, n))
        r[i, j] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            DataBundle.from_matrices([np.ones((n, n)), r])
        with pytest.raises(ValidationError, match="non-finite"):
            DataBundle.from_matrices([r], symmetrize=True)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="not square"):
            DataBundle.from_matrices([np.zeros((3, 4))])

    def test_rejects_no_matrices(self):
        with pytest.raises(ValidationError, match="a bundle needs at least one matrix"):
            DataBundle.from_matrices([])

    def test_rejects_mixed_orders(self, rng):
        a = random_bundle(rng, 4, 1).R[0]
        b = random_bundle(rng, 5, 1).R[0]
        with pytest.raises(ValidationError, match="R_2"):
            DataBundle.from_matrices([a, b])

    def test_norm_cached_at_construction(self, rng):
        bundle = random_bundle(rng, 6, 3)
        expected = sum(float(np.sum(r * r)) for r in bundle.R)
        assert bundle.norm_sq_total == pytest.approx(expected, rel=1e-14)
        assert sum(bundle.norms_sq) == pytest.approx(expected, rel=1e-14)
        assert bundle.norm_sq_total == sum(bundle.norms_sq)

    def test_matrices_are_read_only(self, rng):
        bundle = random_bundle(rng, 4, 2)
        assert_one_stack(bundle)
        with pytest.raises(ValueError):
            bundle.R[0][0, 0] = 1.0

    @pytest.mark.parametrize("m", [1, 6, 20, 40])  # 1, 6, k and 2k at k = 20
    def test_times_matches_a_loop_without_assuming_symmetry(self, rng, m):
        # Each R_i is symmetric only to 1e-13: a product that used R_i^T for
        # R_i would be off by about 2e-13 relative in the first rows.
        n = 200
        mats = []
        for _ in range(3):
            r = rng.random((n, n))
            r = (r + r.T) / 2.0
            r[np.triu_indices(n, 1)] += 1e-13
            mats.append(r)
        bundle = DataBundle.from_matrices(mats)
        assert not np.array_equal(bundle.R[0], bundle.R[0].T)
        x = rng.random((n, m))
        out = bundle.times(x)
        assert out.shape == (3, n, m) and out.flags.writeable
        np.testing.assert_allclose(out, np.stack([r @ x for r in bundle.R]), rtol=1e-13, atol=0.0)

    def test_symmetry_check_takes_no_n_by_n_temporary(self, rng):
        # It used to hold |X| and X - X^T, each a full n x n float array.
        r = rng.random((400, 400))
        r = (r + r.T) / 2.0
        tracemalloc.start()
        try:
            _check_symmetric(r, "R_1", SYMMETRY_INPUT_RTOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * r.nbytes

    def test_symmetry_message_names_both_maxima(self):
        r = np.array([[1.0, -3.0], [-3.0 + 1e-9, 2.0]])
        with pytest.raises(ValidationError) as info:
            _check_symmetric(r, "R_1", SYMMETRY_INPUT_RTOL)
        assert str(info.value) == (
            "R_1 is not symmetric: max |X - X^T| = 1.000e-09 exceeds 1e-12 * max|X| = 3.000e-12")


class TestFactorLayout:
    """Factorization.S is one (N, k, k) stack wherever a factorization is made."""

    def test_constructor_copies_blocks_into_one_stack(self, rng):
        s = [np.eye(3), np.ones((3, 3), dtype=int)]
        fact = Factorization(rng.random((5, 3)), s)
        assert_block_stack(fact.S, 2, 3)
        fact.S[0] = 7.0
        fact.S[1, 0, 0] = 7.0
        np.testing.assert_array_equal(s[0], np.eye(3))
        assert s[1][0, 0] == 1

    def test_constructor_copies_a_given_stack(self, rng):
        s = rng.random((2, 3, 3))
        before = s.copy()
        fact = Factorization(rng.random((5, 3)), s)
        fact.S[0] = 0.0
        np.testing.assert_array_equal(s, before)

    def test_constructor_checks_shapes(self, rng):
        with pytest.raises(DimensionError, match="G has shape"):
            Factorization(rng.random(5), [np.eye(1)])
        with pytest.raises(DimensionError, match=r"S_2 has shape \(2, 3\), expected \(3, 3\)"):
            Factorization(rng.random((5, 3)), [np.eye(3), np.ones((2, 3))])


class TestTransform:
    def test_apply(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        np.testing.assert_array_equal(Transform.ABS.apply(x), [[2.0, 0.0, 3.0]])
        np.testing.assert_array_equal(Transform.SQUARE.apply(x), [[4.0, 0.0, 9.0]])

    def test_derivative_with_abs_subgradient_zero(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        np.testing.assert_array_equal(Transform.ABS.derivative(x), [[-1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(Transform.SQUARE.derivative(x), [[-4.0, 0.0, 6.0]])


class TestSolverConfig:
    @pytest.mark.parametrize(
        "method,cap", [("fpm", 4000), ("bcd", 300), ("gmels", 1000), ("adam", 3000)]
    )
    def test_per_method_iteration_caps(self, method, cap):
        assert SolverConfig(method=method, k=3).max_iterations == cap

    def test_adam_defaults(self):
        config = SolverConfig(method="adam", k=2)
        assert (config.adam_alpha, config.adam_beta1, config.adam_beta2) == (0.002, 0.95, 0.995)
        assert adam.EPSILON == 1e-8
        assert config.mse_stop == 1e-2 and config.delta_stop == 1e-10
        assert bcd.INNER_STEPS == 10

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            SolverConfig(method="sgd", k=2)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k"):
            SolverConfig(method="fpm", k=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("adam_beta1", 1.5), ("adam_beta1", 1.0), ("adam_beta1", 0.0),
            ("adam_beta2", -0.1), ("adam_beta2", 1.0),
            ("mse_stop", -1e-3), ("delta_stop", -1e-12), ("mse_stop", float("nan")),
            ("adam_alpha", 0.0), ("adam_alpha", -0.002),
            ("seed", -1),
        ],
    )
    def test_rejects_out_of_range_knobs(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(method="adam", k=2, **{field: value})


class TestConvergenceTrace:
    # ||R||^2 = 1, so every MSE equals its SE.
    UNIT = DataBundle.from_matrices([np.ones((1, 1))])

    def _trace(self, start, *steps, **knobs):
        trace = ConvergenceTrace(self.UNIT, SolverConfig(method="fpm", k=1, **knobs))
        trace.start(start)
        for value in steps:
            trace.step(value)
        return trace

    def test_running_until_a_rule_fires(self):
        trace = self._trace(1.0, 0.9, mse_stop=0.5)
        assert trace.running and trace.stop_reason is None
        trace.step(0.4)
        assert not trace.running and trace.stop_reason == MSE_THRESHOLD

    def test_plateau_wins_over_threshold(self):
        trace = self._trace(0.3, 0.25, mse_stop=0.5, delta_stop=0.1)
        assert trace.stop_reason == DELTA_THRESHOLD

    def test_threshold_wins_over_cap(self):
        trace = self._trace(0.9, 0.3, mse_stop=0.5, max_iterations=1)
        assert trace.stop_reason == MSE_THRESHOLD

    def test_plateau_wins_over_cap(self):
        trace = self._trace(0.9, 0.9, max_iterations=1)
        assert trace.stop_reason == DELTA_THRESHOLD

    def test_cap_fires_exactly_at_max_iterations(self):
        trace = self._trace(1.0, 0.9, 0.8, mse_stop=0.0, delta_stop=0.0, max_iterations=3)
        assert trace.running and trace.iterations == 2
        trace.step(0.7)
        assert trace.stop_reason == MAX_ITERATIONS and trace.iterations == 3

    @pytest.mark.parametrize("method", METHODS)
    def test_every_solver_stops_at_the_cap(self, rng, method):
        bundle = random_bundle(rng, 6, 2)
        config = SolverConfig(method=method, k=2, max_iterations=3, mse_stop=0.0, delta_stop=0.0)
        _, trace = runner.run(bundle, config)
        assert trace.stop_reason == MAX_ITERATIONS
        assert [r.iteration for r in trace.records] == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_se_raises_with_earlier_records(self, bad):
        trace = self._trace(1.0, 0.5)
        with pytest.raises(SolverDivergedError, match="non-finite .* at iteration 2") as err:
            trace.step(bad)
        assert [(r.iteration, r.se) for r in err.value.records] == [(0, 1.0), (1, 0.5)]

    @pytest.mark.parametrize("mse0", [0.5, 2.0])
    def test_runaway_mse_raises_with_earlier_records(self, mse0):
        ceiling = 1e6 * max(1.0, mse0)
        trace = self._trace(mse0, ceiling, delta_stop=0.0, mse_stop=0.0)
        assert trace.running
        with pytest.raises(SolverDivergedError, match="at iteration 2 exceeds 1e\\+06") as err:
            trace.step(ceiling * 1.001)
        assert [(r.iteration, r.se) for r in err.value.records] == [(0, mse0), (1, ceiling)]

    def test_records_are_dense_and_the_clock_never_runs_back(self):
        trace = self._trace(4.0, 2.0, 1.0, 0.5, mse_stop=0.0)
        assert [r.iteration for r in trace.records] == [0, 1, 2, 3]
        assert [r.mse for r in trace.records] == [4.0, 2.0, 1.0, 0.5]
        times = [r.elapsed_seconds for r in trace.records]
        assert times[0] >= 0.0 and all(b >= a for a, b in zip(times, times[1:]))
        assert trace.final is trace.records[-1] and trace.iterations == 3

    def test_mse_at_is_an_index_lookup(self):
        trace = self._trace(4.0, 2.0, 1.0, mse_stop=0.0)
        assert [trace.mse_at(i) for i in range(3)] == [4.0, 2.0, 1.0]
        assert trace.mse_at(10) == 1.0
        with pytest.raises(ValueError):
            trace.mse_at(-1)

    def test_all_zero_bundle_rejected(self):
        bundle = DataBundle.from_matrices([np.zeros((2, 2))])
        with pytest.raises(ValidationError, match="all-zero"):
            ConvergenceTrace(bundle, SolverConfig(method="fpm", k=1))


class TestDrive:
    UNIT = TestConvergenceTrace.UNIT

    @staticmethod
    def _steps(values, fail_at=None):
        """An iteration generator over fixed SE values; the G of the
        factorization it yields last holds the number of iterations taken."""
        it = 0
        while (yield values[it]):
            it += 1
            if it == fail_at:
                raise SolverDivergedError(f"step {it} failed")
        yield Factorization(np.array([[float(it)]]), [np.zeros((1, 1))])

    def test_returns_the_state_of_the_final_record(self):
        config = SolverConfig(method="fpm", k=1, mse_stop=0.5)
        fact, trace = drive(self.UNIT, config, self._steps([1.0, 0.9, 0.4, 0.1]))
        assert trace.stop_reason == MSE_THRESHOLD
        assert [r.se for r in trace.records] == [1.0, 0.9, 0.4]
        assert fact.G[0, 0] == trace.iterations == 2

    def test_step_error_carries_the_earlier_records(self):
        config = SolverConfig(method="fpm", k=1, mse_stop=0.0)
        with pytest.raises(SolverDivergedError, match="step 2 failed") as err:
            drive(self.UNIT, config, self._steps([1.0, 0.9, 0.8], fail_at=2))
        assert [(r.iteration, r.se) for r in err.value.records] == [(0, 1.0), (1, 0.9)]


def poly_minimize_by_roots(c, lo=-np.inf, hi=np.inf):
    """The reference minimizer: ``np.roots`` for the stationary points and
    ``polyval`` for the scores."""
    c = np.asarray(c, dtype=float)
    dc = np.arange(1, len(c)) * c[1:]
    keep = np.nonzero(np.abs(dc) > LEADING_COEFF_RTOL * np.abs(dc).max(initial=0.0))[0]
    roots = np.roots(dc[: keep[-1] + 1][::-1]) if keep.size else []
    real = [float(r.real) for r in roots if abs(r.imag) <= REAL_ROOT_IMAG_RTOL * (1.0 + abs(r.real))]
    bounds = [b for b in (lo, hi) if np.isfinite(b)]
    candidates = np.clip([0.0] + bounds + real, lo, hi)
    values = np.polynomial.polynomial.polyval(candidates, c)
    order = np.lexsort((candidates, np.abs(candidates), values))
    return float(candidates[order[0]])


class TestPolyMinimizeMatchesRoots:
    INTERVALS = [(-np.inf, np.inf), (-1.0, 0.0), (0.0, 2.0), (-np.inf, 0.0), (0.5, np.inf), (-3.0, 3.0)]

    def test_same_minimizer_bit_for_bit(self):
        # About 10^4 polynomials of degree 0-12 whose coefficients span 12
        # decades: some with exact-zero low-order terms (a root of p' at 0),
        # with scattered zeros, the zero polynomial, linear ones, and ones
        # whose top terms fall below the stripping threshold.
        rng = np.random.default_rng(90210)
        for trial in range(10_000):
            degree = int(rng.integers(0, 13))
            c = rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-6, 7, degree + 1)
            kind = trial % 6
            if kind == 1:
                c[:rng.integers(1, degree + 2)] = 0.0
            elif kind == 2:
                c[rng.random(degree + 1) < 0.4] = 0.0
            elif kind == 3 and trial % 12 == 3:
                c[:] = 0.0
            elif kind == 4:
                c = c[:2]
            elif kind == 5:
                c[1:] *= 1e-16 * rng.random(degree)
            lo, hi = self.INTERVALS[trial % len(self.INTERVALS)]
            expected = poly_minimize_by_roots(c, lo, hi)
            got = poly_minimize(c, lo, hi)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (c.tolist(), lo, hi)

    def test_value_is_polyval_bit_for_bit(self, rng):
        # bcd's decrease test reads the quartic through poly_value.
        for degree in range(13):
            c = rng.standard_normal(degree + 1)
            t = rng.standard_normal(20) * 3.0
            assert poly_value(c, t).tobytes() == np.polynomial.polynomial.polyval(t, c).tobytes()
            for x in (-1.0, -0.25, 0.0, 0.7):
                assert poly_value(c, x) == np.polynomial.polynomial.polyval(x, c)

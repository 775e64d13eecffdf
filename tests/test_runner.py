import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmtf.data import generate_synthetic
from snmtf.model import (
    METHODS,
    SYMMETRY_ITERATE_RTOL,
    DimensionError,
    Factorization,
    SolverConfig,
    SolverDivergedError,
    ValidationError,
    drive,
    se,
)
from snmtf.runner import SOLVERS, build_start, run

from conftest import assert_block_stack, random_bundle, random_native_fact


@pytest.fixture(scope="module")
def planted_bundle():
    bundle, _ = generate_synthetic(n=24, K=3, N=3, seed=8)
    return bundle


class TestBuildStart:
    def test_deterministic_init_reuses_spectral_g(self, planted_bundle):
        from snmtf.initialization import deterministic_g

        config = SolverConfig(method="fpm", k=3, seed=5)
        start = build_start(planted_bundle, config, "deterministic")
        np.testing.assert_array_equal(start.G, deterministic_g(planted_bundle, 3))
        assert isinstance(start, Factorization)
        for s in start.S:
            assert np.array_equal(s, s.T)

    def test_random_init_seeded(self, planted_bundle):
        config = SolverConfig(method="fpm", k=2, seed=5)
        a = build_start(planted_bundle, config, "random")
        b = build_start(planted_bundle, config, "random")
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.S, b.S)

    def test_unknown_init_kind(self, planted_bundle):
        config = SolverConfig(method="fpm", k=2)
        with pytest.raises(ValueError, match="init kind"):
            build_start(planted_bundle, config, "spectral")


class TestDeterminism:
    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    @pytest.mark.parametrize("init", ["deterministic", "random"])
    def test_identical_seeds_bit_identical_results(self, planted_bundle, method, init):
        config = SolverConfig(method=method, k=3, seed=17, max_iterations=25, mse_stop=0.0)
        fact_a, trace_a = run(planted_bundle, config, init=init)
        fact_b, trace_b = run(planted_bundle, config, init=init)
        assert np.array_equal(fact_a.G, fact_b.G)
        for x, y in zip(fact_a.S, fact_b.S):
            assert np.array_equal(x, y)
        assert [r.se for r in trace_a.records] == [r.se for r in trace_b.records]
        assert trace_a.stop_reason == trace_b.stop_reason

    def test_different_seeds_differ(self, planted_bundle):
        config_a = SolverConfig(method="adam", k=2, seed=1, max_iterations=20, mse_stop=0.0)
        config_b = SolverConfig(method="adam", k=2, seed=2, max_iterations=20, mse_stop=0.0)
        fact_a, _ = run(planted_bundle, config_a, init="random")
        fact_b, _ = run(planted_bundle, config_b, init="random")
        assert not np.array_equal(fact_a.G, fact_b.G)


class TestRunDispatch:
    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    def test_all_methods_return_native(self, planted_bundle, method):
        config = SolverConfig(method=method, k=3, seed=0, max_iterations=15)
        fact, trace = run(planted_bundle, config)
        assert isinstance(fact, Factorization)
        assert float(fact.G.min()) >= 0.0
        assert trace.records[0].iteration == 0

    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    @pytest.mark.parametrize("init", ["deterministic", "random"])
    def test_s_is_one_stack(self, planted_bundle, method, init):
        config = SolverConfig(method=method, k=2, seed=0, max_iterations=3)
        fact, _ = run(planted_bundle, config, init=init)
        assert_block_stack(fact.S, 3, 2)

    def test_explicit_start_must_match_config_k(self, planted_bundle):
        _, planted = generate_synthetic(n=24, K=3, N=3, seed=8)
        config = SolverConfig(method="fpm", k=4, seed=0)
        with pytest.raises(DimensionError, match="k = 3"):
            run(planted_bundle, config, start=planted)

    def test_k_above_n_rejected_for_the_random_start(self, planted_bundle):
        # The same message as the spectral start's (deterministic_g).
        config = SolverConfig(method="fpm", k=25)
        with pytest.raises(DimensionError, match=r"^k must be in \[1, 24\], got 25$"):
            run(planted_bundle, config, init="random")

    def test_k_above_n_rejected_for_a_given_start(self, planted_bundle, rng):
        # The start matches config.k and the bundle's n; only k > n is wrong.
        start = random_native_fact(rng, 24, 25, 3)
        config = SolverConfig(method="fpm", k=25)
        with pytest.raises(DimensionError, match=r"^k must be in \[1, 24\], got 25$"):
            run(planted_bundle, config, start=start)

    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    @pytest.mark.parametrize("block", ["G", "S_2"])
    def test_explicit_negative_start_rejected(self, planted_bundle, method, block):
        _, start = generate_synthetic(n=24, K=3, N=3, seed=8)
        target = start.G if block == "G" else start.S[1]
        target[1, 1] = -0.25
        config = SolverConfig(method=method, k=3, seed=0)
        with pytest.raises(ValidationError, match=f"start {block} has negative entry"):
            run(planted_bundle, config, start=start)

    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    @pytest.mark.parametrize("case, message", [
        pytest.param("nan G", "start G has non-finite entry nan at", id="nan-G"),
        pytest.param("inf S_3", "start S_3 has non-finite entry inf at", id="inf-S_3"),
        pytest.param("asymmetric S_1", "start S_1 is not symmetric", id="asymmetric-S_1"),
    ])
    def test_explicit_malformed_start_rejected(self, planted_bundle, method, case, message):
        _, start = generate_synthetic(n=24, K=3, N=3, seed=8)
        if case == "nan G":
            start.G[2, 0] = np.nan
        elif case == "inf S_3":
            start.S[2, 0, 1] = start.S[2, 1, 0] = np.inf
        else:
            start.S[0, 0, 1] += 0.17
        config = SolverConfig(method=method, k=3, seed=0)
        with pytest.raises(ValidationError, match=message) as err:
            run(planted_bundle, config, start=start)
        assert "symmetrize" not in str(err.value)

    def test_start_within_iterate_symmetry_tolerance_accepted(self, planted_bundle):
        # A previous run's output, symmetric up to rounding, chains in.
        _, start = generate_synthetic(n=24, K=3, N=3, seed=8)
        start.S[0, 0, 1] += 0.5 * SYMMETRY_ITERATE_RTOL * np.abs(start.S[0]).max()
        run(planted_bundle, SolverConfig(method="adam", k=3, max_iterations=2), start=start)

    @pytest.mark.parametrize("method", METHODS)
    def test_start_within_tolerance_is_symmetrized(self, planted_bundle, method):
        # The solver starts from the exact symmetric part of an accepted
        # start, so even a start that is symmetric only to the tolerance
        # gives exactly symmetric output.
        _, start = generate_synthetic(n=24, K=3, N=3, seed=8)
        start.S[0, 0, 1] += 0.5 * SYMMETRY_ITERATE_RTOL * np.abs(start.S[0]).max()
        config = SolverConfig(method=method, k=3, max_iterations=2, mse_stop=0.0)
        fact, _ = run(planted_bundle, config, start=start)
        for s in fact.S:
            assert np.array_equal(s, s.T)

    def test_explicit_start_used(self, planted_bundle):
        from snmtf.data import generate_synthetic

        bundle, planted = generate_synthetic(n=24, K=3, N=3, seed=8)
        config = SolverConfig(method="fpm", k=3, seed=0)
        _, trace = run(bundle, config, start=planted)
        assert trace.iterations <= 2
        assert trace.stop_reason == "delta_threshold"


class TestSolverContract:
    """Every solver takes and returns native factors, so ``run`` hands an
    explicit start to the method's generator unchanged, and the one driver
    loop returns the factors its final record describes."""

    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    @pytest.mark.parametrize("init", ["deterministic", "random"])
    def test_run_equals_direct_solver_call(self, planted_bundle, method, init):
        config = SolverConfig(method=method, k=3, seed=4, max_iterations=12, mse_stop=0.0)
        start = build_start(planted_bundle, config, init)
        before = Factorization(start.G.copy(), start.S)
        fact, trace = run(planted_bundle, config, start=start)
        steps = SOLVERS[method](planted_bundle, config, start, np.random.default_rng(config.seed))
        direct, direct_trace = drive(planted_bundle, config, steps)
        np.testing.assert_array_equal(fact.G, direct.G)
        np.testing.assert_array_equal(fact.S, direct.S)
        assert [r.se for r in trace.records] == [r.se for r in direct_trace.records]
        assert trace.stop_reason == direct_trace.stop_reason
        # neither call wrote to the caller's start
        np.testing.assert_array_equal(start.G, before.G)
        np.testing.assert_array_equal(start.S, before.S)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kind", ["planted", "random"])
    def test_iteration_zero_is_the_start(self, planted_bundle, method, kind):
        # Every solver starts from the whole start, S as well as G, so the
        # first record is the start's own SE (bcd used to refit S from
        # constants first: 36.35 here against the planted start's 0).
        if kind == "planted":
            _, start = generate_synthetic(n=24, K=3, N=3, seed=8)
        else:
            start = random_native_fact(np.random.default_rng(6), 24, 3, 3)
        config = SolverConfig(method=method, k=3, seed=4, max_iterations=1, mse_stop=0.0)
        _, trace = run(planted_bundle, config, start=start)
        expected = se(planted_bundle, start)
        scale = expected + planted_bundle.norm_sq_total
        assert abs(trace.records[0].se - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("rule, knobs", [
        ("max_iterations", dict(max_iterations=5, mse_stop=0.0, delta_stop=0.0)),
        ("mse_threshold", dict(mse_stop=0.05)),
        ("delta_threshold", dict(mse_stop=0.0, delta_stop=1.0)),
    ])
    def test_factors_match_the_final_record(self, planted_bundle, method, rule, knobs):
        # The factors are those of the last recorded iteration, not one
        # before or after it, whichever rule stops the run.
        fact, trace = run(planted_bundle, SolverConfig(method=method, k=3, seed=4, **knobs))
        assert trace.stop_reason == rule
        assert se(planted_bundle, fact) == pytest.approx(trace.final.se, rel=1e-10)


class TestOutputContract:
    """Every run returns native factors with exactly symmetric S_i, so its
    output chains into any method as an explicit start; ``run`` checks the
    result and reports a broken one as a diverged solve."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("init", ["deterministic", "random"])
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=16),
        K=st.integers(min_value=2, max_value=4),
        N=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        k_offset=st.sampled_from([-1, 0, 2]),
    )
    def test_output_is_exactly_symmetric_and_chains(self, method, init, n, K, N, seed, k_offset):
        # density 1 keeps every planted S_i, and so the bundle, non-zero
        bundle, _ = generate_synthetic(n=n, K=K, N=N, density=1.0, seed=seed)
        config = SolverConfig(method=method, k=K + k_offset, seed=seed,
                              max_iterations=40, mse_stop=0.0)
        fact, _ = run(bundle, config, init=init)
        for s in fact.S:
            assert np.array_equal(s, s.T)
        chained = SolverConfig(method=method, k=config.k, max_iterations=1)
        run(bundle, chained, start=fact)

    def test_broken_result_raises_diverged_naming_the_block(
            self, planted_bundle, asymmetric_fpm_result):
        config = SolverConfig(method="fpm", k=3, max_iterations=4, mse_stop=0.0)
        with pytest.raises(SolverDivergedError, match="fpm result S_2 is not symmetric") as err:
            run(planted_bundle, config)
        assert [r.iteration for r in err.value.records] == [0, 1, 2, 3, 4]


class TestCostModel:
    # Data passes per outer iteration in units of N (one pass is one
    # product R_i @ X with X of k columns); bcd takes two per G step
    # (R_i dG, then R_i G at the new point) at its default 10 steps, and
    # gmels two (R_i P1 and R_i P2 along its line, which also give R_i G
    # at the new point).
    PER_ITERATION = {"fpm": 1, "adam": 1, "gmels": 2, "bcd": 20}

    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    def test_data_passes_per_iteration(self, rng, data_passes, method):
        bundle = random_bundle(rng, 12, 3)
        k = 4
        counts = []
        for iterations in (1, 3):
            before = data_passes(k)
            config = SolverConfig(method=method, k=k, max_iterations=iterations,
                                  mse_stop=0.0, delta_stop=0.0)
            _, trace = run(bundle, config)
            assert trace.iterations == iterations
            counts.append(data_passes(k) - before)
        per_iteration = (counts[1] - counts[0]) / 2
        assert per_iteration == self.PER_ITERATION[method] * bundle.N
        assert counts[0] - per_iteration == bundle.N

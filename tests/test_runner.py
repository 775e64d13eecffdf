import numpy as np
import pytest

from snmtf.data import generate_synthetic
from snmtf.model import (
    SYMMETRY_ITERATE_RTOL,
    DimensionError,
    SolverConfig,
    Transform,
    ValidationError,
)
from snmtf.runner import build_start, run

from conftest import assert_block_stack, random_bundle


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
        assert start.coords is Transform.IDENTITY
        for s in start.S:
            assert np.array_equal(s, s.T)

    def test_random_init_seeded(self, planted_bundle):
        config = SolverConfig(method="fpm", k=2, seed=5)
        a = build_start(planted_bundle, config, "random")
        b = build_start(planted_bundle, config, "random")
        assert np.array_equal(a.G, b.G)

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
        assert fact.coords is Transform.IDENTITY
        assert float(fact.G.min()) >= 0.0
        assert trace.records[0].iteration == 0

    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    @pytest.mark.parametrize("init", ["deterministic", "random"])
    def test_s_is_one_stack(self, planted_bundle, method, init):
        config = SolverConfig(method=method, k=2, seed=0, max_iterations=3)
        fact, _ = run(planted_bundle, config, init=init)
        assert_block_stack(fact.S, 3, 2)

    def test_explicit_start_must_be_native(self, rng, planted_bundle):
        from snmtf.model import Factorization

        config = SolverConfig(method="fpm", k=2, seed=0)
        bad = Factorization(rng.random((24, 2)), [np.eye(2)] * 3, Transform.ABS)
        with pytest.raises(ValueError, match="native"):
            run(planted_bundle, config, start=bad)

    def test_explicit_start_must_match_config_k(self, planted_bundle):
        _, planted = generate_synthetic(n=24, K=3, N=3, seed=8)
        config = SolverConfig(method="fpm", k=4, seed=0)
        with pytest.raises(DimensionError, match="k = 3"):
            run(planted_bundle, config, start=planted)

    @pytest.mark.parametrize("method", ["fpm", "bcd", "gmels", "adam"])
    @pytest.mark.parametrize("block", ["G", "S_2"])
    def test_explicit_negative_start_rejected(self, planted_bundle, method, block):
        _, planted = generate_synthetic(n=24, K=3, N=3, seed=8)
        start = planted.copy()
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
        _, planted = generate_synthetic(n=24, K=3, N=3, seed=8)
        start = planted.copy()
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
        _, planted = generate_synthetic(n=24, K=3, N=3, seed=8)
        start = planted.copy()
        start.S[0, 0, 1] += 0.5 * SYMMETRY_ITERATE_RTOL * np.abs(start.S[0]).max()
        run(planted_bundle, SolverConfig(method="adam", k=3, max_iterations=2), start=start)

    def test_explicit_start_used(self, planted_bundle):
        from snmtf.data import generate_synthetic

        bundle, planted = generate_synthetic(n=24, K=3, N=3, seed=8)
        config = SolverConfig(method="fpm", k=3, seed=0)
        _, trace = run(bundle, config, start=planted)
        assert trace.iterations <= 2
        assert trace.stop_reason == "delta_threshold"


class TestCostModel:
    # Data passes per outer iteration in units of N (one pass is one
    # product R_i @ X with X of k columns); bcd takes two per G step
    # (R_i dG, then R_i G at the new point) at its default 10 steps.
    PER_ITERATION = {"fpm": 1, "adam": 1, "gmels": 3, "bcd": 20}

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

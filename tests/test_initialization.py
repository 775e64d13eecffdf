import numpy as np
import pytest
import scipy.stats

from snmtf.initialization import deterministic_g, random_symmetric_stack
from snmtf.model import (
    DataBundle,
    Factorization,
    SolverConfig,
    Transform,
    ValidationError,
)
from snmtf.runner import build_start

from conftest import assert_block_stack, random_bundle


class TestDeterministicG:
    def test_identity_bundle_gives_nonnegative_unit_columns(self):
        bundle = DataBundle.from_matrices([np.eye(5)])
        g = deterministic_g(bundle, 3)
        assert g.shape == (5, 3)
        assert float(g.min()) >= 0.0
        for j in range(3):
            assert np.linalg.norm(g[:, j]) == pytest.approx(1.0, rel=1e-12)

    def test_rank_one_recovers_direction(self, rng):
        v = rng.uniform(0.1, 1.0, 6)
        bundle = DataBundle.from_matrices([np.outer(v, v)])
        g = deterministic_g(bundle, 1)
        np.testing.assert_allclose(g[:, 0], v / np.linalg.norm(v), rtol=1e-10)

    def test_matches_independent_eigendecomposition(self, rng):
        # Build a matrix with a known spectrum and compare processed vectors.
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        lam = np.array([9.0, -7.0, 4.0, 1.5, 0.3])
        m = (q * lam) @ q.T
        m = np.abs(m)  # non-negativity for the bundle contract
        m = (m + m.T) / 2.0
        bundle = DataBundle.from_matrices([m])

        w, v = np.linalg.eigh(m)
        order = np.argsort(-np.abs(w))[:3]
        expected = []
        for j in order:
            x = v[:, j]
            pos, neg = np.maximum(x, 0), np.maximum(-x, 0)
            expected.append(pos if np.linalg.norm(pos) >= np.linalg.norm(neg) else neg)
        got = deterministic_g(bundle, 3)
        np.testing.assert_allclose(got, np.column_stack(expected), atol=1e-8)

    def test_deterministic_across_calls(self, rng):
        # Two bundles of the same matrices: two independent eigendecompositions.
        bundle = random_bundle(rng, 10, 3)
        a = deterministic_g(bundle, 4)
        b = deterministic_g(DataBundle.from_matrices(bundle.R), 4)
        assert np.array_equal(a, b)

    def test_one_spectrum_serves_every_k_of_a_sweep(self, rng):
        # The cached spectrum of one bundle gives, for every k of a sweep
        # grid, a fresh bundle's start and the leading columns of the widest.
        bundle = random_bundle(rng, 12, 3)
        ks = (2, 4, 6, 9)
        widest = deterministic_g(bundle, ks[-1])
        for k in ks:
            g = deterministic_g(bundle, k)
            assert np.array_equal(g, deterministic_g(DataBundle.from_matrices(bundle.R), k))
            assert np.array_equal(g, widest[:, :k])

    def test_k_out_of_range(self, rng):
        bundle = random_bundle(rng, 4, 1)
        with pytest.raises(ValueError):
            deterministic_g(bundle, 5)
        with pytest.raises(ValueError):
            deterministic_g(bundle, 0)

    def test_nonnegative_output(self, rng):
        bundle = random_bundle(rng, 12, 4)
        g = deterministic_g(bundle, 6)
        assert float(g.min()) >= 0.0
        assert not np.any(np.all(g == 0.0, axis=0))

    def test_rank_deficient_surplus_columns_have_no_zeros(self):
        # k above the numerical rank: the surplus columns must be zero-free
        # so downstream multiplicative/transformed dynamics cannot freeze.
        from snmtf.data import generate_synthetic

        bundle, _ = generate_synthetic(n=30, K=3, N=2, seed=6)  # rank 3 data
        g = deterministic_g(bundle, 5)
        assert float(g.min()) >= 0.0
        for j in (3, 4):
            assert np.count_nonzero(g[:, j]) == 30

    def test_degenerate_spectrum_above_order_2000_is_deterministic(self):
        # Every eigenvalue of the identity is 1, so any orthonormal basis is
        # an eigenbasis; two independent eigendecompositions must still give
        # the same start.
        a = deterministic_g(DataBundle.from_matrices([np.eye(2001)]), 3)
        b = deterministic_g(DataBundle.from_matrices([np.eye(2001)]), 3)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=0), 1.0, rtol=1e-12)


def random_start(n, k, N, seed):
    """The seeded uniform(0,1) start ``run(..., init="random")`` builds."""
    bundle = DataBundle.from_matrices(np.zeros((N, n, n)))
    return build_start(bundle, SolverConfig(method="fpm", k=k, seed=seed), "random")


class TestRandomInit:
    def test_same_seed_bit_identical(self):
        a = random_start(7, 3, 2, seed=123)
        b = random_start(7, 3, 2, seed=123)
        assert np.array_equal(a.G, b.G)
        for x, y in zip(a.S, b.S):
            assert np.array_equal(x, y)

    def test_s_is_one_stack(self):
        assert_block_stack(random_start(7, 3, 4, seed=5).S, 4, 3)

    def test_stack_draws_blocks_in_order(self):
        # One (count, k, k) draw takes the stream in the order of count
        # separate k x k draws.
        stack = random_symmetric_stack(np.random.default_rng(3), 4, 5)
        rng = np.random.default_rng(3)
        for block in stack:
            s = rng.random((4, 4))
            np.testing.assert_array_equal(block, (s + s.T) / 2.0)

    def test_s_exactly_symmetric(self):
        fact = random_start(5, 4, 3, seed=9)
        for s in fact.S:
            assert np.array_equal(s, s.T)

    def test_entries_uniform_on_unit_interval(self):
        fact = random_start(1000, 100, 1, seed=2)
        stat = scipy.stats.kstest(fact.G.ravel(), "uniform").statistic
        assert stat < 0.01


class TestLift:
    """``Transform.lift``, the inverse map gmels and adam apply to a native start."""

    @pytest.mark.parametrize("transform", [Transform.ABS, Transform.SQUARE])
    def test_round_trip(self, rng, transform):
        g = rng.random((6, 3))
        s_list = [(lambda s: (s + s.T) / 2.0)(rng.random((3, 3))) for _ in range(2)]
        fact = Factorization(g, s_list)
        back_g = transform.apply(transform.lift(fact.G))
        back_s = transform.apply(transform.lift(fact.S))
        np.testing.assert_allclose(back_g, g, atol=1e-14)
        for a, b in zip(back_s, s_list):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_zero_lifts_to_zero(self):
        fact = Factorization(np.zeros((3, 2)), [np.zeros((2, 2))])
        for transform in (Transform.ABS, Transform.SQUARE):
            assert np.all(transform.lift(fact.G) == 0.0)

    def test_square_lift_takes_roots(self):
        fact = Factorization(np.full((2, 2), 4.0), [np.full((2, 2), 9.0)])
        np.testing.assert_array_equal(Transform.SQUARE.lift(fact.G), np.full((2, 2), 2.0))
        np.testing.assert_array_equal(Transform.SQUARE.lift(fact.S)[0], np.full((2, 2), 3.0))

    def test_negative_entry_rejected(self):
        fact = Factorization(np.array([[-1.0]]), [np.array([[1.0]])])
        with pytest.raises(ValidationError, match="negative"):
            Transform.SQUARE.lift(fact.G)

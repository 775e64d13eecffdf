"""End-to-end acceptance gate.

One test per criterion, each printing a PASS/FAIL line (run with ``-s`` to
see them live).  The quantitative criteria run the full solver stack on
planted synthetic suites at fixed seeds; the property criteria pin the
numerical kernels against independent oracles.  Everything is deterministic.

Budget note: criterion 3 sweeps 4 methods x 4 bundles x 3 ratios and
criterion 4 runs coordinate descent at n = 2000; expect 5-10 minutes total
on one core.
"""

import csv
import math

import numpy as np
import pytest

from snmtf import bcd, cli, data
from snmtf.gradients import grad_transformed
from snmtf.model import (
    Factorization,
    SolverConfig,
    Transform,
    drive,
    residuals,
    se,
)
from snmtf.runner import run, tune_adam

from conftest import (
    exact_fit_pair,
    fpm_new_g,
    fpm_new_s,
    native_gradient,
    quartic_along,
    random_bundle,
    square_line_poly,
)

pytestmark = pytest.mark.acceptance

METHODS = ("fpm", "bcd", "gmels", "adam")

# (n, K, generator seed) of the quantitative suite; solver seed is fixed at 1.
SUITE_SPECS = ((100, 10, 101), (100, 20, 102), (200, 10, 201), (200, 20, 202))
SOLVER_SEED = 1

_bundles: dict = {}
_runs: dict = {}


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def suite_bundle(n, K, seed):
    key = (n, K, seed)
    if key not in _bundles:
        _bundles[key] = data.generate_synthetic(n=n, K=K, N=5, density=0.65, seed=seed)[0]
    return _bundles[key]


def cached_run(bundle, method, k, **overrides):
    key = (bundle.label, method, k, tuple(sorted(overrides.items())))
    if key not in _runs:
        config = SolverConfig(method=method, k=k, seed=SOLVER_SEED, **overrides)
        _runs[key] = run(bundle, config, init="deterministic")
    return _runs[key]


class TestQuantitative:
    def test_criterion_01_recovery_at_planted_rank(self):
        # k = K = 10, n = 100, deterministic init: each method must recover
        # the planted optimum within its default iteration cap.
        bundle = suite_bundle(100, 10, 101)
        limits = {"adam": (0.01, 3000), "fpm": (0.02, 4000), "gmels": (0.05, 1000), "bcd": (0.05, 300)}
        parts = []
        ok = True
        for method, (limit, cap) in limits.items():
            _, trace = cached_run(bundle, method, 10)
            good = trace.final.mse <= limit and trace.iterations <= cap
            ok &= good
            parts.append(f"{method}={trace.final.mse:.4f}(<= {limit})")
        assert report(1, ok, "planted-rank recovery: " + ", ".join(parts))

    def test_criterion_02_underparameterized_band(self):
        # k = 0.2 K: every method lands on the common residual floor.
        bundle = suite_bundle(100, 10, 101)
        parts = []
        ok = True
        for method in METHODS:
            _, trace = cached_run(bundle, method, 2)
            good = 0.45 <= trace.final.mse <= 0.58
            ok &= good
            parts.append(f"{method}={trace.final.mse:.4f}")
        assert report(2, ok, "k = 0.2K band [0.45, 0.58]: " + ", ".join(parts))

    def test_criterion_03_monotone_k_trend(self):
        # mean MSE strictly decreases across k/K = 20/60/100% per method.
        ok = True
        parts = []
        for method in METHODS:
            means = []
            for pct in (20, 60, 100):
                finals = []
                for n, K, seed in SUITE_SPECS:
                    bundle = suite_bundle(n, K, seed)
                    k = max(1, round(K * pct / 100))
                    _, trace = cached_run(bundle, method, k)
                    finals.append(trace.final.mse)
                means.append(float(np.mean(finals)))
            good = means[0] > means[1] > means[2]
            ok &= good
            parts.append(f"{method}: {means[0]:.3f}>{means[1]:.3f}>{means[2]:.3f}")
        assert report(3, ok, "monotone k-trend: " + "; ".join(parts))

    def test_criterion_04_bcd_iteration_budget(self):
        # On an n = 2000, k = K instance the 300-iteration budget must leave
        # coordinate descent above MSE 0.01 while 1000 iterations reach it.
        bundle = suite_bundle(2000, 50, 5)
        _, trace = cached_run(bundle, "bcd", 50, max_iterations=1000)
        at_300 = trace.mse_at(300) if trace.iterations >= 300 else trace.final.mse
        reached = trace.final.mse <= 0.01 and trace.iterations <= 1000
        ok = at_300 > 0.01 and reached
        assert report(
            4, ok,
            f"bcd budget effect at n=2000, k=K=50: mse@300={at_300:.4f} (> 0.01 required), "
            f"final={trace.final.mse:.4f} at {trace.iterations} iterations (<= 0.01 within 1000)",
        )


class TestProperties:
    def test_criterion_05_gradient_oracle(self):
        # Native and both transformed gradients vs central finite differences
        # at 20 random points each on an 8x8, k=3, N=2 instance.
        rng = np.random.default_rng(5005)
        bundle = random_bundle(rng, 8, 2)
        h, rtol = 1e-6, 1e-5
        worst = 0.0
        # transform None is the native objective
        for transform in (None, Transform.ABS, Transform.SQUARE):
            def point(x, ss, transform=transform):
                if transform is None:
                    return Factorization(x, ss)
                return Factorization(transform.apply(x), transform.apply(ss))

            for _ in range(20):
                if transform is None:
                    g = rng.uniform(0.1, 1.0, (8, 3))
                    s_list = [(lambda s: (s + s.T) / 2)(rng.uniform(0.1, 1.0, (3, 3))) for _ in range(2)]
                    dg, ds = native_gradient(bundle, Factorization(g, s_list))
                else:
                    g = rng.standard_normal((8, 3)) * 0.8
                    s_list = [(lambda s: (s + s.T) / 2)(rng.standard_normal((3, 3)) * 0.8) for _ in range(2)]
                    dg, ds = grad_transformed(bundle, transform, g, s_list)

                def obj_g(x):
                    return sum(float(np.sum(z * z)) for z in residuals(bundle, point(x, s_list)))

                fd = _fd(obj_g, g, h)
                mask = np.abs(g) > 1e-4 if transform is Transform.ABS else np.ones_like(g, bool)
                worst = max(worst, np.linalg.norm((fd - dg)[mask]) / np.linalg.norm(dg[mask]))
                for i in range(2):
                    def obj_s(x, i=i):
                        ss = [y.copy() for y in s_list]
                        ss[i] = x
                        return sum(float(np.sum(z * z)) for z in residuals(bundle, point(g, ss)))

                    fd_s = _fd(obj_s, s_list[i], h)
                    smask = np.abs(s_list[i]) > 1e-4 if transform is Transform.ABS else np.ones_like(s_list[i], bool)
                    worst = max(worst, np.linalg.norm((fd_s - ds[i])[smask]) / np.linalg.norm(ds[i][smask]))
        ok = worst <= rtol
        assert report(5, ok, f"gradient vs finite differences: worst rel err {worst:.2e} (<= {rtol})")

    def test_criterion_06_degree12_oracle(self):
        # Assembled coefficients vs direct SE along the step (20 random t)
        # and vs exact 13-node Vandermonde interpolation, on 10 instances.
        # Factor scale 0.5 keeps the 13 coefficient magnitudes within the
        # float64 span the interpolation oracle itself can resolve.
        rng = np.random.default_rng(6006)
        worst_eval, worst_coeff = 0.0, 0.0
        nodes = np.array([0.0] + [sign * 0.1 * j for j in range(1, 7) for sign in (1, -1)])
        vander = np.vander(nodes, 13, increasing=True)
        for _ in range(10):
            bundle = random_bundle(rng, 6, 2)
            g = rng.standard_normal((6, 2)) * 0.5
            s_list = [(lambda s: (s + s.T) / 2)(rng.standard_normal((2, 2)) * 0.5) for _ in range(2)]
            grads = grad_transformed(bundle, Transform.SQUARE, g, s_list)
            c = square_line_poly(bundle, g, s_list, *grads)

            def direct(t):
                trial_g = Transform.SQUARE.apply(g - t * grads[0])
                trial_s = [Transform.SQUARE.apply(s - t * d) for s, d in zip(s_list, grads[1])]
                trial = Factorization(trial_g, trial_s)
                return sum(float(np.sum(z * z)) for z in residuals(bundle, trial))

            for t in rng.uniform(-1.0, 1.0, 20):
                val = direct(t)
                worst_eval = max(worst_eval, abs(np.polynomial.polynomial.polyval(t, c) - val) / abs(val))
            interpolated = np.linalg.solve(vander, [direct(t) for t in nodes])
            worst_coeff = max(worst_coeff, float(np.max(np.abs(interpolated - c) / np.abs(c))))
        ok = worst_eval <= 1e-8 and worst_coeff <= 1e-6
        assert report(
            6, ok,
            f"degree-12 polynomial: eval rel err {worst_eval:.2e} (<= 1e-8), "
            f"interpolation rel err {worst_coeff:.2e} (<= 1e-6)",
        )

    def test_criterion_07_quartic_oracle(self):
        rng = np.random.default_rng(7007)
        bundle = random_bundle(rng, 5, 3)
        g = rng.random((5, 2))
        s_list = [(lambda s: (s + s.T) / 2)(rng.random((2, 2))) for _ in range(3)]
        fact = Factorization(g, s_list)
        dg, _ = native_gradient(bundle, fact)
        c = quartic_along(bundle, fact, dg)
        worst = 0.0
        for t in (-1.0, -0.5, -0.1, 0.1, 0.5):
            direct = se(bundle, Factorization(g + t * dg, s_list))
            worst = max(worst, abs(np.polynomial.polynomial.polyval(t, c) - direct) / direct)

        # S-step closed form vs a 10^6-point grid search on ||Z - t W||^2.
        small = random_bundle(rng, 6, 1)
        fact2 = Factorization(rng.random((6, 2)), [(lambda s: (s + s.T) / 2)(rng.random((2, 2)))])
        _, ds = native_gradient(small, fact2)
        z = small.R[0] - (fact2.G @ fact2.S[0]) @ fact2.G.T
        w = (fact2.G @ ds[0]) @ fact2.G.T
        t_closed = float(np.sum(z * w)) / float(np.sum(w * w))
        ts = np.linspace(-2.0, 2.0, 10**6)
        best_t, best_v = 0.0, math.inf
        for chunk in np.array_split(ts, 50):
            vals = np.sum((z[None] - chunk[:, None, None] * w[None]) ** 2, axis=(1, 2))
            j = int(np.argmin(vals))
            if vals[j] < best_v:
                best_v, best_t = float(vals[j]), float(chunk[j])
        dt = abs(t_closed - best_t)
        ok = worst <= 1e-9 and dt <= 1e-5
        assert report(
            7, ok,
            f"quartic: probe rel err {worst:.2e} (<= 1e-9), S-step |t - grid| {dt:.2e} (<= 1e-5)",
        )

    def test_criterion_08_monotonicity(self):
        # gmels SE never increases; bcd S-block sub-steps never increase SE
        # before projection.
        gmels_ok = True
        for seed in range(5):
            rng = np.random.default_rng(seed)
            bundle = random_bundle(rng, 8, 2)
            config = SolverConfig(method="gmels", k=2, seed=seed, max_iterations=60, mse_stop=0.0)
            _, trace = run(bundle, config, init="random")
            ses = [r.se for r in trace.records]
            gmels_ok &= all(b <= a * (1 + 1e-12) for a, b in zip(ses, ses[1:]))

        rng = np.random.default_rng(88)
        bundle = random_bundle(rng, 8, 2)
        log: list = []
        config = SolverConfig(method="bcd", k=2, seed=0, max_iterations=5, mse_stop=0.0)
        start = Factorization(rng.random((8, 2)), np.zeros((2, 2, 2)))  # S blocks start at zero
        drive(bundle, config, bcd.iterate(bundle, config, start, np.random.default_rng(config.seed),
                                          substep_log=log))
        bcd_ok = bool(log) and all(
            row["se_unprojected"] <= row["se_before"] * (1 + 1e-12) + 1e-12 for row in log
        )
        ok = gmels_ok and bcd_ok
        assert report(
            8, ok,
            f"monotonicity: gmels non-increasing on 5 instances ({gmels_ok}), "
            f"bcd pre-projection sub-steps non-increasing over {len(log)} sub-steps ({bcd_ok})",
        )

    def test_criterion_09_fpm_fixed_point(self):
        rng = np.random.default_rng(9009)
        bundle, fact = exact_fit_pair(rng, 8, 3, 2, strictly_positive=True)
        g_new = fpm_new_g(bundle, fact)
        rel_g = np.abs(g_new - fact.G).max() / np.abs(fact.G).max()
        s_new = fpm_new_s(bundle, fact)
        rel_s = max(
            np.abs(s_new[i] - fact.S[i]).max() / np.abs(fact.S[i]).max()
            for i in range(2)
        )

        noisy = random_bundle(rng, 8, 2)
        g = rng.random((8, 3))
        g[2, 1] = 0.0
        s_list = [(lambda s: (s + s.T) / 2)(rng.random((3, 3))) for _ in range(2)]
        zeros_ok = True
        nonneg_ok = True
        for _ in range(200):
            work = Factorization(g, s_list)
            g = fpm_new_g(noisy, work)
            s_list = fpm_new_s(noisy, Factorization(g, s_list))
            zeros_ok &= g[2, 1] == 0.0
            nonneg_ok &= float(g.min()) >= 0.0 and all(float(s.min()) >= 0.0 for s in s_list)
        ok = rel_g <= 1e-12 and rel_s <= 1e-12 and zeros_ok and nonneg_ok
        assert report(
            9, ok,
            f"fpm identities: fixed-point rel change {max(rel_g, rel_s):.2e} (<= 1e-12), "
            f"zeros preserved ({zeros_ok}), non-negativity preserved ({nonneg_ok})",
        )

    def test_criterion_10_determinism(self, tmp_path):
        bundle = suite_bundle(100, 10, 101)
        bits_ok = True
        for method in METHODS:
            config = SolverConfig(method=method, k=3, seed=11, max_iterations=20, mse_stop=0.0)
            fact_a, trace_a = run(bundle, config, init="deterministic")
            fact_b, trace_b = run(bundle, config, init="deterministic")
            bits_ok &= np.array_equal(fact_a.G, fact_b.G)
            bits_ok &= all(np.array_equal(x, y) for x, y in zip(fact_a.S, fact_b.S))
            bits_ok &= [r.se for r in trace_a.records] == [r.se for r in trace_b.records]

        bundle_dir = tmp_path / "bundle"
        data.save_bundle(suite_bundle(100, 10, 101), bundle_dir, planted_k=10)
        csv_rows = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main([
                "benchmark", "--suite", str(bundle_dir), "--methods", "fpm,adam",
                "--ratios", "100", "--max-iters", "20", "--out", str(out),
            ])
            assert rc == 0
            with open(out / "results.csv", newline="") as fh:
                csv_rows.append([dict(r, seconds="") for r in csv.DictReader(fh)])
        csv_ok = csv_rows[0] == csv_rows[1]
        ok = bits_ok and csv_ok
        assert report(
            10, ok,
            f"determinism: bit-exact factorizations for all methods ({bits_ok}), "
            f"identical CSVs modulo timing ({csv_ok})",
        )

    def test_criterion_11_transform_consistency(self):
        rng = np.random.default_rng(1111)
        bundle = random_bundle(rng, 7, 2)
        g = rng.standard_normal((7, 3)) * 0.8
        s_list = [(lambda s: (s + s.T) / 2)(rng.standard_normal((3, 3)) * 0.8) for _ in range(2)]
        dg_t, ds_t = grad_transformed(bundle, Transform.SQUARE, g, s_list)
        native_point = Factorization(Transform.SQUARE.apply(g), Transform.SQUARE.apply(s_list))
        dg_n, ds_n = native_gradient(bundle, native_point)
        chain_err = np.abs(dg_t - 2.0 * g * dg_n).max() / np.abs(dg_t).max()
        for x, d_t, d_n in zip(s_list, ds_t, ds_n):
            chain_err = max(chain_err, np.abs(d_t - 2.0 * x * d_n).max() / max(np.abs(d_t).max(), 1e-30))

        round_err = 0.0
        native = Factorization(rng.random((6, 2)), [(lambda s: (s + s.T) / 2)(rng.random((2, 2)))])
        for transform in (Transform.ABS, Transform.SQUARE):
            back_g = transform.apply(transform.lift(native.G))
            back_s = transform.apply(transform.lift(native.S))
            round_err = max(round_err, np.abs(back_g - native.G).max())
            round_err = max(round_err, max(np.abs(a - b).max() for a, b in zip(back_s, native.S)))
        ok = chain_err <= 1e-10 and round_err <= 1e-14
        assert report(
            11, ok,
            f"transforms: chain-rule rel err {chain_err:.2e} (<= 1e-10), "
            f"lift round-trip err {round_err:.2e} (<= 1e-14)",
        )

    def test_criterion_12_tuner_envelope(self):
        # The tuned triple must keep the worst mean MSE at or below the
        # stopping threshold on a small planted suite (random starts).
        problems = []
        for n, K, seed in ((20, 2, 121), (24, 2, 122), (30, 3, 123)):
            bundle, _ = data.generate_synthetic(n=n, K=K, N=5, seed=seed)
            problems.append((bundle, K))
        rows = tune_adam(problems, trials=1, seed=7, points=[(0.002, 0.95, 0.995)])
        score = rows[0]["score"]
        ok = score <= 0.01
        assert report(
            12, ok,
            f"tuner: (alpha, beta1, beta2) = (0.002, 0.95, 0.995) scores {score:.4f} (<= 0.01)",
        )


def _fd(fun, x, h):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g

"""Adaptive moment estimation on the absolute-value-transformed objective.

The solver substitutes G = |G'| and S_i = |S_i'| element-wise
(``Transform.ABS``): a native start is already a valid point in the raw
variables G' and the stack of the S_i', which are held as plain arrays, and
the result is their element-wise absolute value.

Per step and per variable X (X ranges over G' and the stack of the S_i'):

    M_X <- beta1 M_X + (1 - beta1) dX
    V_X <- beta2 V_X + (1 - beta2) dX * dX
    X   <- X - eta * M_X / (sqrt(V_X) + eps)

with element-wise products, division and square root.  The step size follows
the schedule eta = alpha * sqrt(1 - (1 - beta2)^i) / (1 - (1 - beta1)^i); a
config switch selects the conventional beta^i correction factors instead.
No descent guarantee holds, so no monotonicity is asserted anywhere.

The objective and gradient come from the shared Gram step, and no n x n
temporary is formed.  Data passes (see ``DataBundle.times``): N at the start,
N per iteration.

Also hosts the random-search hyper-parameter tuner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gradients import _transformed_step
from .initialization import random_init
from .model import (
    ConvergenceTrace,
    DataBundle,
    Factorization,
    SolverConfig,
    SolverDivergedError,
    Transform,
    check_compatible,
)

ABS = Transform.ABS

TUNE_ALPHA_RANGE = (1e-4, 1e-1)
TUNE_BETA1_RANGE = (0.2, 0.999)
TUNE_BETA2_RANGE = (0.1, 0.999)
TUNE_RUNS_PER_PROBLEM = 3


@dataclass
class AdamState:
    """First/second moment accumulators for G and for the (N, k, k) S stack."""

    m_g: np.ndarray
    v_g: np.ndarray
    m_s: np.ndarray
    v_s: np.ndarray

    @classmethod
    def zeros_like(cls, g: np.ndarray, s: np.ndarray) -> "AdamState":
        """Zero moments shaped like G' and the (N, k, k) stack S'."""
        return cls(
            m_g=np.zeros_like(g),
            v_g=np.zeros_like(g),
            m_s=np.zeros_like(s),
            v_s=np.zeros_like(s),
        )


def adam_eta(alpha: float, beta1: float, beta2: float, i: int,
             standard_bias_correction: bool = False) -> float:
    """Step size at step i >= 1; tends to alpha as i grows."""
    if standard_bias_correction:
        return alpha * math.sqrt(1.0 - beta2**i) / (1.0 - beta1**i)
    return alpha * math.sqrt(1.0 - (1.0 - beta2) ** i) / (1.0 - (1.0 - beta1) ** i)


def _moment_update(m, v, grad, eta, beta1, beta2, eps, x):
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    x -= eta * m / (np.sqrt(v) + eps)


def adam_step(state: AdamState, g: np.ndarray, s: np.ndarray, grads, eta: float,
              beta1: float, beta2: float, eps: float) -> None:
    """Advance the moments and the raw variables one step, in place.

    ``g`` is G' and ``s`` the (N, k, k) float stack of the S_i'; both are
    updated in place.  ``grads`` is the (dG, dS) pair at the current point,
    dS an (N, k, k) stack or a sequence of the dS_i.
    """
    dg, ds = grads
    _moment_update(state.m_g, state.v_g, dg, eta, beta1, beta2, eps, g)
    _moment_update(state.m_s, state.v_s, np.asarray(ds), eta, beta1, beta2, eps, s)


def adam_solve(bundle: DataBundle, config: SolverConfig, start: Factorization):
    """Run adam from a native starting point.

    Returns (native factorization, trace).  The start is copied into the raw
    variables (ValidationError on a negative entry) and the result is the
    element-wise absolute value of the final raw variables.  A non-finite
    gradient aborts with the partial trace attached to the raised error.
    """
    if config.method != "adam":
        raise ValueError(f"config.method is {config.method!r}, expected 'adam'")
    check_compatible(bundle, start)

    g, s = ABS.lift(start.G), ABS.lift(start.S)
    state = AdamState.zeros_like(g, s)
    trace = ConvergenceTrace(bundle, config)
    se_value, dg, ds, _ = _transformed_step(bundle, ABS, g, s)
    trace.start(se_value)

    while trace.running:
        it = trace.iterations + 1
        eta = adam_eta(
            config.adam_alpha, config.adam_beta1, config.adam_beta2, it,
            config.standard_bias_correction,
        )
        if not (np.isfinite(dg).all() and np.isfinite(ds).all()):
            raise SolverDivergedError(
                f"gradient became non-finite at iteration {it}", records=trace.records
            )
        adam_step(state, g, s, (dg, ds), eta, config.adam_beta1,
                  config.adam_beta2, config.adam_epsilon)
        se_value, dg, ds, _ = _transformed_step(bundle, ABS, g, s)
        trace.step(se_value)
    return Factorization(ABS.apply(g), ABS.apply(s)), trace


def _score_point(problems, alpha, beta1, beta2, run_seeds, max_iterations, mse_stop):
    """Max over problems of the mean final MSE of seeded random-start runs;
    a diverged run counts as MSE inf."""
    per_problem = []
    for (bundle, k), seeds in zip(problems, run_seeds):
        finals = []
        for seed in seeds:
            config = SolverConfig(
                method="adam", k=k, seed=int(seed),
                adam_alpha=alpha, adam_beta1=beta1, adam_beta2=beta2,
                max_iterations=max_iterations, mse_stop=mse_stop,
            )
            start = random_init(bundle.n, k, bundle.N, int(seed))
            try:
                finals.append(adam_solve(bundle, config, start)[1].final.mse)
            except SolverDivergedError:  # a diverging triple ranks last
                finals.append(np.inf)
        per_problem.append(float(np.mean(finals)))
    return float(max(per_problem)), per_problem


def tune_adam(problems, trials: int, seed: int, *, points=None,
              runs_per_problem: int = TUNE_RUNS_PER_PROBLEM,
              max_iterations: int | None = None, mse_stop: float = 1e-2):
    """Random-search tuning of (alpha, beta1, beta2) over a problem suite.

    ``problems`` is a sequence of (bundle, k) pairs, normally with k equal to
    the planted inner dimension.  Each trial triple is scored by the maximum
    over problems of the mean final MSE of ``runs_per_problem`` adam runs
    from seeded random starting points.  alpha is sampled log-uniformly on
    [1e-4, 1e-1] (three decades; uniform sampling would oversample the top
    decade), beta1 uniformly on [0.2, 0.999], beta2 on [0.1, 0.999].

    ``points`` replaces the random sampling with explicit (alpha, beta1,
    beta2) triples.  Returns trial dicts sorted by score (ties by trial
    index); deterministic for a fixed seed.
    """
    problems = [(b, int(k)) for b, k in problems]
    rng = np.random.default_rng(seed)
    if points is not None:
        triples = [tuple(float(x) for x in p) for p in points]
    else:
        triples = []
        for _ in range(trials):
            log_alpha = rng.uniform(math.log10(TUNE_ALPHA_RANGE[0]), math.log10(TUNE_ALPHA_RANGE[1]))
            beta1 = rng.uniform(*TUNE_BETA1_RANGE)
            beta2 = rng.uniform(*TUNE_BETA2_RANGE)
            triples.append((10.0**log_alpha, beta1, beta2))
    run_seeds = rng.integers(2**63, size=(len(triples), len(problems), runs_per_problem))

    rows = []
    for idx, (alpha, beta1, beta2) in enumerate(triples):
        score, per_problem = _score_point(
            problems, alpha, beta1, beta2, run_seeds[idx], max_iterations, mse_stop
        )
        rows.append(
            {
                "trial": idx,
                "alpha": alpha,
                "beta1": beta1,
                "beta2": beta2,
                "per_problem_mse": per_problem,
                "score": score,
            }
        )
    return sorted(rows, key=lambda row: (row["score"], row["trial"]))

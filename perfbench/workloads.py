"""The benchmark's workloads.

Every workload runs the same steps at its own shapes: solve a planted suite
in-process with each of the four methods (``solve_s.*``, ``final_mse.*``),
and, in CLI cycles interleaved with the solve rounds, write a bundle with
``snmtf generate`` (``generate_s``) and sweep it with ``snmtf benchmark`` plus
``snmtf compare`` (``sweep_s``).  What differs is which layer dominates: the
``R_i @ X`` products and ``n x n`` temporaries on ``dense-n1000``, iteration
counts and fixed per-iteration overhead on ``converge-n200``, and bundle text
I/O on ``sweep-io``.

A run is a sequence of rounds, each one suite pass of every method followed
by one or two CLI cycles, so that every metric's samples are spread over the
whole run.  The speed of a shared machine drifts over seconds; samples taken
in one stretch of a run would all share that stretch's speed.  A CLI cycle is
therefore kept to a few seconds, and on ``dense-n1000`` its bundle is smaller
than the solve suite.

The solve suite is a fixed set of planted instances (``suite_seeds``) whose
nodes are relabelled by a permutation drawn from the benchmark seed.  A
relabelling is an equivalent problem, so every seed gives different matrices
of identical difficulty.  Drawing the instances themselves from the seed would
not do: at ``n = 200, K = 20`` fpm needed from 149 to over 4000 iterations to
reach the stop rule across 24 generator seeds, so time-to-solution would
spread far beyond any useful bound.  The CLI phase generates its bundle from
the benchmark seed directly; its cost does not depend on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

METHODS = ("fpm", "bcd", "gmels", "adam")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    K: int
    N: int
    suite_seeds: tuple[int, ...]
    # Iteration cap per method; None keeps the paper's default cap, so the
    # run ends at the paper's stop rule.
    budgets: dict
    # Shape of the bundle that the CLI cycles generate and sweep (N as above).
    cli_n: int
    cli_K: int
    ratios: str
    sweep_max_iters: int
    # Rounds repeat until the run's --seconds have passed, and at least this
    # many times, so every timing is a median of several rounds.
    min_rounds: int = 3
    # Within a round, a method's suite passes repeat until they have taken
    # this long, so short solves are timed several times per round.
    min_pass_s: float = 0.0
    # CLI cycles at the end of each round.
    cli_per_round: int = 1


FULL = {
    w.name: w
    for w in (
        Workload(
            name="dense-n1000",
            n=1000, K=50, N=5,
            suite_seeds=(0,),
            budgets={"fpm": 30, "bcd": 4, "gmels": 2, "adam": 20},
            cli_n=300, cli_K=50,
            ratios="100",
            sweep_max_iters=1,
            cli_per_round=2,
        ),
        Workload(
            name="converge-n200",
            n=200, K=20, N=5,
            suite_seeds=(0, 2),
            # gmels reaches neither the threshold nor the plateau within its
            # 1000-iteration cap here, so it gets a reduced cap.
            budgets={"fpm": None, "bcd": None, "gmels": 20, "adam": None},
            cli_n=200, cli_K=20,
            ratios="100",
            sweep_max_iters=5,
            min_pass_s=0.5,
            cli_per_round=2,
        ),
        Workload(
            name="sweep-io",
            # An 11 MB text bundle: a cycle (one write, eight loads) takes
            # about 3 s, so several fit in one run.
            n=400, K=10, N=5,
            suite_seeds=(0,),
            budgets={"fpm": 3, "bcd": 3, "gmels": 3, "adam": 3},
            cli_n=400, cli_K=10,
            ratios="60,100",
            sweep_max_iters=1,
            min_rounds=5,
            min_pass_s=0.25,
        ),
    )
}

# Same workloads at toy shapes, for the benchmark's self-check.
TINY = {
    w.name: w
    for w in (
        Workload(
            name="dense-n1000",
            n=60, K=6, N=3,
            suite_seeds=(0,),
            budgets={"fpm": 5, "bcd": 2, "gmels": 2, "adam": 5},
            cli_n=40, cli_K=6,
            ratios="100",
            sweep_max_iters=1,
            min_rounds=2,
        ),
        Workload(
            name="converge-n200",
            n=40, K=4, N=3,
            suite_seeds=(0, 2),
            budgets={"fpm": 200, "bcd": 20, "gmels": 5, "adam": 200},
            cli_n=40, cli_K=4,
            ratios="60,100",
            sweep_max_iters=3,
            min_rounds=2,
        ),
        Workload(
            name="sweep-io",
            n=60, K=5, N=3,
            suite_seeds=(0,),
            budgets={"fpm": 3, "bcd": 3, "gmels": 3, "adam": 3},
            cli_n=60, cli_K=5,
            ratios="60,100",
            sweep_max_iters=1,
            min_rounds=2,
        ),
    )
}

SIZES = {"full": FULL, "tiny": TINY}

"""Shared problem model: data bundles, factorizations, configs and traces.

The problem solved throughout this package is

    minimize   sum_i || R_i - G S_i G^T ||_F^2
    subject to G >= 0 (n x k),  S_i >= 0 symmetric (k x k),

for an N-tuple of symmetric non-negative data matrices R_1 .. R_N.  ``SE``
denotes the objective value and ``MSE = SE / sum_i ||R_i||_F^2`` its value
relative to the size of the data.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Matches the double-precision machine epsilon used to guard denominators.
MACHINE_EPS = 2.220446049250313e-16

METHODS = ("fpm", "bcd", "gmels", "adam")

DEFAULT_MAX_ITERATIONS = {"fpm": 4000, "bcd": 300, "gmels": 1000, "adam": 3000}

# Stop reasons recorded on a ConvergenceTrace.
MSE_THRESHOLD = "mse_threshold"
DELTA_THRESHOLD = "delta_threshold"
MAX_ITERATIONS = "max_iterations"
STOP_REASONS = (MSE_THRESHOLD, DELTA_THRESHOLD, MAX_ITERATIONS)

# Input matrices must be symmetric to this relative tolerance; iterates are
# allowed to drift one hundred times further before anything is considered
# broken.
SYMMETRY_INPUT_RTOL = 1e-12
SYMMETRY_ITERATE_RTOL = 1e-10

# Rows of the n x n difference that _check_symmetric forms at a time.
SYMMETRY_CHECK_ROWS = 64

# G = 0 already scores MSE 1, so a run whose MSE climbs past this multiple of
# max(1, MSE_0) has diverged even while its iterates stay finite.
DIVERGENCE_MSE_FACTOR = 1e6

# poly_minimize treats derivative coefficients below 1e-14 of the largest as
# zero when it forms the companion matrix, and keeps roots whose imaginary
# part is at most 1e-8 (1 + |real part|).
LEADING_COEFF_RTOL = 1e-14
REAL_ROOT_IMAG_RTOL = 1e-8


class DimensionError(ValueError):
    """Shape mismatch between a factorization and a data bundle."""


class ValidationError(ValueError):
    """Input data violates the model invariants (symmetry, sign, format)."""


class SolverDivergedError(RuntimeError):
    """The objective became non-finite during a run or the MSE ran away
    (see :meth:`ConvergenceTrace.step`), or the solver returned factors that
    are not native (see ``runner.run``).

    ``records`` carries the per-iteration records collected before the abort,
    for diagnosis.
    """

    def __init__(self, message: str, records=None):
        self.records = list(records or [])
        super().__init__(message)


class Transform(enum.Enum):
    """Element-wise change of variables that absorbs the sign constraint.

    ``ABS`` substitutes X = |X'| (adam) and ``SQUARE`` substitutes
    X = X' * X' (gmels) element-wise; under either substitution the feasible
    set becomes all real matrices and the objective is minimized without
    projections.  Only those two solvers hold raw variables X'; every
    :class:`Factorization` holds native factors.
    """

    ABS = "abs"
    SQUARE = "square"

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Native factor f(X') from raw variables X'."""
        x = np.asarray(x, dtype=float)
        return np.abs(x) if self is Transform.ABS else x * x

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """Element-wise derivative; the ABS subgradient at 0 is taken as 0."""
        x = np.asarray(x, dtype=float)
        return np.sign(x) if self is Transform.ABS else 2.0 * x

    def lift(self, x: np.ndarray) -> np.ndarray:
        """Raw variables X' with ``apply(X') == X`` for a native factor X: the
        element-wise square root for SQUARE, a copy for ABS.

        Raises ValidationError on a negative entry.
        """
        x = np.asarray(x, dtype=float)
        if x.size and float(x.min()) < 0.0:
            raise ValidationError(f"cannot lift a negative entry ({float(x.min())!r})")
        return np.sqrt(x) if self is Transform.SQUARE else x.copy()


def _symmetric_part(x: np.ndarray) -> np.ndarray:
    """(X + X^T) / 2 over the last two axes.

    Exactly symmetric, because floating-point addition commutes, and equal
    to X bit for bit when X already is.
    """
    return (x + x.swapaxes(-1, -2)) / 2.0


def _sandwich(gram: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The symmetric part of A X A, for one block X or an (N, k, k) stack."""
    return _symmetric_part(gram @ x @ gram)


def _check_square(r: np.ndarray, name: str) -> None:
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValidationError(f"{name} is not square: shape {r.shape}")


def _check_finite(r: np.ndarray, name: str) -> None:
    if np.isfinite(r).all():
        return
    i, j = np.argwhere(~np.isfinite(r))[0]
    raise ValidationError(f"{name} has non-finite entry {float(r[i, j])!r} at ({i}, {j})")


def _check_symmetric(r: np.ndarray, name: str, rtol: float, hint: str = "") -> None:
    """ValidationError unless max|X - X^T| <= rtol max|X| for the square X.

    Both maxima are taken without an n x n temporary: the scale from the
    extremes of X, the asymmetry over blocks of ``SYMMETRY_CHECK_ROWS`` rows
    of X - X^T.
    """
    scale = max(float(r.max()), -float(r.min())) if r.size else 0.0
    asym = 0.0
    for i in range(0, len(r), SYMMETRY_CHECK_ROWS):
        block = r[i:i + SYMMETRY_CHECK_ROWS] - r[:, i:i + SYMMETRY_CHECK_ROWS].T
        asym = max(asym, float(np.abs(block, out=block).max()))
    if asym > rtol * scale:
        raise ValidationError(
            f"{name} is not symmetric: max |X - X^T| = {asym:.3e} "
            f"exceeds {rtol:g} * max|X| = {rtol * scale:.3e}{hint}"
        )


def _check_nonnegative(r: np.ndarray, name: str) -> None:
    if r.size and float(r.min()) < 0.0:
        i, j = np.unravel_index(int(np.argmin(r)), r.shape)
        raise ValidationError(
            f"{name} has negative entry {float(r[i, j])!r} at ({i}, {j})"
        )


@dataclass(frozen=True, eq=False)
class DataBundle:
    """N symmetric non-negative n x n matrices plus cached norms and spectrum.

    ``R`` is one read-only, C-contiguous (N, n, n) array; iterating or
    indexing it yields the n x n matrices R_i, and ``n``, ``N``, the norms
    and the :attr:`spectrum` are derived from it, each computed on first use
    and held for the bundle's life.  The solvers touch the data only through
    :meth:`times`.  Instances are immutable, so every run on a bundle, such
    as a sweep's, reads the same arrays and the same cached spectrum.
    """

    R: np.ndarray
    label: str = ""

    @classmethod
    def from_matrices(cls, matrices, label: str = "", symmetrize: bool = False) -> "DataBundle":
        """Validate raw matrices and copy them into one (N, n, n) stack.

        Raises ValidationError on non-square, non-finite, asymmetric (beyond
        1e-12 relative, unless ``symmetrize``), negative or differently
        ordered input.
        """
        matrices = list(matrices)
        return cls._from_iterable(matrices, len(matrices), label, symmetrize)

    @classmethod
    def _from_iterable(cls, matrices, count: int, label: str, symmetrize: bool) -> "DataBundle":
        """:meth:`from_matrices` over an iterable of exactly ``count`` matrices.

        Each matrix is validated and copied into the preallocated stack as it
        arrives and then dropped, so a lazy iterable (``data.load_bundle``
        reads one file per item) never holds more than one raw matrix.
        """
        if not count:
            raise ValidationError("a bundle needs at least one matrix")
        stack = None
        for i, raw in enumerate(matrices):
            name = f"R_{i + 1}"
            r = np.asarray(raw, dtype=float)
            _check_square(r, name)
            _check_finite(r, name)
            if symmetrize:
                r = _symmetric_part(r)
            _check_symmetric(r, name, SYMMETRY_INPUT_RTOL,
                             " (pass symmetrize=True to average with the transpose)")
            _check_nonnegative(r, name)
            if stack is None:
                stack = np.empty((count,) + r.shape)
            elif r.shape != stack.shape[1:]:
                raise ValidationError(
                    f"{name} has order {r.shape[0]}, expected {stack.shape[1]}"
                )
            stack[i] = r
            del raw, r
        stack.setflags(write=False)
        return cls(R=stack, label=label)

    @property
    def n(self) -> int:
        return self.R.shape[1]

    @property
    def N(self) -> int:
        return len(self.R)

    @cached_property
    def norms_sq(self) -> tuple[float, ...]:
        """Per-matrix squared Frobenius norms ||R_i||^2."""
        return tuple(float(r.ravel() @ r.ravel()) for r in self.R)

    @cached_property
    def norm_sq_total(self) -> float:
        """sum_i ||R_i||^2."""
        return sum(self.norms_sq)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(w, v) = np.linalg.eigh(sum_i R_i)``: the n eigenvalues
        in ascending order and the unit eigenvectors as columns of v.

        One dense eigendecomposition per bundle, holding n^2 + n floats; every
        spectral start on the bundle reads it.
        """
        w, v = np.linalg.eigh(self.R.sum(axis=0))
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def times(self, x: np.ndarray) -> np.ndarray:
        """The products R_i X for every i, as one writable, C-contiguous
        (m, N, n) array Y whose Y[j, i] is column j of R_i X.

        The one place where the solvers multiply by the data.  One data pass
        is the N products R_i X with X of k columns.

        The N products are one GEMM in BLAS's faster orientation,
        X^T (R_1 ... R_N): an (m x n) by (n x N n) product over the
        transposed view of the row-stacked (N n, n) bundle, so nothing is
        copied, and Y is that product's (m, N n) output: ``Y.reshape(-1, n)``
        is the (m N, n) matrix of every (R_i X)^T, the one layout every
        kernel reads.  It does not use the symmetry of the R_i.
        At n = 1000, m = 50 (2 BLAS threads, OpenBLAS 0.3.31) it takes about
        0.75 of the batched ``R @ X``.  Narrow products at n <= 400 are
        slower this way in isolation, but keeping ``R @ X`` for them moved
        no benchmark workload past noise (README, "Data products").
        """
        n, m = x.shape
        return (x.T @ self.R.reshape(-1, n).T).reshape(m, self.N, n)


@dataclass
class Factorization:
    """Native factor pair (G, S): G and every S_i non-negative, every S_i
    symmetric.

    ``S`` is one C-contiguous (N, k, k) float stack of the S_i, copied from
    whatever sequence of blocks the constructor is given; DimensionError
    unless G is 2-D and every S_i is k x k.  Every solver takes and returns
    native factors; gmels and adam change variables (:class:`Transform`)
    internally.
    """

    G: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=float)
        if self.G.ndim != 2:
            raise DimensionError(f"G has shape {self.G.shape}, expected (n, k)")
        k = self.G.shape[1]
        blocks = [np.asarray(s, dtype=float) for s in self.S]
        for i, s in enumerate(blocks):
            if s.shape != (k, k):
                raise DimensionError(f"S_{i + 1} has shape {s.shape}, expected ({k}, {k})")
        self.S = np.array(blocks).reshape(len(blocks), k, k)

    @property
    def k(self) -> int:
        return self.G.shape[1]

    @property
    def N(self) -> int:
        return len(self.S)


def _check_native(fact: Factorization, label: str) -> None:
    """Raise ValidationError unless G and every S_i are finite and
    non-negative and every S_i is symmetric to the iterate tolerance (1e-10
    relative).  Messages name the block as ``<label> G`` or ``<label> S_i``.
    """
    names = [f"{label} G"] + [f"{label} S_{i + 1}" for i in range(fact.N)]
    for name, x in zip(names, [fact.G, *fact.S]):
        _check_finite(x, name)
        _check_nonnegative(x, name)
    for name, s in zip(names[1:], fact.S):
        _check_symmetric(s, name, SYMMETRY_ITERATE_RTOL)


def check_compatible(bundle: DataBundle, fact: Factorization) -> None:
    """Raise DimensionError unless the factorization has the bundle's n and N."""
    if fact.G.shape[0] != bundle.n:
        raise DimensionError(f"G has shape {fact.G.shape}, expected ({bundle.n}, k)")
    if fact.N != bundle.N:
        raise DimensionError(f"factorization has {fact.N} S matrices, bundle has N = {bundle.N}")


def se(bundle: DataBundle, fact: Factorization) -> float:
    """Objective sum_i ||R_i - G S_i G^T||_F^2."""
    check_compatible(bundle, fact)
    total = 0.0
    for r, s in zip(bundle.R, fact.S):
        z = r - (fact.G @ s) @ fact.G.T
        total += float(z.ravel() @ z.ravel())
    return total


def mse(bundle: DataBundle, fact: Factorization) -> float:
    """SE divided by the total squared norm of the data."""
    if bundle.norm_sq_total <= 0.0:
        raise ValidationError("all-zero bundle: MSE is undefined")
    return se(bundle, fact) / bundle.norm_sq_total


def residuals(bundle: DataBundle, fact: Factorization):
    """Residual matrices Z_i = R_i - G S_i G^T."""
    check_compatible(bundle, fact)
    return [r - (fact.G @ s) @ fact.G.T for r, s in zip(bundle.R, fact.S)]


def se_from_gram(norms_sq, gram, mid, s_list) -> float:
    """SE via ||R - G S G^T||^2 = ||R||^2 - 2<M, S> + <A S A, S>.

    ``gram`` is A = G^T G and ``mid[i]`` is M_i = G^T R_i G; this evaluates the
    objective in O(N k^3) without forming n x n residuals.  M_i and A S_i A
    enter through their symmetric parts, as in the solvers' Gram step, so
    the value is that step's SE bit for bit.  Clamped at zero: cancellation
    can push the exact-fit value a few ulps negative.
    """
    return _se_from_asa(norms_sq, _symmetric_part(np.asarray(mid)), s_list,
                        _sandwich(gram, np.asarray(s_list)))


def _se_from_asa(norms_sq, mid, s_list, asa_list) -> float:
    """:func:`se_from_gram` given the products A S_i A, for callers that
    already hold them (the native gradient needs them too)."""
    total = 0.0
    for term in _se_terms(norms_sq, np.asarray(mid), np.asarray(s_list), np.asarray(asa_list)):
        total += term  # in order of i
    return max(float(total), 0.0)


def _se_terms(norms_sq, mid, s, asa) -> np.ndarray:
    """The per-block terms ||R_i||^2 - 2<M_i, S_i> + <A S_i A, S_i> of SE over
    (N, k, k) stacks; they sum to SE."""
    return np.asarray(norms_sq) - 2.0 * _traces(mid, s) + _traces(asa, s)


def _traces(x, y) -> np.ndarray:
    """Frobenius inner products <X_i, Y_i> over two (N, k, k) stacks.
    ``np.vecdot`` (numpy 2) takes the same dot product as ``np.vdot``, term
    for term."""
    return np.vecdot(x.reshape(len(x), -1), y.reshape(len(y), -1))


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    se: float
    mse: float
    elapsed_seconds: float


class ConvergenceTrace:
    """One run's record: the iteration count, the stopping rules and a
    (iteration, SE, MSE, wall clock) record for every iteration, so
    ``records[i].iteration == i``.

    The clock starts at construction.  :meth:`start` records iteration 0;
    each :meth:`step` records the next iteration and then checks the rules in
    the order: plateau (|MSE_t - MSE_{t-1}| < delta_stop), threshold
    (MSE_t < mse_stop), iteration cap.  The plateau check runs first so a run
    started at a fixed point terminates with ``delta_threshold`` rather than
    tripping the MSE threshold it already satisfies.  The first rule that
    fires sets ``stop_reason``; :func:`drive` iterates while :attr:`running`.

    Before the rules, :meth:`step` raises SolverDivergedError when SE is
    non-finite or MSE_t exceeds DIVERGENCE_MSE_FACTOR * max(1, MSE_0) (1e6).
    """

    def __init__(self, bundle: DataBundle, config: "SolverConfig"):
        if bundle.norm_sq_total <= 0.0:
            raise ValidationError("all-zero bundle: MSE stopping rules are undefined")
        self._norm = bundle.norm_sq_total
        self._config = config
        self._t0 = time.monotonic()
        self._mse_ceiling = np.inf
        self.records: list[TraceRecord] = []
        self.stop_reason: str | None = None

    def _append(self, se_value: float, mse_value: float) -> None:
        self.records.append(
            TraceRecord(len(self.records), se_value, mse_value, time.monotonic() - self._t0)
        )

    def start(self, se_value: float) -> None:
        """Record the starting point (iteration 0)."""
        mse_value = se_value / self._norm
        self._append(se_value, mse_value)
        self._mse_ceiling = DIVERGENCE_MSE_FACTOR * max(1.0, mse_value)

    def step(self, se_value: float) -> None:
        """Record the next iteration and set ``stop_reason`` if a rule fires."""
        iteration = len(self.records)
        if not np.isfinite(se_value):
            raise SolverDivergedError(
                f"objective became non-finite ({se_value}) at iteration {iteration}",
                records=self.records,
            )
        mse_value = se_value / self._norm
        if mse_value > self._mse_ceiling:
            raise SolverDivergedError(
                f"MSE {mse_value:.6g} at iteration {iteration} exceeds "
                f"{DIVERGENCE_MSE_FACTOR:g} x max(1, starting MSE)",
                records=self.records,
            )
        prev = self.records[-1].mse
        self._append(se_value, mse_value)
        if abs(mse_value - prev) < self._config.delta_stop:
            self.stop_reason = DELTA_THRESHOLD
        elif mse_value < self._config.mse_stop:
            self.stop_reason = MSE_THRESHOLD
        elif iteration >= self._config.max_iterations:
            self.stop_reason = MAX_ITERATIONS

    @property
    def running(self) -> bool:
        """True until a stopping rule has fired."""
        return self.stop_reason is None

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    @property
    def iterations(self) -> int:
        return max(len(self.records) - 1, 0)

    def mse_at(self, iteration: int) -> float:
        """MSE at ``iteration``, or the final MSE if the run stopped earlier."""
        if not self.records or iteration < 0:
            raise ValueError(f"no record at or before iteration {iteration}")
        return self.records[min(iteration, self.iterations)].mse


def drive(bundle: DataBundle, config: "SolverConfig", iterations):
    """Run one solver's iteration generator to the stopping rules; returns
    (native factorization, trace).

    Each solver module's ``iterate(bundle, config, start, rng)`` builds such
    a generator.  It yields SE at the start, then the SE after one more
    iteration each time it is sent True; sent False, it yields its native
    Factorization.  This loop is the only place where a run's
    :class:`ConvergenceTrace` is built and fed, and a SolverDivergedError
    raised by a step carries the records collected before it.
    """
    trace = ConvergenceTrace(bundle, config)
    try:
        trace.start(next(iterations))
        while trace.running:
            trace.step(iterations.send(True))
    except SolverDivergedError as exc:
        exc.records = list(trace.records)
        raise
    return iterations.send(False), trace


@dataclass
class SolverConfig:
    """Method choice plus every knob the four solvers read.

    ``max_iterations`` defaults per method: 4000 (fpm), 300 (bcd), 1000
    (gmels), 3000 (adam).  The paper fixes bcd's inner step count
    (``bcd.INNER_STEPS``) and adam's eps (``adam.EPSILON``); they are
    constants there, not knobs.

    Raises ValueError on an unknown method, a non-positive ``k`` or
    ``max_iterations``, a negative ``seed``, a negative stopping threshold,
    ``adam_alpha <= 0``, or an adam beta outside the open interval (0, 1).
    """

    method: str
    k: int
    max_iterations: int | None = None
    mse_stop: float = 1e-2
    delta_stop: float = 1e-10
    seed: int = 0
    adam_alpha: float = 0.002
    adam_beta1: float = 0.95
    adam_beta2: float = 0.995

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.max_iterations is None:
            self.max_iterations = DEFAULT_MAX_ITERATIONS[self.method]
        for name in ("k", "max_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("mse_stop", "delta_stop"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not self.adam_alpha > 0.0:
            raise ValueError("adam_alpha must be positive")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in the open interval (0, 1)")


def poly_minimize(c, lo: float = -np.inf, hi: float = np.inf) -> float:
    """Global minimizer of p(t) = sum_j c[j] t^j on [lo, hi] among 0, the
    finite bounds and the real stationary points, each clipped to [lo, hi].

    ``c`` holds ascending coefficients: degree 4 for bcd's quartic, 12 for
    gmels' squared-variable exact line search.

    Stationary points are the roots of p', found as eigenvalues of the
    companion matrix (built as ``np.roots`` builds it, and balanced by
    ``eigvals``) after stripping leading coefficients below 1e-14 of the
    largest and trailing exact zeros, whose roots at 0 are already a
    candidate.  Near-real roots (|imag| <= 1e-8 (1 + |real|)) are kept, so a
    root outside [lo, hi] yields the nearer bound.  The candidates are scored
    by :func:`poly_value`.  Ties prefer smaller p, then smaller |t|, then the
    negative sign: a flat polynomial gives 0 whenever 0 is in range.
    """
    c = np.asarray(c, dtype=float)
    dc = np.arange(1, len(c)) * c[1:]
    keep = np.flatnonzero(np.abs(dc) > LEADING_COEFF_RTOL * np.abs(dc).max(initial=0.0))
    candidates = [[0.0], [b for b in (lo, hi) if np.isfinite(b)]]
    if keep.size:
        # p' in descending powers, without the stripped terms at either end
        desc = dc[np.flatnonzero(dc)[0]:keep[-1] + 1][::-1]
        if len(desc) > 1:
            companion = np.eye(len(desc) - 1, k=-1)
            companion[0] = -desc[1:] / desc[0]
            roots = np.linalg.eigvals(companion)
            real = np.abs(roots.imag) <= REAL_ROOT_IMAG_RTOL * (1.0 + np.abs(roots.real))
            candidates.append(roots.real[real])
    candidates = np.clip(np.concatenate(candidates), lo, hi)
    order = np.lexsort((candidates, np.abs(candidates), poly_value(c, candidates)))
    return float(candidates[order[0]])


def poly_value(c, t):
    """p(t) = sum_j c[j] t^j by Horner's rule, for a scalar or an array ``t``.

    The same operations in the same order as
    ``numpy.polynomial.polynomial.polyval``, so the same value bit for bit.
    """
    c = np.asarray(c, dtype=float).tolist()
    value = c[-1] + t * 0.0
    for cj in c[-2::-1]:
        value = cj + value * t
    return value

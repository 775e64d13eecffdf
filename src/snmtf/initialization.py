"""Starting points: spectral deterministic G and seeded random factors."""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg

from .model import DataBundle, DimensionError, Factorization

# Above this order the dense eigendecomposition of sum_i R_i is replaced by an
# iterative largest-magnitude eigensolver.
DENSE_EIG_MAX_ORDER = 2000

ZERO_COLUMN_FILL = 1e-8

# Below this fraction of the top eigenvalue magnitude an eigenvalue counts as
# numerically zero and its eigenvector as arbitrary nullspace noise.
NULL_EIGENVALUE_RTOL = 1e-12


def _dominant_part(x: np.ndarray) -> np.ndarray:
    """Positive or negative part of an eigenvector, whichever has the larger
    euclidean norm (ties keep the positive part)."""
    pos = np.maximum(x, 0.0)
    neg = np.maximum(-x, 0.0)
    part = pos if np.linalg.norm(pos) >= np.linalg.norm(neg) else neg
    if not part.any():
        # Unreachable for a nonzero eigenvector; guards degenerate solver output.
        part = part + ZERO_COLUMN_FILL
    return part


def deterministic_g(bundle: DataBundle, k: int) -> np.ndarray:
    """Non-negative starting G from the spectrum of R = sum_i R_i.

    Takes the eigenvectors of the k largest-magnitude eigenvalues of R and
    keeps each vector's dominant sign part, concatenated column-wise.
    Deterministic: identical bundle and k give identical output.

    When k exceeds the numerical rank of R, the surplus eigenvectors are
    direction-free nullspace noise; those columns use the element-wise
    absolute value instead of a sign part, because a sign part is half exact
    zeros and zero entries are permanently frozen by both the multiplicative
    updates and the transformed-coordinates dynamics.
    """
    if not 1 <= k <= bundle.n:
        raise DimensionError(f"k must be in [1, {bundle.n}], got {k}")
    total = bundle.R.sum(axis=0)
    if bundle.n <= DENSE_EIG_MAX_ORDER:
        w, v = np.linalg.eigh(total)
    else:
        v0 = np.full(bundle.n, 1.0 / np.sqrt(bundle.n))
        w, v = scipy.sparse.linalg.eigsh(total, k=k, which="LM", v0=v0)
    order = np.argsort(-np.abs(w))[:k]
    floor = NULL_EIGENVALUE_RTOL * float(np.abs(w).max())
    cols = []
    for j in order:
        if abs(w[j]) <= floor:
            cols.append(np.abs(v[:, j]))
        else:
            cols.append(_dominant_part(v[:, j]))
    return np.column_stack(cols)


def random_symmetric_stack(rng: np.random.Generator, k: int, count: int) -> np.ndarray:
    """(count, k, k) stack of symmetric matrices, uniform(0,1) entries
    symmetrized; one draw, in the order of ``count`` separate k x k draws."""
    s = rng.random((count, k, k))
    return (s + s.swapaxes(1, 2)) / 2.0


def random_init(n: int, k: int, N: int, seed: int) -> Factorization:
    """Uniform(0,1) starting factors; S_i symmetrized as (S + S^T)/2."""
    rng = np.random.default_rng(seed)
    g = rng.random((n, k))
    return Factorization(g, random_symmetric_stack(rng, k, N))

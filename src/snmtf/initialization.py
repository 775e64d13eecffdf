"""Starting points: the spectral deterministic G and seeded random S blocks."""

from __future__ import annotations

import numpy as np

from .model import DataBundle, DimensionError, _symmetric_part

# Below this fraction of the top eigenvalue magnitude an eigenvalue counts as
# numerically zero and its eigenvector as arbitrary nullspace noise.
NULL_EIGENVALUE_RTOL = 1e-12


def _dominant_part(x: np.ndarray) -> np.ndarray:
    """Positive or negative part of an eigenvector, whichever has the larger
    euclidean norm (ties keep the positive part)."""
    pos = np.maximum(x, 0.0)
    neg = np.maximum(-x, 0.0)
    return pos if np.linalg.norm(pos) >= np.linalg.norm(neg) else neg


def deterministic_g(bundle: DataBundle, k: int) -> np.ndarray:
    """Non-negative starting G from the spectrum of R = sum_i R_i.

    Reads the bundle's one dense eigendecomposition of R
    (:attr:`DataBundle.spectrum`, ``np.linalg.eigh`` for every order n),
    taken by the first call on the bundle and reused by every later call,
    whatever its k.  Takes the eigenvectors of the k largest-magnitude
    eigenvalues and keeps each vector's dominant sign part, concatenated
    column-wise.  Deterministic: identical matrices and k give identical
    output, bit for bit, also on degenerate spectra.

    When k exceeds the numerical rank of R, the surplus eigenvectors are
    direction-free nullspace noise; those columns use the element-wise
    absolute value instead of a sign part, because a sign part is half exact
    zeros and zero entries are permanently frozen by both the multiplicative
    updates and the transformed-coordinates dynamics.
    """
    if not 1 <= k <= bundle.n:
        raise DimensionError(f"k must be in [1, {bundle.n}], got {k}")
    w, v = bundle.spectrum
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
    return _symmetric_part(rng.random((count, k, k)))

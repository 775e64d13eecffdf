import numpy as np
import pytest

from snmtf.model import DataBundle, Factorization


def random_bundle(rng, n, N, scale=1.0):
    """Symmetric non-negative matrices with uniform entries."""
    mats = []
    for _ in range(N):
        r = rng.random((n, n)) * scale
        mats.append((r + r.T) / 2.0)
    return DataBundle.from_matrices(mats, label=f"random-{n}x{n}-N{N}")


def random_native_fact(rng, n, k, N, scale=1.0):
    g = rng.random((n, k)) * scale
    s_list = []
    for _ in range(N):
        s = rng.random((k, k)) * scale
        s_list.append((s + s.T) / 2.0)
    return Factorization(g, s_list)


def exact_fit_pair(rng, n, k, N, strictly_positive=True):
    """Bundle built from its own factorization, so SE(fact) == 0."""
    lo = 0.1 if strictly_positive else 0.0
    g = rng.uniform(lo, 1.0, (n, k))
    s_list = []
    r_list = []
    for _ in range(N):
        s = rng.uniform(lo, 1.0, (k, k))
        s = (s + s.T) / 2.0
        s_list.append(s)
        r_list.append((g @ s) @ g.T)
    bundle = DataBundle.from_matrices(r_list, label="exact-fit")
    return bundle, Factorization(g, s_list)


def assert_one_stack(bundle):
    """The bundle holds its data as one read-only, C-contiguous (N, n, n) array."""
    assert isinstance(bundle.R, np.ndarray)
    assert bundle.R.shape == (bundle.N, bundle.n, bundle.n)
    assert bundle.R.flags.c_contiguous and not bundle.R.flags.writeable


def assert_block_stack(s, N, k):
    """``s`` holds N blocks of order k as one C-contiguous float (N, k, k)
    array, not as a list of matrices."""
    assert isinstance(s, np.ndarray)
    assert s.dtype == np.float64 and s.shape == (N, k, k)
    assert s.flags.c_contiguous


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def data_passes(monkeypatch):
    """Counts the data passes taken through ``DataBundle.times``.

    One pass is one product R_i @ X with X of k columns, so a call with an
    n x m block X costs N m / k passes.  The fixture returns a function of k
    that reads the count so far.
    """
    columns = []
    times = DataBundle.times

    def counted(bundle, x):
        columns.append(bundle.N * x.shape[1])
        return times(bundle, x)

    monkeypatch.setattr(DataBundle, "times", counted)
    return lambda k: sum(columns) / k

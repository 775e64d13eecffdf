import numpy as np
import pytest

from snmtf import bcd, fpm, gmels
from snmtf.gradients import _g_terms, _gram_products, _gram_step
from snmtf.model import DataBundle, Factorization, Transform, se_from_gram


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


# One-call forms of the solvers' kernels at a given point, shared by the
# acceptance criteria and the solver tests.  Each takes one data pass for
# the products that the solver would already hold.

def native_gradient(bundle, fact):
    """(dG, dS) of SE at ``fact`` from the Gram kernel, dS as an (N, k, k) stack."""
    return _gram_step(bundle, fact.G, fact.S, bundle.times(fact.G))[1:]


def quartic_along(bundle, fact, dg):
    """bcd's quartic p(t) = SE(G + t dG) in ascending coefficients, with
    c0 = SE at ``fact`` in place of the kernel's 0."""
    g, s = fact.G, fact.S
    gram, h, mid = _gram_products(bundle, g)
    c = bcd._quartic(g, dg, gram, s, _g_terms(gram, h, s)[0], bundle.times(dg))
    c[0] = se_from_gram(bundle.norms_sq, gram, mid, s)
    return c


def square_line_poly(bundle, g, s, dg, ds):
    """gmels' degree-12 polynomial p(t) = SE((G' - t dG')^2, (S' - t dS')^2)
    at the raw point (G', S'), in ascending coefficients."""
    g, s = np.asarray(g, dtype=float), np.asarray(s, dtype=float)
    h = bundle.times(Transform.SQUARE.apply(g))
    return gmels._line_poly_coefficients(bundle, g, s, np.negative(dg), np.negative(ds), h)[0]


def fpm_new_g(bundle, fact):
    """fpm's multiplicative G update at ``fact``."""
    g = fact.G
    return fpm._update_g(g, g.T @ g, bundle.times(g), fact.S)


def fpm_new_s(bundle, fact):
    """fpm's multiplicative update of every S_i at ``fact``'s G, as a stack."""
    gram, _, mid = _gram_products(bundle, fact.G)
    return fpm._update_s(gram, mid, fact.S)


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


def save_dense_matrix(path, x) -> None:
    """Write ``x`` in the dense text format ``data.load_matrix`` reads: a
    ``rows cols`` line, then one row per line with 17 significant digits."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    # One %-format per row; "%.17g" writes the same bytes as format(v, ".17g").
    row_format = " ".join(["%.17g"] * x.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{x.shape[0]} {x.shape[1]}\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in x)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def asymmetric_fpm_result(monkeypatch):
    """Makes fpm's iteration generator return an S_2 that is not symmetric,
    so that ``runner.run``'s check of the result fails."""
    from snmtf import fpm, runner

    def broken(bundle, config, start, rng):
        steps = fpm.iterate(bundle, config, start, rng)
        out = next(steps)
        while not isinstance(out, Factorization):
            out = steps.send((yield out))
        out.S[1, 0, 1] += 0.25
        yield out

    monkeypatch.setitem(runner.SOLVERS, "fpm", broken)


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

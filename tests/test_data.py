import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.io
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snmtf import data
from snmtf.model import (
    ConvergenceTrace,
    DataBundle,
    Factorization,
    SolverConfig,
    ValidationError,
    mse,
)

from conftest import assert_block_stack, assert_one_stack, save_dense_matrix

GOLDEN = Path(__file__).parent / "data" / "golden_bundle"

VALID_R = np.array([[1.0, 0.5, 0.25], [0.5, 2.0, 0.0], [0.25, 0.0, 3.0]])

UNPICKLED = []


class _Unpickles:
    """Appends to UNPICKLED when unpickled, so a test can see that nothing was."""

    def __reduce__(self):
        return UNPICKLED.append, (True,)


def _list_in_manifest(bundle_dir, names):
    path = Path(bundle_dir) / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["matrices"] = names
    path.write_text(json.dumps(manifest))


def _dense_text(rows, header=None):
    if header is None:
        header = f"{len(rows)} {len(rows[0])}"
    return header + "\n" + "".join(" ".join(row) + "\n" for row in rows)


def _not_the_valid_header(header):
    try:
        return tuple(int(tok) for tok in header.split()) != VALID_R.shape
    except ValueError:
        return True


@st.composite
def malformed_dense_text(draw):
    """Dense-text body for VALID_R with exactly one kind of defect."""
    rows = [[format(v, ".17g") for v in row] for row in VALID_R]
    kind = draw(st.sampled_from(
        ["header", "token", "ragged", "non_finite", "non_square", "asymmetric"]
    ))
    i = draw(st.integers(0, 2))
    j = draw(st.integers(0, 2))
    if kind == "header":
        header = draw(st.text(alphabet="0123456789 -.x", max_size=8).filter(_not_the_valid_header))
        return _dense_text(rows, header)
    if kind == "token":
        # no digits and no i/n/f, so float() rejects every such token
        rows[i][j] = draw(st.text(alphabet="abxyz.,;+-_", min_size=1, max_size=4))
    elif kind == "ragged":
        rows[i] = rows[i][:j] if draw(st.booleans()) else rows[i] + ["1"]
        return _dense_text(rows, "3 3")
    elif kind == "non_finite":
        rows[i][j] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf"]))
    elif kind == "non_square":
        cols = draw(st.sampled_from([1, 2, 4]))
        rows = [(row + ["0"])[:cols] for row in rows]
    else:
        j = (i + draw(st.integers(1, 2))) % 3
        rows[i][j] = format(VALID_R[i, j] + draw(st.floats(1e-3, 10.0)), ".17g")
    return _dense_text(rows)


class TestGenerateSynthetic:
    def test_planted_is_exact(self):
        bundle, planted = data.generate_synthetic(n=50, K=5, N=5, seed=0)
        assert mse(bundle, planted) <= 1e-20

    def test_r_is_the_planted_product_bit_for_bit(self):
        # Each R_i is formed on its own as (G S_i) G^T; the batched
        # G @ S @ G^T it replaced gives the same bits.
        bundle, planted = data.generate_synthetic(n=37, K=5, N=3, seed=1)
        g, s = planted.G, planted.S
        assert bundle.R.tobytes() == (g @ s @ g.T).tobytes()

    def test_planted_columns_exactly_orthogonal(self):
        _, planted = data.generate_synthetic(n=37, K=4, N=2, seed=1)
        gram = planted.G.T @ planted.G
        off = gram - np.diag(np.diag(gram))
        assert np.all(off == 0.0)

    def test_deterministic_per_seed(self):
        a, fa = data.generate_synthetic(n=20, K=4, N=3, seed=7)
        b, fb = data.generate_synthetic(n=20, K=4, N=3, seed=7)
        for x, y in zip(a.R, b.R):
            assert np.array_equal(x, y)
        assert np.array_equal(fa.G, fb.G)

    def test_planted_s_is_one_stack(self):
        _, planted = data.generate_synthetic(n=20, K=4, N=3, seed=7)
        assert_block_stack(planted.S, 3, 4)

    @pytest.mark.parametrize("N", [0, -1])
    def test_rejects_nonpositive_n_blocks(self, N):
        with pytest.raises(ValidationError, match=f"N must be a positive integer, got {N}"):
            data.generate_synthetic(n=20, K=3, N=N)

    @pytest.mark.parametrize("density", [0.0, -0.5, 1.5])
    def test_rejects_density_outside_unit_interval(self, density):
        with pytest.raises(ValidationError, match=r"density must be in \(0, 1\]"):
            data.generate_synthetic(n=20, K=3, density=density)

    def test_s_density_tracks_target(self):
        # Mean nonzero fraction over 100 seeds for K = 50.
        fractions = []
        for seed in range(100):
            _, planted = data.generate_synthetic(n=50, K=50, N=1, density=0.65, seed=seed)
            s = planted.S[0]
            fractions.append(np.count_nonzero(s) / s.size)
        assert 0.60 <= float(np.mean(fractions)) <= 0.70

    def test_s_symmetric_nonnegative(self):
        _, planted = data.generate_synthetic(n=24, K=6, N=4, seed=3)
        for s in planted.S:
            assert np.array_equal(s, s.T)
            assert float(s.min()) >= 0.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValidationError):
            data.generate_synthetic(n=10, K=20)


class TestMatrixFiles:
    def test_dense_round_trip_bit_exact(self, rng, tmp_path):
        x = rng.standard_normal((7, 3)) * np.exp(rng.standard_normal((7, 3)) * 5)
        path = tmp_path / "m.txt"
        save_dense_matrix(path, x)
        back = data.load_matrix(path)
        assert np.array_equal(back, x)

    def test_dense_writer_bytes_match_per_value_format(self, rng, tmp_path):
        special = [0.0, -0.0, 5e-324, 1e-320, 1.7976931348623157e308, np.inf, -np.inf,
                   np.nan, 0.1, 1 / 3, 1e16, 1e17]
        values = np.concatenate([special, -np.array(special), rng.standard_normal(24),
                                 rng.random(24) * 10.0 ** rng.integers(-300, 300, 24)])
        for shape in ((4, 18), (72, 1), (1, 72), (3, 0)):
            x = values[: shape[0] * shape[1]].reshape(shape)
            path = tmp_path / "m.txt"
            save_dense_matrix(path, x)
            expected = f"{shape[0]} {shape[1]}\n" + "".join(
                " ".join(format(v, ".17g") for v in row) + "\n" for row in x
            )
            assert path.read_bytes() == expected.encode()

    def test_matrix_market_coordinate(self, tmp_path):
        path = tmp_path / "m.mtx.txt"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "1 1 2.5\n"
            "3 1 1.25\n"
        )
        m = data.load_matrix(path)
        expected = np.array([[2.5, 0, 1.25], [0, 0, 0], [1.25, 0, 0]])
        np.testing.assert_array_equal(m, expected)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("banana\n1 2 3\n")
        with pytest.raises(ValidationError, match="malformed"):
            data.load_matrix(path)

    def test_malformed_matrix_market(self, tmp_path):
        path = tmp_path / "bad.mtx.txt"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 x 3\n")
        with pytest.raises(ValidationError, match="bad.mtx.txt: malformed Matrix Market"):
            data.load_matrix(path)

    @pytest.mark.parametrize("cut", ["truncated", "header-only"])
    def test_cut_npy_names_the_file(self, tmp_path, cut):
        path = tmp_path / "m.npy"
        np.save(path, VALID_R)
        whole = path.read_bytes()
        path.write_bytes(whole[:-8] if cut == "truncated" else whole[: len(whole) - VALID_R.nbytes])
        with pytest.raises(ValidationError, match=r"m\.npy: malformed \.npy file"):
            data.load_matrix(path)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32, ">f8"])
    def test_real_npy_loads_as_float64(self, tmp_path, dtype):
        path = tmp_path / "m.npy"
        x = np.array([[1, 2], [2, 7]], dtype=dtype)
        np.save(path, x)
        back = data.load_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, x.astype(float))

    @pytest.mark.parametrize("x", [
        pytest.param(VALID_R + 1j, id="complex"),
        pytest.param(np.array([[True, False], [False, True]]), id="bool"),
        pytest.param(np.array([["1", "2"], ["2", "1"]]), id="string"),
        pytest.param(np.zeros((2, 2), dtype=[("a", float), ("b", float)]), id="structured"),
    ])
    def test_non_real_npy_refused(self, tmp_path, x):
        path = tmp_path / "m.npy"
        np.save(path, x)
        with pytest.raises(ValidationError, match=r"m\.npy: matrix must hold real numbers"):
            data.load_matrix(path)

    def test_object_npy_refused_without_unpickling(self, tmp_path):
        path = tmp_path / "m.npy"
        np.save(path, np.array([[_Unpickles(), 1.0], [1.0, 2.0]], dtype=object))
        UNPICKLED.clear()
        with pytest.raises(ValidationError, match=r"m\.npy: malformed \.npy file"):
            data.load_matrix(path)
        assert UNPICKLED == []

    @pytest.mark.parametrize("field", ["complex", "integer"])
    def test_matrix_market_field(self, tmp_path, field):
        path = tmp_path / "m.mtx"
        path.write_text(
            f"%%MatrixMarket matrix array {field} general\n2 2\n"
            + ("1 1\n2 0\n2 0\n1 0\n" if field == "complex" else "1\n2\n2\n1\n")
        )
        if field == "complex":
            with pytest.raises(ValidationError, match=r"m\.mtx: matrix must hold real numbers"):
                data.load_matrix(path)
        else:
            back = data.load_matrix(path)
            assert back.dtype == np.float64
            assert np.array_equal(back, [[1.0, 2.0], [2.0, 1.0]])

    def test_unreadable_file_names_it(self, tmp_path):
        path = tmp_path / "m.npy"
        path.mkdir()
        with pytest.raises(ValidationError, match=r"m\.npy: cannot read matrix file"):
            data.load_matrix(path)


class TestBundleIO:
    def test_round_trip_bit_exact(self, tmp_path):
        bundle, planted = data.generate_synthetic(n=12, K=3, N=2, seed=5)
        data.save_bundle(bundle, tmp_path / "b", planted=planted)
        manifest = data.read_manifest(tmp_path / "b")
        assert manifest["matrices"] == ["R_1.npy", "R_2.npy"]
        assert manifest["matrix_format"] == "npy"
        back = data.load_bundle(tmp_path / "b")
        assert back.n == bundle.n and back.N == bundle.N
        assert_one_stack(back)
        assert back.R.tobytes() == bundle.R.tobytes()
        assert back.norm_sq_total == bundle.norm_sq_total

    def test_text_and_matrix_market_bundle_loads(self, tmp_path):
        # Hand-made bundles and those from older versions list text files.
        bundle, _ = data.generate_synthetic(n=12, K=3, N=2, seed=6)
        data.save_bundle(bundle, tmp_path / "b")
        save_dense_matrix(tmp_path / "b" / "R_1.txt", bundle.R[0])
        scipy.io.mmwrite(tmp_path / "b" / "R_2.mtx", bundle.R[1], precision=17)
        for name in ("R_1.npy", "R_2.npy"):
            (tmp_path / "b" / name).unlink()
        _list_in_manifest(tmp_path / "b", ["R_1.txt", "R_2.mtx"])
        back = data.load_bundle(tmp_path / "b")
        assert back.R.tobytes() == bundle.R.tobytes()

    def test_load_holds_the_stack_about_once(self, tmp_path):
        # Each file is validated and copied into the stack before the next is
        # read; parsing every file first held the bundle 2.4 times over.
        bundle, _ = data.generate_synthetic(n=400, K=5, N=5, seed=0)
        data.save_bundle(bundle, tmp_path / "b")
        del bundle
        tracemalloc.start()
        try:
            back = data.load_bundle(tmp_path / "b")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * back.R.nbytes

    def test_negative_entry_rejected_with_location(self, tmp_path):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=1, seed=1)
        data.save_bundle(bundle, tmp_path / "b")
        r = np.array(bundle.R[0])
        r[1, 2] = r[2, 1] = -3.0
        np.save(tmp_path / "b" / "R_1.npy", r)
        with pytest.raises(ValidationError, match=r"R_1 has negative entry .* at \(1, 2\)"):
            data.load_bundle(tmp_path / "b")

    def test_asymmetry_needs_flag(self, tmp_path):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=1, seed=2)
        data.save_bundle(bundle, tmp_path / "b")
        r = np.array(bundle.R[0])
        r[0, 1] += 1e-6
        np.save(tmp_path / "b" / "R_1.npy", r)
        with pytest.raises(ValidationError, match="not symmetric"):
            data.load_bundle(tmp_path / "b")
        back = data.load_bundle(tmp_path / "b", symmetrize=True)
        np.testing.assert_allclose(back.R[0], (r + r.T) / 2.0)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="manifest"):
            data.load_bundle(tmp_path)

    def test_norm_mismatch_detected(self, tmp_path):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=1, seed=3)
        data.save_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        manifest["norm_sq_total"] = manifest["norm_sq_total"] * 1.5
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="norm_sq_total"):
            data.load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("key,value", [
        ("n", "x"), ("N", "x"), ("n", 0), ("N", 2.0), ("n", True), ("planted_K", "x"),
        ("planted_K", 1.5), ("planted_K", None),
    ])
    def test_manifest_counts_must_be_positive_integers(self, tmp_path, key, value):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b", planted_k=2)
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        manifest[key] = value
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=f"manifest {key} must be a positive integer"):
            data.read_manifest(tmp_path / "b")
        with pytest.raises(ValidationError, match=f"manifest {key} must be a positive integer"):
            data.load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("key", ["n", "N"])
    def test_manifest_lacks_a_count(self, tmp_path, key):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        del manifest[key]
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=f"manifest lacks required key '{key}'"):
            data.read_manifest(tmp_path / "b")

    def test_manifest_n_must_match_the_matrices(self, tmp_path):
        # N cannot disagree: the matrix list is checked to hold N names.
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        manifest["n"] = 7
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="manifest promises n=7, N=2, matrices give n=6, N=2"):
            data.load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("value", ["abc", [1], float("nan"), float("inf"), True, None, 10**400],
                             ids=["string", "list", "nan", "inf", "bool", "null", "huge-int"])
    def test_manifest_norm_must_be_a_finite_number(self, tmp_path, value):
        # It used to reach load_bundle's float() (ValueError, TypeError), or
        # as NaN to skip the norm check.
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        manifest["norm_sq_total"] = value
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="manifest norm_sq_total must be a finite number"):
            data.read_manifest(tmp_path / "b")
        with pytest.raises(ValidationError, match="manifest norm_sq_total must be a finite number"):
            data.load_bundle(tmp_path / "b")

    def test_manifest_must_be_utf8(self, tmp_path):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        manifest["label"] = "caf\u00e9"
        (tmp_path / "b" / "manifest.json").write_bytes(
            json.dumps(manifest, ensure_ascii=False).encode("latin-1"))
        with pytest.raises(ValidationError, match="malformed manifest: 'utf-8' codec"):
            data.read_manifest(tmp_path / "b")

    @pytest.mark.parametrize("label", [None, 7, ["b"]])
    def test_manifest_label_must_be_a_string(self, tmp_path, label):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        manifest["label"] = label
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="manifest label must be a string"):
            data.load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("label", ["../x", "../../escaped", "a/b", "a\\b", ".", "..",
                                       pytest.param("", id="empty")])
    def test_manifest_label_may_not_be_a_path(self, tmp_path, label):
        # The label keys the sweep's rows and names its run directories.
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        manifest["label"] = label
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="may not be '.' or '..' or hold a path separator"):
            data.read_manifest(tmp_path / "b")

    @pytest.mark.parametrize("label", ["../x", "a/b", "a\\b", ".", ".."])
    def test_save_refuses_a_label_the_manifest_refuses(self, tmp_path, label):
        # load_bundle refuses such a label, so a saved bundle could not be read.
        bundle = DataBundle.from_matrices([VALID_R], label=label)
        with pytest.raises(ValidationError, match="may not be '.' or '..' or hold a path separator"):
            data.save_bundle(bundle, tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_missing_label_is_the_directory_name(self, tmp_path):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        del manifest["label"]
        (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
        assert data.read_manifest(tmp_path / "b")["label"] == "b"
        assert data.load_bundle(tmp_path / "b").label == "b"

    def test_unlabelled_bundle_saves_under_the_directory_name(self, tmp_path):
        data.save_bundle(DataBundle.from_matrices([VALID_R]), tmp_path / "b")
        assert data.load_bundle(tmp_path / "b").label == "b"

    def test_manifest_must_be_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ValidationError, match="not a JSON object"):
            data.read_manifest(tmp_path)

    def test_listed_matrix_missing(self, tmp_path):
        bundle, _ = data.generate_synthetic(n=6, K=2, N=2, seed=4)
        data.save_bundle(bundle, tmp_path / "b")
        (tmp_path / "b" / "R_2.npy").unlink()
        with pytest.raises(ValidationError, match=r"R_2\.npy: matrix file not found"):
            data.load_bundle(tmp_path / "b")

    @settings(max_examples=150, deadline=None)
    @given(text=malformed_dense_text())
    @example(text="2 2\n1 2\n3\n")
    def test_malformed_dense_text_is_validation_error(self, text):
        bundle = DataBundle.from_matrices([VALID_R])
        with tempfile.TemporaryDirectory() as tmp:
            data.save_bundle(bundle, tmp)
            (Path(tmp) / "R_1.txt").write_text(text)
            _list_in_manifest(tmp, ["R_1.txt"])
            with pytest.raises(ValidationError, match="R_1"):
                data.load_bundle(tmp)

    def test_golden_bundle_norm_matches_manifest(self):
        bundle = data.load_bundle(GOLDEN)
        manifest = data.read_manifest(GOLDEN)
        assert abs(bundle.norm_sq_total - manifest["norm_sq_total"]) <= 1e-12 * manifest["norm_sq_total"]
        assert manifest["planted_K"] == 3


class TestFactorizationIO:
    def _trace(self):
        # ||R||^2 = 8 and SE 4, 2, 1: MSE 0.5, 0.25, 0.125, stopped by the cap.
        bundle = DataBundle.from_matrices([2.0 * np.eye(2)])
        trace = ConvergenceTrace(bundle, SolverConfig(method="fpm", k=1, max_iterations=2))
        trace.start(4.0)
        trace.step(2.0)
        trace.step(1.0)
        return trace

    def test_round_trip(self, rng, tmp_path):
        fact = Factorization(rng.random((5, 2)), [rng.random((2, 2)) for _ in range(2)])
        data.save_factorization(fact, self._trace(), tmp_path / "run", SolverConfig(method="fpm", k=2))
        back = data.load_factors(tmp_path / "run")
        assert np.array_equal(back.G, fact.G)
        for x, y in zip(back.S, fact.S):
            assert np.array_equal(x, y)

    def test_npy_round_trip_bit_exact_and_byte_stable(self, rng, tmp_path):
        g = rng.random((6, 3)) * np.exp(rng.standard_normal((6, 3)) * 20)
        g[0, :] = [0.0, 5e-324, 1.7976931348623157e308]
        s = rng.random((2, 3, 3))
        fact = Factorization(g, s + s.transpose(0, 2, 1))
        for out in ("a", "b"):
            data.save_factors(fact, tmp_path / out)
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["G.npy", "S.npy"]
        back = data.load_factors(tmp_path / "a")
        assert back.G.tobytes() == fact.G.tobytes()
        assert back.S.tobytes() == fact.S.tobytes()
        for name in ("G.npy", "S.npy"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_npy_pair_wins_over_stale_text(self, rng, tmp_path):
        old = Factorization(rng.random((5, 2)), rng.random((3, 2, 2)))
        save_dense_matrix(tmp_path / "G.txt", old.G)
        for i, s in enumerate(old.S):
            save_dense_matrix(tmp_path / f"S_{i + 1}.txt", s)
        assert data.load_factors(tmp_path).S.tobytes() == old.S.tobytes()
        new = Factorization(rng.random((5, 2)), rng.random((2, 2, 2)))
        data.save_factors(new, tmp_path)
        back = data.load_factors(tmp_path)
        assert back.G.tobytes() == new.G.tobytes()
        assert back.S.tobytes() == new.S.tobytes()

    def test_text_g_without_s_files(self, rng, tmp_path):
        save_dense_matrix(tmp_path / "G.txt", rng.random((5, 2)))
        with pytest.raises(ValidationError, match="no S_i.txt files found"):
            data.load_factors(tmp_path)

    def test_trace_header_mismatch(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iteration,mse\n0,0.5\n")
        with pytest.raises(ValidationError, match="unexpected trace header 'iteration,mse'"):
            data.load_trace_csv(path)

    def test_loaded_s_is_one_stack(self, rng, tmp_path):
        fact = Factorization(rng.random((5, 2)), rng.random((3, 2, 2)))
        data.save_factors(fact, tmp_path / "f")
        assert_block_stack(data.load_factors(tmp_path / "f").S, 3, 2)

    def test_trace_row_count(self, rng, tmp_path):
        fact = Factorization(rng.random((3, 1)), [rng.random((1, 1))])
        trace = self._trace()
        data.save_factorization(fact, trace, tmp_path / "run", SolverConfig(method="fpm", k=1))
        records = data.load_trace_csv(tmp_path / "run" / "trace.csv")
        assert len(records) == len(trace.records)
        assert [r.iteration for r in records] == [0, 1, 2]
        # se and mse columns round-trip exactly; elapsed is timing-only
        assert [r.se for r in records] == [r.se for r in trace.records]

    def test_summary_contents(self, rng, tmp_path):
        fact = Factorization(rng.random((3, 1)), [rng.random((1, 1))])
        config = SolverConfig(method="fpm", k=1, seed=3)
        data.save_factorization(fact, self._trace(), tmp_path / "run", config)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["method"] == "fpm"
        assert summary["stop_reason"] == "max_iterations"
        assert summary["final_mse"] == 0.125
        assert summary["config"]["seed"] == 3

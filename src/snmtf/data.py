"""Synthetic benchmark generation and the on-disk formats.

A bundle directory holds ``manifest.json`` plus one matrix file per data
matrix.  :func:`save_bundle` writes each matrix as a binary ``.npy`` file
(``R_1.npy`` ...), which round-trips 64-bit floats bit for bit.
:func:`load_matrix` also reads dense text (first line ``rows cols``, then
space-separated values with 17 significant digits, equally lossless) and
Matrix Market (densified on load, and the one reader that imports scipy),
so hand-made bundles and bundles from older versions load unchanged.  A run
output directory holds the factors as ``G.npy`` and ``S.npy`` (see
:func:`save_factors`; a bundle's ``planted/`` has the same pair) next to
``trace.csv`` and ``summary.json``, which stay text.  The text factor layout
of older outputs (``G.txt``, ``S_1.txt`` ...) is still read.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .model import (
    ConvergenceTrace,
    DataBundle,
    Factorization,
    SolverConfig,
    TraceRecord,
    ValidationError,
)

MANIFEST_NAME = "manifest.json"
BUNDLE_FORMAT = "snmtf-bundle-v1"
TRACE_HEADER = "iteration,se,mse,elapsed_seconds"
NORM_CHECK_RTOL = 1e-12

GENERATOR_VALUE_RANGE = (0.1, 1.0)


def generate_synthetic(n: int, K: int, N: int = 5, density: float = 0.65, seed: int = 0):
    """Planted problem R_i = G S_i G^T with known optimum (MSE = 0).

    Rows of G are split into K contiguous groups with sizes differing by at
    most one; group j carries Uniform(0.1, 1) weights in column j and zeros
    elsewhere, so distinct columns have disjoint supports and are exactly
    orthogonal (the only way non-negative columns can be).  Each S_i gets a
    symmetric Bernoulli(density) sparsity pattern (diagonal included, so the
    nonzero fraction is counted over all K^2 entries) filled with mirrored
    squared-Uniform(0,1) values.  The squared-uniform weights keep the
    fluctuation-to-mean ratio of the S blocks high enough that no single
    spectral mode dominates; with uniform weights the leading mode carries
    most of the energy and the under-parameterized (k < K) residual floor
    drops far below the benchmark band this suite is meant to probe.

    Returns (bundle, planted factorization).
    """
    if not 1 <= K <= n:
        raise ValidationError(f"K must be in [1, {n}], got {K}")
    if N < 1:
        raise ValidationError(f"N must be a positive integer, got {N}")
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    lo, hi = GENERATOR_VALUE_RANGE

    g = np.zeros((n, K))
    base, rem = divmod(n, K)
    row = 0
    for j in range(K):
        size = base + (1 if j < rem else 0)
        g[row : row + size, j] = rng.uniform(lo, hi, size)
        row += size

    upper = np.triu_indices(K)
    s = np.empty((N, K, K))
    for block in s:
        vals = rng.random((K, K)) ** 2
        vals.T[upper] = vals[upper]
        keep = rng.random((K, K)) < density
        block[...] = np.where(np.triu(keep) | np.triu(keep, 1).T, vals, 0.0)

    label = f"synthetic-n{n}-K{K}-N{N}-seed{seed}"
    # One R_i at a time, so no (N, n, n) product is built beside the stack.
    bundle = DataBundle._from_iterable(((g @ block) @ g.T for block in s), N, label, False)
    return bundle, Factorization(g, s)


def load_matrix(path) -> np.ndarray:
    """Load one matrix file as float64: ``.npy``, Matrix Market (densified)
    or dense text, told apart by the file's first bytes (the ``\\x93NUMPY``
    magic, the ``%%MatrixMarket`` banner, else a ``rows cols`` header).  A
    ``.npy`` array keeps its rank (``S.npy`` is a stack); callers check it.

    Raises ValidationError naming the file when it is missing or cannot be
    read, does not parse in its format, or holds data other than real
    integers or floats (complex, object, structured, string or boolean).
    An object ``.npy`` is refused without being unpickled.
    """
    path = Path(path)
    try:
        data = _read_matrix(path)
    except FileNotFoundError as exc:
        raise ValidationError(f"{path}: matrix file not found") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read matrix file: {exc.strerror or exc}") from exc
    if data.dtype.kind not in "iuf":
        raise ValidationError(f"{path}: matrix must hold real numbers, got dtype {data.dtype}")
    return np.asarray(data, dtype=float)


def _read_matrix(path: Path) -> np.ndarray:
    """The file's array in its stored dtype; OSError passes through."""
    with open(path, "rb") as fh:
        head = fh.readline()
    if head.startswith(np.lib.format.MAGIC_PREFIX):
        try:
            return np.load(path, allow_pickle=False)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed .npy file: {exc}") from exc
    if head.startswith(b"%%MatrixMarket"):
        import scipy.io  # only Matrix Market needs scipy; .npy and text do not
        import scipy.sparse

        try:
            m = scipy.io.mmread(path)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed Matrix Market file: {exc}") from exc
        return m.toarray() if scipy.sparse.issparse(m) else m
    try:
        rows, cols = (int(tok) for tok in head.split())
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed matrix header {head!r}") from exc
    try:
        data = np.loadtxt(path, skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed matrix body: {exc}") from exc
    if data.shape != (rows, cols):
        raise ValidationError(
            f"{path}: header promises {rows} x {cols}, file holds {data.shape[0]} x {data.shape[1]}"
        )
    return data


def save_bundle(bundle: DataBundle, path, planted: Factorization | None = None,
                planted_k: int | None = None) -> None:
    """Write a bundle directory: the manifest, each ``R_i`` as ``R_i.npy``
    (binary, bit for bit) and, when given, the planted factors under
    ``planted/`` (:func:`save_factors`).  An empty label is left out of the
    manifest, so the bundle loads under the directory's name.  A label that
    :func:`read_manifest` would refuse raises ValidationError before any
    file is written."""
    if bundle.label and _label_climbs_out(bundle.label):
        raise ValidationError(
            f"bundle label {bundle.label!r} may not be '.' or '..' or hold a path separator"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    names = [f"R_{i + 1}.npy" for i in range(bundle.N)]
    for name, r in zip(names, bundle.R):
        np.save(path / name, r)
    manifest = {
        "format": BUNDLE_FORMAT,
        "matrix_format": "npy",
        "n": bundle.n,
        "N": bundle.N,
        "matrices": names,
        "norm_sq_total": bundle.norm_sq_total,
    }
    if bundle.label:
        manifest["label"] = bundle.label
    if planted is not None:
        planted_k = planted.k
    if planted_k is not None:
        manifest["planted_K"] = int(planted_k)
    with open(path / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if planted is not None:
        save_factors(planted, path / "planted")


def _label_climbs_out(label: str) -> bool:
    """Whether a bundle label is ``.`` or ``..`` or holds a path separator.

    The label keys a sweep's rows and names its run directories, so
    :func:`read_manifest` refuses such a label, and an empty one too, and
    :func:`save_bundle` refuses to write it.
    """
    return label in (".", "..") or "/" in label or "\\" in label


def load_bundle(path, symmetrize: bool = False) -> DataBundle:
    """Load and validate a bundle directory.

    ``symmetrize`` averages each matrix with its transpose before validation
    (for data that is symmetric only up to noise).  Without it, the manifest's
    recorded norm_sq_total is checked against the loaded matrices.
    """
    path = Path(path)
    manifest = read_manifest(path)
    names = manifest.get("matrices") or [f"R_{i + 1}.mtx.txt" for i in range(manifest["N"])]
    bundle = DataBundle._from_iterable((load_matrix(path / name) for name in names), len(names),
                                       manifest["label"], symmetrize)
    if bundle.n != manifest["n"] or bundle.N != manifest["N"]:
        raise ValidationError(
            f"{path}: manifest promises n={manifest['n']}, N={manifest['N']}, "
            f"matrices give n={bundle.n}, N={bundle.N}"
        )
    recorded = manifest.get("norm_sq_total")
    if recorded is not None and not symmetrize:
        if abs(bundle.norm_sq_total - float(recorded)) > NORM_CHECK_RTOL * max(1.0, float(recorded)):
            raise ValidationError(
                f"{path}: norm_sq_total mismatch: manifest {recorded!r}, "
                f"matrices give {bundle.norm_sq_total!r}"
            )
    return bundle


def read_manifest(path) -> dict:
    """The bundle's manifest; it must be UTF-8 JSON, ``n``, ``N`` and (when
    present) ``planted_K`` must be positive integers, ``norm_sq_total``
    (when present) a finite number, ``label`` (when present) a string that
    is not empty, ``.`` or ``..`` and holds no path separator, and
    ``matrices`` (when present) a list of N file names, none absolute or
    with a ``..`` component, or ValidationError is raised.  A missing ``label`` is filled
    in as the directory's name."""
    manifest_path = Path(path) / MANIFEST_NAME
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{path}: no {MANIFEST_NAME}; not a bundle directory") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValidationError(f"{manifest_path}: malformed manifest: not a JSON object")
    for key in ("n", "N"):
        if key not in manifest:
            raise ValidationError(f"{manifest_path}: manifest lacks required key {key!r}")
    for key in ("n", "N", "planted_K"):
        value = manifest.get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(
                f"{manifest_path}: manifest {key} must be a positive integer, got {value!r}"
            )
    if "norm_sq_total" in manifest:
        value = manifest["norm_sq_total"]
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int beyond float
            finite = False
        if not finite:
            raise ValidationError(
                f"{manifest_path}: manifest norm_sq_total must be a finite number, got {value!r}"
            )
    label = manifest.setdefault("label", Path(path).name)
    if not isinstance(label, str):
        raise ValidationError(f"{manifest_path}: manifest label must be a string, got {label!r}")
    if not label or _label_climbs_out(label):
        raise ValidationError(
            f"{manifest_path}: manifest label {label!r} may not be '.' or '..' "
            "or hold a path separator, or be empty"
        )
    names = manifest.get("matrices")
    if names is not None and not (isinstance(names, list) and len(names) == manifest["N"]
                                  and all(isinstance(name, str) for name in names)):
        raise ValidationError(
            f"{manifest_path}: manifest matrices must be a list of N = {manifest['N']} "
            f"file names, got {names!r}"
        )
    # A matrix file is read from the bundle directory, so its name may not climb out.
    for name in names or ():
        if Path(name).is_absolute() or ".." in Path(name).parts:
            raise ValidationError(
                f"{manifest_path}: manifest matrices entry {name!r} may not be an absolute "
                "path or hold a '..' component"
            )
    return manifest


def save_factors(fact: Factorization, path) -> None:
    """Write ``G.npy`` (n x k) and ``S.npy`` (the (N, k, k) stack of the S_i)
    with ``np.save``, so the factors round-trip bit for bit."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.save(path / "G.npy", fact.G)
    np.save(path / "S.npy", fact.S)


def load_factors(path) -> Factorization:
    """Load a factorization: ``G.npy`` and ``S.npy`` when ``G.npy`` exists,
    otherwise the text layout of older outputs (``G.txt``, ``S_1.txt`` ...),
    never a mix of the two.

    Raises ValidationError naming the file when one is missing or unreadable,
    or when ``G.npy`` is not 2-D or ``S.npy`` not 3-D.
    """
    path = Path(path)
    if (path / "G.npy").exists():
        arrays = []
        for name, ndim, layout in (("G.npy", 2, "(n, k)"), ("S.npy", 3, "(N, k, k)")):
            x = load_matrix(path / name)
            if x.ndim != ndim:
                raise ValidationError(f"{path / name}: expected shape {layout}, got {x.shape}")
            arrays.append(x)
        return Factorization(*arrays)
    g = load_matrix(path / "G.txt")
    s_list = []
    i = 1
    while (path / f"S_{i}.txt").exists():
        s_list.append(load_matrix(path / f"S_{i}.txt"))
        i += 1
    if not s_list:
        raise ValidationError(f"{path}: no S_i.txt files found")
    return Factorization(g, s_list)


def save_trace_csv(trace: ConvergenceTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in trace.records:
            fh.write(f"{rec.iteration},{rec.se!r},{rec.mse!r},{rec.elapsed_seconds:.6f}\n")


def load_trace_csv(path) -> list[TraceRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValidationError(f"{path}: unexpected trace header {header!r}")
        for line in fh:
            it, se_v, mse_v, secs = line.strip().split(",")
            records.append(TraceRecord(int(it), float(se_v), float(mse_v), float(secs)))
    return records


def save_factorization(fact: Factorization, trace: ConvergenceTrace, path,
                       config: SolverConfig) -> None:
    """Write a full run output directory: factors, trace.csv, summary.json.

    Output bytes are deterministic for identical inputs except for the
    elapsed_seconds column of the trace.
    """
    path = Path(path)
    save_factors(fact, path)
    save_trace_csv(trace, path / "trace.csv")
    summary = {
        "stop_reason": trace.stop_reason,
        "iterations": trace.iterations,
        "final_se": trace.final.se,
        "final_mse": trace.final.mse,
        "method": config.method,
        "config": dataclasses.asdict(config),
    }
    with open(path / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

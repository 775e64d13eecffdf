"""Synthetic benchmark generation and the on-disk formats.

A bundle directory holds ``manifest.json`` plus one matrix file per data
matrix (``R_1.mtx.txt`` ...).  Matrix files are either dense text (first line
``rows cols``, then space-separated values with 17 significant digits, which
round-trips 64-bit floats exactly) or Matrix Market coordinate format
(densified on load).  A run output directory holds ``G.txt``, ``S_1.txt``
..., ``trace.csv`` and ``summary.json``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .model import (
    ConvergenceTrace,
    DataBundle,
    Factorization,
    SolverConfig,
    TraceRecord,
    Transform,
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
    bundle = DataBundle.from_matrices(g @ s @ g.T, label=label)
    return bundle, Factorization(g, s)


def save_dense_matrix(path, x) -> None:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    # One %-format per row; "%.17g" writes the same bytes as format(v, ".17g").
    row_format = " ".join(["%.17g"] * x.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{x.shape[0]} {x.shape[1]}\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in x)


def load_matrix(path) -> np.ndarray:
    """Load one matrix file, dense text or Matrix Market (densified).

    Raises ValidationError naming the file when it is missing, its header is
    not ``rows cols``, or its body does not parse as that many numbers.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
    except FileNotFoundError as exc:
        raise ValidationError(f"{path}: matrix file not found") from exc
    if head.startswith(b"%%MatrixMarket"):
        try:
            m = scipy.io.mmread(path)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed Matrix Market file: {exc}") from exc
        return np.asarray(m.todense() if scipy.sparse.issparse(m) else m, dtype=float)
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
    """Write a bundle directory (manifest + matrix files, optional planted factors)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    names = [f"R_{i + 1}.mtx.txt" for i in range(bundle.N)]
    for name, r in zip(names, bundle.R):
        save_dense_matrix(path / name, r)
    manifest = {
        "format": BUNDLE_FORMAT,
        "matrix_format": "dense",
        "n": bundle.n,
        "N": bundle.N,
        "label": bundle.label,
        "matrices": names,
        "norm_sq_total": bundle.norm_sq_total,
    }
    if planted is not None:
        planted_k = planted.k
    if planted_k is not None:
        manifest["planted_K"] = int(planted_k)
    with open(path / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if planted is not None:
        save_factors(planted, path / "planted")


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
                                       manifest.get("label", path.name), symmetrize)
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
    """The bundle's manifest; ``n``, ``N`` and (when present) ``planted_K``
    must be positive integers, or ValidationError is raised."""
    manifest_path = Path(path) / MANIFEST_NAME
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{path}: no {MANIFEST_NAME}; not a bundle directory") from exc
    except json.JSONDecodeError as exc:
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
    return manifest


def save_factors(fact: Factorization, path) -> None:
    """Write G.txt and S_i.txt for a native-coordinates factorization."""
    if fact.coords is not Transform.IDENTITY:
        raise ValidationError(
            f"only native-coordinates factorizations are persisted, got {fact.coords.value}"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_dense_matrix(path / "G.txt", fact.G)
    for i, s in enumerate(fact.S):
        save_dense_matrix(path / f"S_{i + 1}.txt", s)


def load_factors(path) -> Factorization:
    """Load a factorization written by :func:`save_factors`."""
    path = Path(path)
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
                       config: SolverConfig | None = None) -> None:
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
    }
    if config is not None:
        summary["method"] = config.method
        summary["config"] = dataclasses.asdict(config)
    with open(path / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

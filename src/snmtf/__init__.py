"""Solvers and benchmark harness for symmetric multi-type non-negative
matrix tri-factorization: given symmetric non-negative R_1 .. R_N, find
non-negative G and symmetric non-negative S_i minimizing
sum_i ||R_i - G S_i G^T||^2."""

from .data import generate_synthetic, load_bundle, save_bundle, save_factorization
from .gradients import grad_transformed
from .initialization import deterministic_g
from .model import (
    ConvergenceTrace,
    DataBundle,
    DimensionError,
    Factorization,
    SolverConfig,
    SolverDivergedError,
    Transform,
    ValidationError,
    mse,
    poly_minimize,
    residuals,
    se,
)
from .runner import build_start, run, tune_adam

__all__ = [
    "ConvergenceTrace",
    "DataBundle",
    "DimensionError",
    "Factorization",
    "SolverConfig",
    "SolverDivergedError",
    "Transform",
    "ValidationError",
    "build_start",
    "deterministic_g",
    "generate_synthetic",
    "grad_transformed",
    "load_bundle",
    "mse",
    "poly_minimize",
    "residuals",
    "run",
    "save_bundle",
    "save_factorization",
    "se",
    "tune_adam",
]

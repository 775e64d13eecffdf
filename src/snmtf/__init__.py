"""Solvers and benchmark harness for symmetric multi-type non-negative
matrix tri-factorization: given symmetric non-negative R_1 .. R_N, find
non-negative G and symmetric non-negative S_i minimizing
sum_i ||R_i - G S_i G^T||^2."""

from .adam import AdamState, adam_eta, adam_step, tune_adam
from .bcd import linesearch_g, linesearch_s, quartic_coeffs
from .data import generate_synthetic, load_bundle, save_bundle, save_factorization
from .fpm import fpm_step_g, fpm_step_s
from .gmels import line_poly_coeffs, poly_minimize
from .gradients import grad_native, grad_transformed
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
    residuals,
    se,
)
from .runner import build_start, run

__all__ = [
    "AdamState",
    "ConvergenceTrace",
    "DataBundle",
    "DimensionError",
    "Factorization",
    "SolverConfig",
    "SolverDivergedError",
    "Transform",
    "ValidationError",
    "adam_eta",
    "adam_step",
    "build_start",
    "deterministic_g",
    "fpm_step_g",
    "fpm_step_s",
    "generate_synthetic",
    "grad_native",
    "grad_transformed",
    "line_poly_coeffs",
    "linesearch_g",
    "linesearch_s",
    "load_bundle",
    "mse",
    "poly_minimize",
    "quartic_coeffs",
    "residuals",
    "run",
    "save_bundle",
    "save_factorization",
    "se",
    "tune_adam",
]

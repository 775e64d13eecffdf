"""Solvers and benchmark harness for symmetric multi-type non-negative
matrix tri-factorization: given symmetric non-negative R_1 .. R_N, find
non-negative G and symmetric non-negative S_i minimizing
sum_i ||R_i - G S_i G^T||^2."""

from .adam import AdamState, adam_eta, adam_solve, adam_step, tune_adam
from .bcd import bcd_solve, linesearch_g, linesearch_s, quartic_coeffs
from .data import generate_synthetic, load_bundle, save_bundle, save_factorization
from .fpm import fpm_solve, fpm_step_g, fpm_step_s
from .gmels import gmels_solve, line_poly_coeffs, poly_minimize
from .gradients import grad_native, grad_transformed
from .initialization import deterministic_g, random_init
from .model import (
    ConvergenceTrace,
    DataBundle,
    DimensionError,
    Factorization,
    LinePolynomial,
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
    "LinePolynomial",
    "SolverConfig",
    "SolverDivergedError",
    "Transform",
    "ValidationError",
    "adam_eta",
    "adam_solve",
    "adam_step",
    "bcd_solve",
    "build_start",
    "deterministic_g",
    "fpm_solve",
    "fpm_step_g",
    "fpm_step_s",
    "generate_synthetic",
    "gmels_solve",
    "grad_native",
    "grad_transformed",
    "line_poly_coeffs",
    "linesearch_g",
    "linesearch_s",
    "load_bundle",
    "mse",
    "poly_minimize",
    "quartic_coeffs",
    "random_init",
    "residuals",
    "run",
    "save_bundle",
    "save_factorization",
    "se",
    "tune_adam",
]

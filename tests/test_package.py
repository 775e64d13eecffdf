import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import snmtf
from snmtf import adam, bcd, fpm, gmels


def test_every_public_name_is_exported():
    public = {name for name, value in vars(snmtf).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(snmtf.__all__)


def test_public_surface_is_the_solver_contract():
    # run and its types, the tuner beside it, data I/O, the start, the shared
    # root finder, and the n x n references the oracles compare against.
    assert sorted(snmtf.__all__) == [
        "ConvergenceTrace", "DataBundle", "DimensionError", "Factorization",
        "SolverConfig", "SolverDivergedError", "Transform", "ValidationError",
        "build_start", "deterministic_g", "generate_synthetic",
        "grad_transformed", "load_bundle", "mse", "poly_minimize", "residuals", "run",
        "save_bundle", "save_factorization", "se", "tune_adam",
    ]
    assert snmtf.tune_adam is snmtf.runner.tune_adam


@pytest.mark.parametrize("module", [fpm, bcd, gmels, adam], ids=lambda m: m.__name__)
def test_solver_module_defines_no_public_function_but_iterate(module):
    defined = {name for name, value in vars(module).items()
               if inspect.isfunction(value) and value.__module__ == module.__name__
               and not name.startswith("_")}
    assert defined == {"iterate"}


@pytest.mark.parametrize("name", [
    "fpm_step_g", "fpm_step_s", "linesearch_g", "linesearch_s", "quartic_coeffs",
    "line_poly_coeffs", "grad_native", "AdamState", "adam_eta", "adam_step",
])
def test_removed_step_helper_is_nowhere(name):
    modules = [snmtf] + [importlib.import_module(f"snmtf.{info.name}")
                         for info in pkgutil.iter_modules(snmtf.__path__)]
    assert [m.__name__ for m in modules if hasattr(m, name)] == []


def test_console_script_imports_no_scipy(tmp_path):
    # scipy is needed only to read Matrix Market files.  A fresh interpreter
    # that imports the console script's module must not load it, and must
    # still read a Matrix Market file, importing scipy there.
    path = tmp_path / "R.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.5\n2 1 0.5\n")
    src = str(Path(snmtf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import snmtf.cli, sys\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        f"print(snmtf.data.load_matrix({str(path)!r}).tolist())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n")[:2] == ["False", "[[1.5, 0.5], [0.5, 0.0]]"]

import os
import subprocess
import sys
import types
from pathlib import Path

import snmtf


def test_every_public_name_is_exported():
    public = {name for name, value in vars(snmtf).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(snmtf.__all__)


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

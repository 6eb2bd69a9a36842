"""The package's public surface: every exported name exists, every
module of the package is used by the package itself, and importing it
does not load scipy.optimize."""

import subprocess
import sys
from pathlib import Path

import paritysim


def test_every_exported_name_resolves():
    missing = [name for name in paritysim.__all__
               if not hasattr(paritysim, name)]
    assert missing == []
    assert len(set(paritysim.__all__)) == len(paritysim.__all__)


def test_package_and_cli_load_every_module():
    # a module that only the tests import belongs with the tests; a fresh
    # interpreter, so modules the test session imported do not count
    package = Path(paritysim.__file__).parent
    expected = sorted(path.stem for path in package.glob("*.py")
                      if path.stem not in ("__init__", "__main__"))
    probe = ("import sys, paritysim, paritysim.cli; print(' '.join(sorted("
             "name.split('.', 1)[1] for name in sys.modules "
             "if name.startswith('paritysim.'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            cwd=package.parent).stdout.split()
    assert loaded == expected


def test_import_does_not_load_scipy_optimize():
    # the gate model solves by bisection; scipy.optimize costs a third of
    # the package's import time
    probe = ("import sys, paritysim, paritysim.cli; "
             "print('scipy.optimize' in sys.modules)")
    loaded = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            cwd=Path(paritysim.__file__).parent.parent).stdout
    assert loaded.strip() == "False"

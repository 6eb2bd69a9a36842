"""The package's public surface: every exported name exists, every
module of the package is used by the package itself, every module-level
private name is used somewhere in it, and importing it does not load
scipy.optimize."""

import ast
import subprocess
import sys
import tokenize
from collections import Counter
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


def test_every_private_name_is_used_in_the_package():
    # a module-level private name that no code of the package refers to is
    # dead, e.g. a helper left behind when its caller was simplified; names
    # are counted as code tokens, so a mention in a docstring or comment
    # is no use, and a name defined twice needs more than two tokens
    package = Path(paritysim.__file__).parent
    defined, tokens = Counter(), Counter()
    where = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [leaf.id for target in node.targets
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] += 1
                    where.setdefault(name, path.stem)
        with path.open("rb") as source:
            tokens.update(token.string
                          for token in tokenize.tokenize(source.readline)
                          if token.type == tokenize.NAME)
    orphans = sorted(f"{where[name]}.{name}" for name in defined
                     if tokens[name] <= defined[name])
    assert orphans == []


def test_import_does_not_load_scipy_optimize():
    # the gate model solves by bisection; scipy.optimize costs a third of
    # the package's import time
    probe = ("import sys, paritysim, paritysim.cli; "
             "print('scipy.optimize' in sys.modules)")
    loaded = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            cwd=Path(paritysim.__file__).parent.parent).stdout
    assert loaded.strip() == "False"

"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "historyvalue"
ALLOWED = set(sys.stdlib_module_names) | {PACKAGE.name}


def foreign_imports(source: str) -> list:
    """``(line, module)`` for each absolute import outside ``ALLOWED``, and for
    each call to ``__import__`` or ``import_module``, which the scan cannot follow."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)
        ) in ("__import__", "import_module"):
            found.append((node.lineno, "<dynamic import>"))
            continue
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] not in ALLOWED]
    return found


def test_library_imports_only_stdlib():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        found = foreign_imports(path.read_text())
        assert found == [], f"{path.name}: {found}"


def test_scan_flags_foreign_imports():
    source = (
        "import numpy as np\n"
        "from scipy.optimize import brentq\n"
        "import os.path, gmpy2\n"
        "from . import market\n"
        "from fractions import Fraction\n"
        "importlib.import_module('sympy')\n"
    )
    assert foreign_imports(source) == [
        (1, "numpy"), (2, "scipy.optimize"), (3, "gmpy2"), (6, "<dynamic import>"),
    ]

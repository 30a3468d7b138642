"""Each parameter range, the tree's state cap and the stochastic check of a
structure's columns are checked by one function: the package raises the
"must lie in (0, 1)", "outside [0, 1]", "must be positive", state-cap and
"columns sum to" errors from one function each."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "historyvalue"
PHRASES = ("must lie in (0, 1)", "outside [0, 1]", "must be positive",
           " public-belief states exceed ", "columns sum to")


def raisers(source: str, phrase: str) -> list:
    """Names of the functions with a ``raise`` whose string parts contain
    ``phrase``, once per such ``raise``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Raise) and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and phrase in c.value
            for c in ast.walk(node)
        ):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_each_range_has_one_check():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for phrase in PHRASES:
        owners = {
            (path.stem, name)
            for path in paths
            for name in raisers(path.read_text(), phrase)
        }
        assert len(owners) == 1, f"{phrase!r} raised from {sorted(owners)}"


def test_scan_finds_every_raiser():
    source = (
        "def a(x):\n"
        "    if x > 1:\n"
        "        raise ValueError(f'delta must lie in (0, 1): {x}')\n"
        "class P:\n"
        "    def __post_init__(self):\n"
        "        raise ValueError('alpha must lie in (0, 1)')\n"
        "def b(x):\n"
        "    raise ValueError(f'eps outside [0, 1]: {x}')\n"
    )
    assert raisers(source, PHRASES[0]) == ["a", "__post_init__"]
    assert raisers(source, PHRASES[1]) == ["b"]

"""Source layout rules that no behaviour test would notice."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schurdefect"


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_census_imports_numpy():
    # the exact stack is pure Python; a numpy twin of one of its kernels
    # would need an agreement test of its own
    users = {path.name for path in SRC.glob("*.py")
             if any(m == "numpy" or m.startswith("numpy.") for m in _imports(path))}
    assert users == {"census.py"}

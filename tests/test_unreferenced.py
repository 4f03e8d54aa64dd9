"""Guard against dead code: every definition in the package is used.

A non-dunder function, method or class defined in src/hopfhomology must
be named somewhere in src/, tests/ or demos/ besides its own definition.
Names are counted as Python identifier tokens, so mentions in strings
and comments do not count, an import (for example in __init__.py) does,
and a method name shared with another definition counts as used.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfhomology"
SCANNED = [ROOT / "src", ROOT / "tests", ROOT / "demos"]


def _name_counts():
    counts = Counter()
    for top in SCANNED:
        for path in sorted(top.rglob("*.py")):
            tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            counts.update(t.string for t in tokens if t.type == tokenize.NAME)
    return counts


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", name


def test_every_definition_is_referenced():
    counts = _name_counts()
    dead = [f"{where} {name}" for where, name in _definitions() if counts[name] < 2]
    assert not dead, "definitions nothing refers to:\n" + "\n".join(dead)

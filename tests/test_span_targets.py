"""Every span target of the traced benchmark names a live attribute.

``perfbench/spans.py`` wraps each ``TARGETS`` entry when the traced run
starts, so a rename in the package that drops one of these names breaks
that run.  The list is read from the file's source, which is never
imported or edited here.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


@pytest.mark.parametrize("module, attr", [pytest.param(m, a, id=n) for n, m, a in _targets()])
def test_span_target_resolves(module, attr):
    owner = importlib.import_module(f"hopfhomology.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

"""Arithmetic stays exact: an int where a value is integral, a Fraction otherwise.

Python keeps mixed int and Fraction arithmetic exact, so the package
needs no second code path for integers.  What would break it is a true
division of two ints, which gives a float, or a float or bool that
slips in as a coefficient.
"""

import keyword
import tokenize
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hopfhomology.homology import cochain_cols
from hopfhomology.linalg import _eliminate
from hopfhomology.resolutions import bar_resolution

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopfhomology"


def exact(c):
    """An int, or a Fraction that is not integral: never a float or bool."""
    return type(c) is int or (type(c) is Q and c.denominator != 1)


def test_no_true_division_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.OP and tok.string in ("/", "/="):
                    found.append(f"{path.name}:{tok.start[0]}")
    assert not found, "int / int is a float: " + ", ".join(found)


def test_no_power_of_minus_one_in_the_package():
    """(-1) ** k is a float for k < 0, so signs are written -1 if k % 2 else 1.

    A call such as Q(-1) ** k is exact and not matched.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        with tokenize.open(path) as fh:
            toks = [t for t in tokenize.generate_tokens(fh.readline) if t.string.strip()]
        for k in range(1, len(toks) - 4):
            before = toks[k - 1]
            called = before.string in (")", "]") or (
                before.type == tokenize.NAME and not keyword.iskeyword(before.string)
            )
            if not called and [t.string for t in toks[k : k + 5]] == ["(", "-", "1", ")", "**"]:
                found.append(f"{path.name}:{toks[k].start[0]}")
    assert not found, "(-1) ** k is a float for k < 0: " + ", ".join(found)


@pytest.mark.parametrize("name, module, depth", [("qs3", "std2", 3), ("env-upper2", "A", 4)])
def test_bar_coefficients_are_exact(catalog, name, module, depth):
    inst = catalog[name]
    res = bar_resolution(inst.data, depth)
    M = inst.modules[module]
    for n in range(1, depth + 1):
        for w in res.words(n):
            bad = [c for c in res.boundary_word(w).values() if not exact(c)]
            assert not bad, (n, w, bad)
    for n in range(depth):
        cols = cochain_cols(res, M, n)
        assert all(exact(c) for col in cols for c in col.values()), n
        reduced = _eliminate(cols)
        assert reduced
        assert all(exact(c) for _, tail in reduced for c in tail.values()), n

"""Guard against dead code: every definition in the package is used.

A non-dunder function, method or class defined in src/hopfhomology must
be named somewhere in src/ or demos/ besides its own definition, or be
listed in TEST_ONLY with the reason the package keeps it although only
tests/ call it.  Names are counted as Python identifier tokens, so
mentions in strings and comments do not count, an import (for example
in __init__.py) does, and a method name shared with another definition
counts as used.  A function's own parameters, and the names it assigns
(its locals), do not count inside it: a local kernel = ... does not
refer to a method kernel.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfhomology"
SCANNED = [ROOT / "src", ROOT / "demos"]

# module.name of each definition only tests/ call, with the reason it stays
TEST_ONLY = {
    # span target: perfbench/spans.py wraps it by name
    "resolutions.lift_into_total": "span target; the solved diagonal the closed form is checked against",
    # ROADMAP keep list: library API of the paper
    "bialgebroid.tensor_flip": "ROADMAP keep list",
    "bialgebroid.galois_module": "ROADMAP keep list",
    "duality.delta_underived": "ROADMAP keep list",
    "duality.bullet_omega_underived": "ROADMAP keep list",
    "ce.ce_vs_bar_ext": "ROADMAP keep list",
    "oracles.hochschild_cochain_matrix": "ROADMAP keep list (oracles.py)",
    "oracles.hochschild_cup": "ROADMAP keep list (oracles.py)",
    "oracles.lie_chain_matrix": "ROADMAP keep list (oracles.py)",
    "oracles.lie_homology_dims": "ROADMAP keep list (oracles.py)",
    # reference checks: tests compare the engine against these
    "resolutions.check_resolution": "reference check: exactness of the total complex of P (x) P",
    "linalg.kernel": "reference check: the rref property tests compare the dense kernel with an oracle",
    "homology.bijective": "reference check: tests assert a comparison of resolutions is invertible on Ext",
    # acceptance criteria
    "resolutions.boundary_elt": "acceptance criterion 02 (bar contractibility)",
    "homology.resolution_independence": "acceptance criterion 09",
}


def _scope(func):
    """(parameters and assigned names, names of nested definitions) of func's own scope."""
    args = func.args
    assigned = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    defined = set()
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            assigned.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return assigned, defined


def _local_tokens(node, local=frozenset()):
    """(line, column) of each token under node naming a parameter or a local of its function.

    A nested definition shadows an outer local of the same name, and is
    itself counted where it is used.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        assigned, defined = _scope(node)
        local = (local - defined) | assigned
    if isinstance(node, ast.arg) or isinstance(node, ast.Name) and node.id in local:
        yield node.lineno, node.col_offset
    for child in ast.iter_child_nodes(node):
        yield from _local_tokens(child, local)


def _name_counts(tops):
    counts = Counter()
    for top in tops:
        for path in sorted(top.rglob("*.py")):
            source = path.read_text()
            local = set(_local_tokens(ast.parse(source)))
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            # ast columns count UTF-8 bytes, tokenize columns count characters
            counts.update(t.string for t in tokens if t.type == tokenize.NAME
                          and (t.start[0], len(t.line[:t.start[1]].encode())) not in local)
    return counts


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", f"{path.stem}.{name}", name


def test_every_definition_is_referenced():
    counts = _name_counts(SCANNED)
    dead = [f"{where} {name}" for where, key, name in _definitions()
            if counts[name] < 2 and key not in TEST_ONLY]
    assert not dead, "definitions nothing in src/ or demos/ refers to:\n" + "\n".join(dead)


def test_every_test_only_entry_is_defined_and_needed():
    # an entry that src/ or demos/ now call, or that no test calls, goes
    counts, tests = _name_counts(SCANNED), _name_counts([ROOT / "tests"])
    defined = {key: name for _, key, name in _definitions()}
    stale = [key for key in TEST_ONLY
             if key not in defined or counts[defined[key]] >= 2 or not tests[defined[key]]]
    assert not stale, "TEST_ONLY entries to drop:\n" + "\n".join(stale)

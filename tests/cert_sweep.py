"""Weaken each certification check of the package alone and run Tier-1.

    python tests/cert_sweep.py

A check that can be weakened without a test failing guards nothing.
MUTANTS names each check with one exact (file, old text, new text)
edit.  For each, the script applies the edit alone to a temporary copy
of the repository, runs the Tier-1 suite there with -x under a timeout
of TIMEOUT_S seconds, and prints whether some test failed (the mutant
is killed), the run timed out (counted as killed, but listed apart) or
every test passed (it survives, or is listed as equivalent when
EQUIVALENT explains why it cannot change a result).  The exit code is
the number of survivors that are not equivalent.  The name has no test_ prefix, so pytest does not collect
it; a full sweep takes several minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

ALGEBRAS = "src/hopfhomology/algebras.py"
BIALGEBROID = "src/hopfhomology/bialgebroid.py"
CE = "src/hopfhomology/ce.py"
CLI = "src/hopfhomology/cli.py"
DUALITY = "src/hopfhomology/duality.py"
COMPLEXES = "src/hopfhomology/complexes.py"
LINALG = "src/hopfhomology/linalg.py"
ORACLES = "src/hopfhomology/oracles.py"
ERRORS = "src/hopfhomology/errors.py"
PBW = "src/hopfhomology/pbw.py"
PRODUCTS = "src/hopfhomology/products.py"
RESOLUTIONS = "src/hopfhomology/resolutions.py"
UG_HOPF_KEYS = ["translation_1", "translation_2", "counit_laws", "coassociative",
                "delta_multiplicative", "translation_multiplicative"]

# (name, file, old text, new text); the old text occurs once in its file
MUTANTS = [
    # detect_duality_ug: the walker, its fallback and the rank one end
    ("walker injectivity off by one", DUALITY,
     "if rank == src.dim:", "if rank >= src.dim - 1:"),
    ("walker exactness sum at most", DUALITY,
     "if rank_in + rank_out == V.dim:", "if rank_in + rank_out <= V.dim:"),
    ("walker composition check off", DUALITY,
     "if any(sparse_extend(out.__getitem__, col) for col in into):",
     "if False and any(sparse_extend(out.__getitem__, col) for col in into):"),
    ("fallback membership on the first row only", DUALITY,
     "for row in kern.echelon):", "for row in kern.echelon[:1]):"),
    ("fallback membership of any row", DUALITY,
     "if all(not image.decompose(", "if any(not image.decompose("),
    ("rank one at least one", DUALITY,
     "monomials_upto(d, m))).dim == 1", "monomials_upto(d, m))).dim >= 1"),
    ("twist comparison off", DUALITY,
     "cls(x) == {k: w * c for k, c in unit.items() if w}", "True"),
    ("twist sign flipped", DUALITY,
     "{k: w * c for k, c in unit.items() if w}", "{k: -w * c for k, c in unit.items() if w}"),
    ("double dual against the dualizing twist", DUALITY,
     'top_class("right", [0] * d)', 'top_class("right", weights)'),
    # the dualized differential against the generator one
    ("delta chain check reads the dual side twice", DUALITY,
     "for q, col in enumerate(res.diff_cols(i)) for p, entry in col.items()}",
     "for p, col in enumerate(dd.dual_cols[i]) for q, entry in col.items()}"),
    # homology_dims: exactness, d d = 0 and clearing
    ("homology_dims exactness at most", COMPLEXES,
     "if ranks[k - 1] + ranks[k] == dims[k - 1]:", "if ranks[k - 1] + ranks[k] <= dims[k - 1]:"),
    ("homology_dims d d check off", COMPLEXES,
     "if any(sparse_extend(", "if False and any(sparse_extend("),
    ("homology_dims d d check on the first kept column", COMPLEXES,
     "col) for col in kept):", "col) for col in kept[:1]):"),
    ("homology_dims clearing set shifted", COMPLEXES,
     "pivots = {c for c, _ in passes[k][1][1]}", "pivots = {c + 1 for c, _ in passes[k][1][1]}"),
    ("HomologySpace image cycle check off", COMPLEXES,
     "if rest:\n                raise ValidationError(\"image vector",
     "if False:\n                raise ValidationError(\"image vector"),
    # the brute force oracles: their rank walk and the faces the chain complex trades
    ("oracle d d check off", ORACLES,
     "if any(sparse_extend(outer.__getitem__, col) for col in inner):",
     "if False and any(sparse_extend(outer.__getitem__, col) for col in inner):"),
    ("Hochschild chain faces not traded", ORACLES,
     "first, last = sides[::-1] if right else sides", "first, last = sides"),
    # the reference total complex of P (x) P
    ("TotalTensorComplex d d check off", RESOLUTIONS,
     "if n >= 2 and not (self.diff[n - 1] @ out).is_zero():",
     "if False and n >= 2 and not (self.diff[n - 1] @ out).is_zero():"),
    # the bar differential built from the degree below by the contracting homotopy
    ("recursion drops f_t[w]", RESOLUTIONS,
     "acc = {j: list(f) if n > 1", "acc = {j: [0] * nu if n > 1"),
    ("degree-one column without its counit term", RESOLUTIONS,
     "[a - b for a, b in zip(f, data.eta_target(data.counit(f)))]", "list(f)"),
    ("tail homotopy cached on t only", RESOLUTIONS,
     "self._tail_homotopy(t, p).items()",
     'self._memo["_tail_homotopy"].setdefault((t,), self._tail_homotopy(t, p)).items()'),
    # the U(g) bar model's one face writer, its window, and the lift every class goes through
    ("bar-model face 0 drops its monomial", CE, "{t[0]: 1}", "{unit: 1}"),
    ("bar model window unbounded", CE, "self.max_degree = bound", "self.max_degree = 10 ** 9"),
    ("bar-model counit face on every tuple", CE, "if mono_deg(t[-1]) == 0:", "if True:"),
    ("CE lift bottom ignores the class", CE, "{unit: a[0]}", "{unit: 1}"),
    ("CE d d check off", CE,
     "if lifted_boundary(self, col, outer, 1):", "if False and lifted_boundary(self, col, outer, 1):"),
    ("class lifts one degree short", PRODUCTS,
     "values, self.top - m)", "values, self.top - m - 1)"),
    # the Alexander-Whitney diagonal, its front leg built by the homotopy
    ("diagonal back factor reversed", RESOLUTIONS,
     "self.U.product(q, b)", "self.U.product(b, q)"),
    ("front leg built from its first slot", RESOLUTIONS,
     "self.tails[g[0]]).items():\n            for (w, (b,)), d in self.diagonal(g[1:], i - 1)",
     "self.tails[g[-1]]).items():\n            for (w, (b,)), d in self.diagonal(g[:-1], i - 1)"),
    # the one memo: a table per method, keyed on every positional argument
    ("memo keyed on its first argument only", LINALG,
     "out = table.get(args)\n        if out is None:\n            out = table[args] =",
     "out = table.get(args[:1])\n        if out is None:\n            out = table[args[:1]] ="),
    # the certified elimination
    ("_certify always true", LINALG,
     "        if any(acc.values()):\n            return False",
     "        if False:\n            return False"),
    ("_reconstruct without its size bound", LINALG,
     "if abs(s1) > bound:", "if False:"),
    ("_first_echelon takes a prime dividing a denominator", LINALG,
     "if echelon is not None:\n            return p, echelon", "if True:\n            return p, echelon"),
    ("CRT step drops the new prime", LINALG,
     "x = a + m * ((tail.get(j, 0) - a) * inv % p)", "x = a"),
    # the glues of the translation triple, on which translation_coproduct is compared
    ("translation triple Aop glue moved to slots 0, 1", BIALGEBROID,
     "(0, 2, self._aop_glue)", "(0, 1, self._aop_glue)"),
    ("translation triple Aop glue dropped", BIALGEBROID,
     "[(0, 2, self._aop_glue), (1, 2, self._a_glue)]", "[(1, 2, self._a_glue)]"),
    # every balanced tensor reads coordinate k as the pure tensor words[k]
    ("pure-tensor words misread", ALGEBRAS,
     "zip(self.strides, self.shape))", "zip(self.strides[::-1], self.shape))"),
    # every map between quotients, and so between balanced tensors, is checked to descend
    ("induced_map descent check off", LINALG,
     "        if target.relations.decompose(", "        if False and target.relations.decompose("),
    ("descent on the first relation row only", LINALG,
     "for p, tail in source.relations.echelon:", "for p, tail in source.relations.echelon[:1]:"),
    # the duality command caps through the Koszul diagonal it checks
    ("duality diagonal check off", CLI,
     "dd.resolution.check_diagonal_chain_map()", "None"),
    # the axiom sweeps
    ("TakeuchiReport.sweep sees no witness", ERRORS,
     "witness = next(iter(witnesses), None)", "witness = None"),
] + [(f"ug_hopf_report {key} always true", PBW, f'"{key}": all(', f'"{key}": True or all(')
     for key in UG_HOPF_KEYS]

# survivors that cannot change a result, with the reason
EQUIVALENT = {
    "_reconstruct without its size bound":
        "_eliminate returns a candidate only once _certify has checked it exactly, and the"
        " certified reduced echelon form is unique; the bound only saves failed certificates",
}


def killed(copy: Path) -> str:
    """'killed', 'timeout' or 'SURVIVED' for one Tier-1 run in copy.

    tests/test_cert_sweep.py is left out: it checks that every old text is
    in place, which an applied mutant breaks by construction.
    """
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--ignore=tests/test_cert_sweep.py"]
    try:
        run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "killed" if run.returncode else "SURVIVED"


def main() -> int:
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for name, rel, old, new in MUTANTS:
            target = copy / rel
            original = target.read_text()
            if original.count(old) != 1:
                raise SystemExit(f"{name}: the old text occurs {original.count(old)} times in {rel}")
            target.write_text(original.replace(old, new))
            try:
                outcomes[name] = killed(copy)
            finally:
                target.write_text(original)
            if outcomes[name] == "SURVIVED" and name in EQUIVALENT:
                outcomes[name] = "equivalent"
            print(f"{outcomes[name]:10}  {name}", flush=True)
    for outcome in ("timeout", "equivalent", "SURVIVED"):
        names = [name for name, got in outcomes.items() if got == outcome]
        print(f"{len(names)} {outcome.lower()}: {', '.join(names) or 'none'}")
    return sum(got == "SURVIVED" for got in outcomes.values())


if __name__ == "__main__":
    sys.exit(main())

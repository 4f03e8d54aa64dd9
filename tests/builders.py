"""Test inputs that the package itself never builds.

regular_right is the right regular module of a finite dimensional
algebra; generator is a PBW generator of U(g) as a sparse element;
permute_instance rewrites an exported instance in a permuted basis of U.
"""

from hopfhomology.algebras import ModuleRep
from hopfhomology.linalg import unit_vec


def regular_right(algebra):
    """The algebra as a right module over itself: m . u = m u."""
    return ModuleRep(
        algebra,
        algebra.dim,
        "right",
        [algebra.right_mult_matrix(unit_vec(algebra.dim, i)) for i in range(algebra.dim)],
        validate=False,
    )


def generator(g, i):
    """The i-th generator of the Lie algebra g as a PBW monomial {exponents: 1}."""
    m = [0] * g.dim
    m[i] = 1
    return {tuple(m): 1}


def permute_instance(blob, perm):
    """An exported instance rewritten in a permuted basis of U.

    New basis element k is old element perm[k].  tail_basis is dropped,
    so the loader picks its tails from the permuted basis and the unit
    is no longer basis element 0.
    """
    U = blob["U"]
    n = U["dim"]
    mult = U["mult"]
    lift = blob["Delta_lift"]
    return {
        "U": {
            "dim": n,
            "labels": [U["labels"][p] for p in perm],
            "unit": [U["unit"][p] for p in perm],
            "mult": [[[mult[pi][pj][pk] for pk in perm] for pj in perm] for pi in perm],
        },
        "A": blob["A"],
        "eta": [blob["eta"][p] for p in perm],
        "Delta_lift": [[lift[pi * n + pj][pc] for pc in perm] for pi in perm for pj in perm],
        "epsilon_hat": [blob["epsilon_hat"][p] for p in perm],
    }

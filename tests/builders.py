"""Test inputs that the package itself never builds.

regular_right is the right regular module of a finite dimensional
algebra; generator is a PBW generator of U(g) as a sparse element.
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

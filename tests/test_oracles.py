from fractions import Fraction as Q

import pytest

from hopfhomology.algebras import FinDimAlgebra
from hopfhomology.errors import ValidationError
from hopfhomology.instances import (
    dual_numbers,
    lie_abelian,
    lie_nonabelian2,
    lie_sl2,
    q_times_q,
    symmetric3_group_algebra,
    upper_triangular2,
)
from hopfhomology.oracles import (
    hochschild_cochain_matrix,
    hochschild_cohomology_dims,
    hochschild_cup,
    hochschild_homology_dims,
    lie_cohomology_dims,
    lie_homology_dims,
)
from hopfhomology.pbw import LieModule


def test_hochschild_dual_numbers_profile():
    A = dual_numbers()
    assert hochschild_cohomology_dims(A, 3) == [2, 1, 1, 1]
    assert hochschild_homology_dims(A, 3) == [2, 1, 1, 1]


def test_hochschild_semisimple_vanishes():
    A = q_times_q()
    assert hochschild_cohomology_dims(A, 2) == [2, 0, 0]
    assert hochschild_homology_dims(A, 2) == [2, 0, 0]


def test_hochschild_hereditary_upper_triangular():
    A = upper_triangular2()
    assert hochschild_cohomology_dims(A, 2) == [1, 0, 0]
    # the chain complex trades the left and right faces: HH_0 = A/[A, A] has dimension 2
    assert hochschild_homology_dims(A, 2) == [2, 0, 0]


def test_hochschild_group_algebra_of_s3():
    # Maschke: Q[S3] is separable; HH^0 is its centre and HH_0 = A/[A, A],
    # both of dimension 3, the number of conjugacy classes
    A = symmetric3_group_algebra().U
    assert hochschild_cohomology_dims(A, 2) == [3, 0, 0]
    assert hochschild_homology_dims(A, 2) == [3, 0, 0]


def test_hochschild_rejects_a_non_associative_product():
    # e1 e1 = e2, e2 e1 = e1, e1 e2 = 0: (e1 e1) e1 = e1 but e1 (e1 e1) = 0,
    # so neither Hochschild differential squares to zero
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    zero = [0, 0, 0]
    mult = [e, [e[1], e[2], zero], [e[2], e[1], zero]]
    A = FinDimAlgebra(3, ["1", "x", "y"], mult, e[0], validate=False)
    with pytest.raises(ValidationError, match="d d != 0"):
        hochschild_cohomology_dims(A, 2)
    with pytest.raises(ValidationError, match="d d != 0"):
        hochschild_homology_dims(A, 2)


def test_hochschild_cup_euler_derivation_squares_to_zero_cochain():
    A = dual_numbers()
    D = [Q(0), Q(0), Q(0), Q(1)]  # the derivation eps -> eps
    d1 = hochschild_cochain_matrix(A, 1)
    assert all(x == 0 for x in d1.apply(D))
    sq = hochschild_cup(A, 1, 1, D, D)
    assert all(x == 0 for x in sq)


def test_hochschild_cup_with_unit_cochain():
    A = dual_numbers()
    # the 0-cochain valued at the unit is the cup unit at chain level
    unit0 = list(A.unit)
    D = [Q(0), Q(0), Q(0), Q(1)]
    c = hochschild_cup(A, 0, 1, unit0, D)
    assert c == D


def test_lie_cohomology_abelian_binomials():
    g = lie_abelian(2)
    triv = LieModule.trivial(g)
    assert lie_cohomology_dims(g, triv, 3) == [1, 2, 1, 0]


def test_lie_cohomology_whitehead_sl2():
    g = lie_sl2()
    triv = LieModule.trivial(g)
    assert lie_cohomology_dims(g, triv, 3) == [1, 0, 0, 1]


def test_lie_homology_twisted_nonabelian():
    g = lie_nonabelian2()
    tw = LieModule.weight_right(g, [Q(1), Q(0)])
    assert lie_homology_dims(g, tw, 2) == [0, 1, 1]
    triv = LieModule.trivial(g, side="right")
    assert lie_homology_dims(g, triv, 2) == [1, 1, 0]

from fractions import Fraction as Q

import pytest

from builders import regular_right
from hopfhomology.algebras import (
    FinDimAlgebra,
    ModuleRep,
    hom_basis_matrices,
    hom_over,
    tensor_over,
)
from hopfhomology.errors import ValidationError
from hopfhomology.instances import (
    dual_numbers,
    ground_field,
    q_times_q,
    symmetric3_group_algebra,
    s3_modules,
    upper_triangular2,
)
from hopfhomology.linalg import Matrix, unit_vec


def test_constructor_rejects_broken_associativity():
    # x * x = 1 but x * 1 = 0 is inconsistent with a unit
    mult = [
        [[1, 0], [0, 1]],
        [[0, 0], [1, 0]],
    ]
    with pytest.raises(ValidationError):
        FinDimAlgebra(2, ["1", "x"], mult, [1, 0])


def test_constructor_rejects_broken_module():
    A = dual_numbers()
    bad = [Matrix.identity(1), Matrix([[1]])]  # eps must act nilpotently
    with pytest.raises(ValidationError):
        ModuleRep(A, 1, "left", bad)


def test_enveloping_of_ground_field():
    k = ground_field()
    env = k.enveloping()
    assert env.dim == 1


def test_enveloping_dimension_squares():
    for A in (dual_numbers(), q_times_q(), upper_triangular2()):
        assert A.enveloping().dim == A.dim ** 2


def test_enveloping_dual_numbers_is_associative():
    env = dual_numbers().enveloping()
    env._validate()  # full sweep; raises on failure


def test_tensor_over_ground_field_is_plain_tensor():
    k = ground_field()
    M = ModuleRep(k, 2, "right", [Matrix.identity(2)])
    N = ModuleRep(k, 3, "left", [Matrix.identity(3)])
    q = tensor_over(k, M, N)
    assert q.dim == 6


def test_tensor_over_regular_gives_unit_isomorphism():
    A = upper_triangular2()
    reg = regular_right(A)
    for N_dim, N in (
        (3, ModuleRep.regular_left(A)),
    ):
        q = tensor_over(A, reg, N)
        assert q.dim == N_dim


def test_tensor_over_dual_numbers_bimodule():
    A = dual_numbers()
    right = regular_right(A)
    left = ModuleRep.regular_left(A)
    q = tensor_over(A, right, left)
    # A (x)_A A = A: relation span has rank 2 inside dimension 4
    assert q.relations.dim == 2
    assert q.dim == 2


def test_tensor_over_outer_action_descends():
    from hopfhomology.errors import NotWellDefinedError

    A = dual_numbers()
    right = regular_right(A)
    left = ModuleRep.regular_left(A)
    q = tensor_over(A, right, left)
    # outer left multiplication on the first factor commutes with the
    # inner relations and descends to multiplication on the quotient
    induced = [q.map_to(q, lambda w: {(k, w[1]): c for k, c in A.product(i, w[0]).items()}) for i in range(2)]
    assert induced[0] == Matrix.identity(q.dim)
    ModuleRep(A, q.dim, "left", induced)  # satisfies the module axioms
    # x (x) x -> 1 (x) 1 breaks the relation x (x) x ~ 1 (x) x^2 = 0,
    # the second echelon row after 1 (x) x - x (x) 1
    assert [p for p, _ in q.relations.echelon] == [1, 3]
    with pytest.raises(NotWellDefinedError):
        q.map_to(q, lambda w: {(0, 0): 1} if w == (1, 1) else {})


def test_hom_over_free_module():
    A = upper_triangular2()
    reg = ModuleRep.regular_left(A)
    N = ModuleRep.regular_left(A)
    homs = hom_over(A, reg, N)
    # Hom_A(A, N) = N via evaluation at 1
    assert homs.dim == N.dim


def test_hom_over_ground_field_is_all_matrices():
    k = ground_field()
    M = ModuleRep(k, 2, "left", [Matrix.identity(2)])
    N = ModuleRep(k, 3, "left", [Matrix.identity(3)])
    assert hom_over(k, M, N).dim == 6


def test_hom_qs3_trivial_into_regular_is_one_dimensional():
    data = symmetric3_group_algebra()
    mods = s3_modules(data)
    homs = hom_over(data.U, mods["trivial"], mods["regular"])
    assert homs.dim == 1
    (mat,) = hom_basis_matrices(homs, 6, 1)
    col = mat.col(0)
    assert len({c for c in col}) == 1  # the symmetrizer direction


def test_hom_tensor_unit_isomorphisms_natural():
    # Hom_A(A, N) = N and A (x)_A N = N via explicit mutually inverse maps
    A = dual_numbers()
    N = ModuleRep.regular_left(A)
    homs = hom_over(A, ModuleRep.regular_left(A), N)
    mats = hom_basis_matrices(homs, N.dim, A.dim)
    # a module map out of the free rank one module is recovered from its
    # value at the unit: f(a) = a . f(1)
    for m in mats:
        v = m.apply(A.unit)
        rebuilt = Matrix.from_cols(
            [N.act(unit_vec(A.dim, j)).apply(v) for j in range(A.dim)], nrows=N.dim
        )
        assert rebuilt == m
    q = tensor_over(A, regular_right(A), N)
    assert q.dim == N.dim
    # 1 (x) n and its canonical coordinates are mutually inverse
    for j in range(N.dim):
        amb = [Q(0)] * (A.dim * N.dim)
        for p, c in enumerate(A.unit):
            amb[p * N.dim + j] += c
        coords = q.project(amb)
        back = q.lift(coords)
        assert q.project(back) == coords

import random
from fractions import Fraction as Q

import pytest

from hopfhomology.errors import NotWellDefinedError
from hopfhomology.linalg import (
    Matrix,
    Subspace,
    induced_map,
    quotient,
    sparse_rank,
    unit_vec,
)


def bareiss_rank(rows):
    """Fraction-free Gaussian elimination (Bareiss), used as an oracle.

    Integer input, rank only.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def test_rref_zero_matrix():
    R, pivots = Matrix([[0, 0], [0, 0]]).rref()
    assert R == Matrix([[0, 0], [0, 0]])
    assert pivots == []


def test_rref_rank_one():
    R, pivots = Matrix([[2, 4], [1, 2]]).rref()
    assert R == Matrix([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_idempotent_and_rank_matches_bareiss():
    rng = random.Random(7)
    for _ in range(12):
        rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
        m = Matrix(rows)
        R, pivots = m.rref()
        again, pivots2 = R.rref()
        assert R == again
        assert pivots == pivots2
        assert len(pivots) == bareiss_rank(rows)


def test_rank_nullity_exact():
    rng = random.Random(11)
    for _ in range(10):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)]
        m = Matrix(rows)
        assert m.kernel().nrows + m.rank() == m.ncols


def test_kernel_identity_and_zero():
    assert Matrix.identity(3).kernel().nrows == 0
    k = Matrix.zeros(2, 3).kernel()
    assert k.nrows == 3


def test_kernel_hand_example():
    k = Matrix([[1, 1, 0], [0, 1, 1]]).kernel()
    assert k.nrows == 1
    assert k.rows[0] == [Q(1), Q(-1), Q(1)]


def test_solve_identity():
    m = Matrix.identity(3)
    assert m.solve([Q(1), Q(2), Q(3)]) == [Q(1), Q(2), Q(3)]


def test_solve_free_variable_canonical():
    m = Matrix([[1, 1]])
    assert m.solve([Q(2)]) == [Q(2), Q(0)]


def test_solve_inconsistent_returns_none():
    m = Matrix([[1], [1]])
    assert m.solve([Q(1), Q(2)]) is None


def test_solve_exactness_random():
    rng = random.Random(3)
    for _ in range(10):
        m = Matrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(5)])
        x = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)]
        b = m.apply(x)
        v = m.solve(b)
        assert v is not None
        assert m.apply(v) == b


def test_inverse_roundtrip():
    m = Matrix([[1, 2], [3, 5]])
    assert m @ m.inverse() == Matrix.identity(2)
    assert m.inverse() @ m == Matrix.identity(2)


def test_quotient_no_relations_is_identity():
    q = quotient(3, [])
    assert q.dim == 3
    v = [Q(1), Q(2), Q(3)]
    assert q.project(v) == v
    assert q.lift(q.project(v)) == v


def test_quotient_diagonal_relation():
    q = quotient(2, [[Q(1), Q(-1)]])
    assert q.dim == 1
    assert q.project([Q(1), Q(0)]) == q.project([Q(0), Q(1)])


def test_quotient_project_lift_identity_random():
    rng = random.Random(5)
    rels = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
    q = quotient(4, rels)
    assert q.dim == 4 - q.relations.dim
    for _ in range(8):
        coords = [Q(rng.randint(-5, 5)) for _ in range(q.dim)]
        assert q.project(q.lift(coords)) == coords
        v = [Q(rng.randint(-5, 5)) for _ in range(4)]
        diff = [a - b for a, b in zip(q.lift(q.project(v)), v)]
        assert q.relations.contains(diff)


def test_induced_map_identity():
    q = quotient(3, [[1, 1, 1]])
    assert induced_map(lambda j: {j: 1}, q, q) == Matrix.identity(2)


def test_induced_map_not_well_defined():
    # e_j -> (j + 1) e_j sends the relation e_0 - e_1 to e_0 - 2 e_1
    src = quotient(2, [[1, -1]])
    tgt = quotient(2, [[1, -1]])
    with pytest.raises(NotWellDefinedError):
        induced_map(lambda j: {j: j + 1}, src, tgt)


def test_induced_map_algebra_quotient_oracle():
    # Q[x]/(x^4) modulo the ideal (x^2); induced multiplication-by-x must
    # agree with the structure constants of Q[x]/(x^2).
    amb = 4
    q = quotient(amb, [unit_vec(amb, 2), unit_vec(amb, 3)])
    ind = induced_map(lambda j: {j + 1: 1} if j + 1 < amb else {}, q, q)
    assert ind == Matrix([[0, 0], [1, 0]])


def test_sparse_rank_matches_dense_rank():
    rng = random.Random(13)
    rows = []
    dense = []
    for _ in range(8):
        r = [rng.randint(-2, 2) if rng.random() < 0.4 else 0 for _ in range(7)]
        dense.append(r)
        rows.append({j: Q(x) for j, x in enumerate(r) if x})
    assert sparse_rank(rows) == Matrix(dense).rank() == bareiss_rank(dense)


def test_subspace_membership():
    span = Subspace.from_vectors([[1, 1, 0], [0, 1, 1]], 3)
    assert span.contains([Q(1), Q(0), Q(-1)])
    assert not span.contains([Q(1), Q(0), Q(0)])

"""Generated matrices cross-examine the sparse elimination kernel.

The oracle is the dense Gauss-Jordan that Matrix.rref used before the
sparse kernel replaced it: first nonzero entry as pivot, every row
updated.  The reduced row echelon form is unique, so both must agree
exactly, pivots included.  The kernel of sparse rows is checked against
the dense kernel built on that oracle, Subspace and QuotientSpace on
their echelon pairs against the dense Subspace they replaced, the
sparse induced_map against the dense one it replaced, and lincomb
against the fold out + c * m that it replaced.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfhomology.errors import NotWellDefinedError
from hopfhomology.linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    _dense_rows,
    induced_map,
    lincomb,
    quotient,
    sparse_kernel,
    sparse_rank,
)

MAX_DIM = 9


def dense_rref(rows, ncols):
    """Reference rref of a list of rows: (reduced rows, pivot columns)."""
    m = [row[:] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        if pv != 1:
            inv = Q(1) / pv
            m[r] = [x * inv for x in m[r]]
        row_r = m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                mi = m[i]
                for j in range(c, ncols):
                    if row_r[j]:
                        mi[j] -= f * row_r[j]
        pivots.append(c)
        r += 1
    return m, pivots


# every p/q in [-3, 3] with q <= 4, simplest first, so zero leads and
# shrinking heads for it; sampling a fixed list is much cheaper to draw
# than st.fractions over the same values
VALUES = st.sampled_from(sorted({Q(p, q) for q in range(1, 5) for p in range(-3 * q, 3 * q + 1)},
                                key=lambda x: (x.denominator, abs(x), x < 0)))


@st.composite
def matrices(draw):
    """Rational matrices up to MAX_DIM x MAX_DIM, sparse or dense.

    Rows are fresh, zero, or a multiple of an earlier row plus a
    multiple of another, so repeated rows and rank deficiency are common.
    """
    nrows = draw(st.integers(0, MAX_DIM))
    ncols = draw(st.integers(0, MAX_DIM))
    if draw(st.booleans()):
        entry = st.one_of(st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), VALUES)
    else:
        entry = VALUES
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combine"]))
        if kind == "zero":
            rows.append([Q(0)] * ncols)
        elif kind == "combine" and rows:
            a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            s, t = draw(VALUES), draw(VALUES)
            rows.append([s * x + t * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return Matrix(rows, ncols=ncols)


def vectors(n):
    return st.lists(VALUES, min_size=n, max_size=n)


def rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


@given(matrices())
def test_rref_matches_dense_oracle_and_is_reduced(A):
    R, pivots = A.rref()
    expect_rows, expect_pivots = dense_rref(A.rows, A.ncols)
    assert pivots == expect_pivots
    assert (R.nrows, R.ncols) == (A.nrows, A.ncols)
    assert R.rows == expect_rows
    assert pivots == sorted(set(pivots))
    for i, row in enumerate(R.rows):
        if i >= len(pivots):
            assert all(x == 0 for x in row)
            continue
        p = pivots[i]
        assert all(x == 0 for x in row[:p])
        assert row[p] == 1
        for k, q in enumerate(pivots):
            if k != i:
                assert row[q] == 0


@given(matrices())
def test_kernel_is_annihilated_and_rank_equals_sparse_rank(A):
    sparse = [{j: x for j, x in enumerate(row) if x} for row in A.rows]
    assert A.rank() == sparse_rank(sparse) == rank(A.rows, A.ncols)
    K = A.kernel()
    assert K.nrows == A.ncols - A.rank()
    for k in K.rows:
        assert all(x == 0 for x in A.apply(k))


@given(st.data())
def test_solve_exactly_on_the_column_space(data):
    A = data.draw(matrices())
    b = A.apply(data.draw(vectors(A.ncols)))
    x = A.solve(b)
    assert x is not None
    assert A.apply(x) == b
    b = data.draw(vectors(A.nrows))
    x = A.solve(b)
    if rank([r + [c] for r, c in zip(A.rows, b)], A.ncols + 1) == rank(A.rows, A.ncols):
        assert x is not None
        assert A.apply(x) == b
    else:
        assert x is None


def dense_kernel(rows, ncols):
    """Reference kernel basis: free-column vectors of the oracle rref, in rref."""
    R, pivots = dense_rref(rows, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Q(0)] * ncols
        v[j] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][j]
        basis.append(v)
    reduced, _ = dense_rref(basis, ncols)
    return [row for row in reduced if any(row)]


@given(matrices())
@example(Matrix.identity(4))
@example(Matrix([], ncols=0))
@example(Matrix([[0, 0, 0]] * 3))
@example(Matrix([[1], [2]]))
def test_sparse_kernel_matches_dense_oracle(A):
    K = sparse_kernel(A.sparse_rows(), A.ncols)
    assert K.ambient_dim == A.ncols
    assert echelon_rows(K) == dense_kernel(A.rows, A.ncols)
    assert A.kernel() == Matrix(echelon_rows(K), ncols=A.ncols)


def echelon_rows(sub):
    """The dense rows of a Subspace's (pivot, tail) echelon."""
    rows = []
    for p, tail in sub.echelon:
        row = [Q(0)] * sub.ambient_dim
        row[p] = Q(1)
        for j, a in tail.items():
            row[j] = a
        rows.append(row)
    return rows


class DenseSubspace:
    """The Subspace that kept dense rref rows, on the oracle rref."""

    def __init__(self, ambient_dim, rows):
        self.ambient_dim = ambient_dim
        reduced, self.pivots = dense_rref(rows, ambient_dim)
        self.basis = reduced[: len(self.pivots)]

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, v):
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for j in range(p, self.ambient_dim):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def contains(self, v):
        return all(x == 0 for x in self.reduce(v))

    def coordinates(self, v):
        coords = []
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            coords.append(c)
            if c:
                for j in range(p, self.ambient_dim):
                    if row[j]:
                        v[j] -= c * row[j]
        if not all(x == 0 for x in v):
            return None
        return coords

    def project(self, v):
        """QuotientSpace.project: the reduced vector at the non-pivot columns."""
        reduced = self.reduce(v)
        return [reduced[j] for j in range(self.ambient_dim) if j not in self.pivots]


@given(st.data())
def test_subspace_and_quotient_match_dense_oracle(data):
    A = data.draw(matrices())
    sub = Subspace.from_vectors(A.rows, A.ncols)
    oracle = DenseSubspace(A.ncols, A.rows)
    assert sub.dim == oracle.dim
    assert sub.pivots == oracle.pivots
    assert echelon_rows(sub) == oracle.basis
    quotient = QuotientSpace(A.ncols, sub)
    coefficients = data.draw(vectors(A.nrows))
    inside = [sum((c * row[j] for c, row in zip(coefficients, A.rows)), Q(0)) for j in range(A.ncols)]
    for v in (data.draw(vectors(A.ncols)), inside, [Q(0)] * A.ncols):
        assert sub.contains(v) == oracle.contains(v)
        assert sub.coordinates(v) == oracle.coordinates(v)
        assert quotient.project(v) == oracle.project(v)


def dense_induced_map(f, source, target):
    """The induced_map that took the ambient map as a dense Matrix f."""
    if f.ncols != source.ambient_dim or f.nrows != target.ambient_dim:
        raise ValueError("ambient shape mismatch")
    for row in _dense_rows(source.relations.echelon, source.ambient_dim):
        if not target.relations.contains(f.apply(row)):
            raise NotWellDefinedError("map does not preserve the relation subspace")
    return Matrix.from_cols([target.project(f.col(j)) for j in source.reps], nrows=target.dim)


@st.composite
def quotient_maps(draw):
    """(f, source, target, preserved): an ambient map f between two random quotients.

    With preserved, the target relations include the image under f of
    the source relations, so f descends; otherwise it may or may not.
    """
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(Q(0)), VALUES)
    f = Matrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)), ncols=n)
    source_rels = draw(st.lists(vectors(n), max_size=4))
    target_rels = draw(st.lists(st.lists(entry, min_size=m, max_size=m), max_size=3))
    preserved = draw(st.booleans())
    if preserved:
        target_rels += [f.apply(r) for r in source_rels]
    return f, quotient(n, source_rels), quotient(m, target_rels), preserved


@given(quotient_maps())
@example((Matrix([[1, 0], [0, 2]]), quotient(2, [[1, -1]]), quotient(2, [[1, -1]]), False))
def test_induced_map_matches_dense_oracle(case):
    f, source, target, preserved = case
    image = f.transpose().sparse_rows().__getitem__  # column j of f, sparse
    try:
        expect = dense_induced_map(f, source, target)
    except NotWellDefinedError:
        assert not preserved
        with pytest.raises(NotWellDefinedError):
            induced_map(image, source, target)
    else:
        assert induced_map(image, source, target) == expect


def lincomb_fold(terms, nrows, ncols):
    """The sum that lincomb computed before it accumulated in place."""
    out = Matrix.zeros(nrows, ncols)
    for c, m in terms:
        if c:
            out = out + m.scale(c)
    return out


COEFFICIENTS = st.one_of(
    st.just(0), st.just(Q(0)), st.integers(-3, 3), VALUES, st.just(Q(7, 3))
)


@st.composite
def combinations(draw):
    """A shape and up to five (coefficient, matrix) terms of that shape."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        rows = draw(st.lists(st.lists(VALUES, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        terms.append((draw(COEFFICIENTS), Matrix(rows, ncols=ncols)))
    return nrows, ncols, terms


@given(combinations())
@example((2, 2, [(1, Matrix([[1, 2], [3, 4]]))]))
@example((2, 2, [(0, Matrix([[1, 0], [0, 1]])), (Q(1), Matrix([[0, 5], [Q(1, 2), 0]]))]))
@example((0, 3, []))
def test_lincomb_matches_fold_and_shares_no_rows(case):
    nrows, ncols, terms = case
    before = [[row[:] for row in m.rows] for _, m in terms]
    out = lincomb(terms, nrows, ncols)
    assert out == lincomb_fold(terms, nrows, ncols)
    assert all(type(x) in (int, Q) for row in out.rows for x in row)
    for row in out.rows:
        for j in range(ncols):
            row[j] += 1
    assert [m.rows for _, m in terms] == before

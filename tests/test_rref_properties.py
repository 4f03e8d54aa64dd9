"""Generated matrices cross-examine the sparse elimination kernel.

The oracle is the dense Gauss-Jordan that Matrix.rref used before the
sparse kernel replaced it: first nonzero entry as pivot, every row
updated.  The reduced row echelon form is unique, so both must agree
exactly, pivots included.
"""

from fractions import Fraction as Q

from hypothesis import given
from hypothesis import strategies as st

from hopfhomology.linalg import Matrix, sparse_rank

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


VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


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

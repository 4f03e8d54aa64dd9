"""The rare paths of the certified modular elimination, against the dense oracle.

With the prime sequence started near 2**7, small matrices reach what
the primes below 2**30 almost never meet: an unlucky prime, a prime
dividing an input denominator, rref entries too tall for one prime, and
a certificate that must refuse a wrong candidate.  Every result is
compared with dense_rref, the Fraction Gauss-Jordan reference.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_rref_properties import dense_rref

from hopfhomology import linalg
from hopfhomology.linalg import Matrix, _certify, _eliminate, _reconstruct, sparse_rank

P = 131  # the first prime of the sequence in these tests, about 2**7


@pytest.fixture
def drawn(monkeypatch):
    """Start the primes at P; the list records each prime eliminated with."""
    primes = []
    eliminate_mod = linalg._rref_mod

    def recording(rows, p):
        primes.append(p)
        return eliminate_mod(rows, p)

    monkeypatch.setattr(linalg, "_FIRST_PRIME", P)
    monkeypatch.setattr(linalg, "_rref_mod", recording)
    return primes


def sparse(rows):
    return [{j: Q(x) for j, x in enumerate(row) if x} for row in rows]


def assert_matches_oracle(rows, ncols):
    rows = [[Q(x) for x in row] for row in rows]
    R, pivots = Matrix(rows, ncols=ncols).rref()
    expect_rows, expect_pivots = dense_rref(rows, ncols)
    assert pivots == expect_pivots
    assert R.rows == expect_rows


def test_unlucky_prime_is_replaced(drawn):
    # both rows agree mod P, so P sees rank 1; the certificate refuses it
    rows = [[1, 1], [1, 1 + P]]
    assert_matches_oracle(rows, 2)
    assert drawn[0] == P and len(drawn) >= 2
    assert sparse_rank(sparse(rows)) == 2


def test_prime_dividing_a_denominator_is_skipped(drawn):
    rows = [[1, Q(1, P), 0], [2, 3, Q(5, P)]]
    assert_matches_oracle(rows, 3)
    assert drawn[0] == P
    assert linalg._rref_mod(sparse(rows), P) is None


def test_tall_entries_combine_several_primes(drawn):
    # 100/7 and -1000/3 need numerators above sqrt(P/2) ~ 8
    rows = [[7, 100, 0], [3, 0, -1000], [10, 100, -1000]]
    assert_matches_oracle(rows, 3)
    assert len(set(drawn)) >= 3
    assert drawn == sorted(drawn, reverse=True)


def test_certificate_refuses_one_corrupted_entry(drawn):
    rows = sparse([[2, 4, 1, 0, 3], [1, 2, 0, 1, 0], [0, 0, 1, -2, 3], [3, 6, 1, 1, 3]])
    reduced = _eliminate(rows)
    assert _certify(rows, reduced)
    entries = [(k, j) for k, (_, tail) in enumerate(reduced) for j in tail]
    assert entries
    for k, j in entries:
        for wrong in (reduced[k][1][j] + 1, reduced[k][1][j] + Q(1, P), Q(0)):
            corrupted = [(p, dict(tail)) for p, tail in reduced]
            corrupted[k][1][j] = wrong
            assert not _certify(rows, corrupted)
    # an entry where the rref has none
    corrupted = [(p, dict(tail)) for p, tail in reduced]
    free = next(j for j in range(5) if j not in {p for p, _ in reduced} and j not in reduced[0][1])
    corrupted[0][1][free] = Q(1)
    assert not _certify(rows, corrupted)


def test_reconstruct_gives_int_for_unit_denominators():
    m = linalg._FIRST_PRIME
    values = [Q(3), Q(-5), Q(1), Q(2, 3), Q(-7, 4), Q(1, -2)]
    residues = {j: x.numerator * pow(x.denominator, -1, m) % m for j, x in enumerate(values)}
    (_, rec), = _reconstruct([(0, residues)], m)
    assert [rec[j] for j in range(len(values))] == values
    assert [type(rec[j]) for j in range(len(values))] == [int] * 3 + [Q] * 3
    # the same through the elimination, on an integral and a rational rref
    reduced = _eliminate(sparse([[1, 2, 3], [0, 1, 4]]))
    assert reduced == [(0, {2: -5}), (1, {2: 4})]
    assert all(type(c) is int for _, tail in reduced for c in tail.values())
    (_, tail), = _eliminate(sparse([[3, 1, -6]]))
    assert tail == {1: Q(1, 3), 2: -2}
    assert (type(tail[1]), type(tail[2])) == (Q, int)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.data())
def test_small_primes_match_dense_oracle(data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_FIRST_PRIME", P)
        ncols = data.draw(st.integers(0, 5))
        rows = data.draw(st.lists(st.lists(SMALL, min_size=ncols, max_size=ncols), max_size=5))
        assert_matches_oracle(rows, ncols)


TALL = st.builds(
    Q, st.integers(-(10 ** 20), 10 ** 20), st.integers(1, 10 ** 20)
) | st.just(Q(0))


@given(st.data())
def test_large_height_rationals_match_dense_oracle(data):
    ncols = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(TALL, min_size=ncols, max_size=ncols), max_size=5))
    assert_matches_oracle(rows, ncols)

import io
import random
import weakref
from contextlib import redirect_stdout
from fractions import Fraction as Q
from itertools import chain

import pytest

from hopfhomology import complexes, homology, linalg
from hopfhomology.cli import run
from hopfhomology.complexes import HomologySpace, homology_dims
from hopfhomology.errors import ValidationError
from hopfhomology.linalg import Matrix, modular_rank, sparse_rank


def test_d_squared_enforced_at_construction():
    # Q -1-> Q -1-> Q: the image of d_2 in degree 1 is not a cycle of d_1
    with pytest.raises(ValidationError):
        HomologySpace(1, Matrix([[1]]).sparse_rows(), Matrix([[1]]).transpose().sparse_rows())


def test_homology_dims_enforce_d_squared():
    # V_0 -> V_1 -> V_2 -> V_3 as columns: x -> (x, -x) then (a, b) -> a + b
    # compose to zero; c -> 2c after them leaves (a, b) -> 2a + 2b != 0
    first = [{0: Q(1), 1: Q(-1)}]
    second = [{0: Q(1)}, {0: Q(1)}]
    assert homology_dims([1, 2, 1], [first, second]) == [0, 0, 0]
    third = [{0: Q(2)}]
    with pytest.raises(ValidationError):
        homology_dims([1, 2, 1, 1], [first, second, third])
    with pytest.raises(ValidationError):
        homology_dims([1, 1, 1], [[{0: Q(1)}], [{0: Q(1)}]])
    assert homology_dims([1, 1, 1], [[{0: Q(1)}], [{}]]) == [0, 0, 1]
    # rational entries: x -> (x/2, -x/3), then (a, b) -> 2a/3 + b composes
    # to 1/3 - 1/3 = 0, while (a, b) -> 2a/3 + b/2 leaves 1/3 - 1/6 = 1/6
    halves_thirds = [{0: Q(1, 2), 1: Q(-1, 3)}]
    assert homology_dims([1, 2, 1], [halves_thirds, [{0: Q(2, 3)}, {0: Q(1)}]]) == [0, 0, 0]
    with pytest.raises(ValidationError):
        homology_dims([1, 2, 1], [halves_thirds, [{0: Q(2, 3)}, {0: Q(1, 2)}]])
    # the identity Q^2 -> Q^2 then (a, b) -> b: only the second kept column
    # of the identity is not killed
    with pytest.raises(ValidationError):
        homology_dims([2, 2, 1], [[{0: 1}, {1: 1}], [{}, {0: 1}]])


def test_homology_dims_drops_each_map_before_the_next_is_built():
    # the maps come from a generator; when it is asked for the next map, no
    # earlier map is referenced any more (their kept columns may be)
    class Map(list):
        pass

    built = []

    def maps():
        for cols in ([{0: 1, 1: -1}], [{0: 1}, {0: 1}], [{}]):
            assert all(ref() is None for ref in built)
            m = Map(cols)
            built.append(weakref.ref(m))
            yield m
            del m

    assert homology_dims([1, 2, 1, 1], maps()) == [0, 0, 0, 1]
    assert len(built) == 3


@pytest.fixture
def certified(monkeypatch):
    """The kept columns homology_dims ranks through the certified _eliminate, in order.

    The fallback continues from the forward pass of the kept columns' rank
    mod p; its rank must still be sparse_rank of the full, uncleared map,
    which is the map homology_dims took last before that pass.
    """
    ranked, taken, full = [], [], {}

    def walked(*maps):
        for cols in chain(*maps):
            taken.append(cols)
            yield cols

    def first_echelon(kept):
        first = linalg._first_echelon(kept)
        full[id(first)] = taken[-1]
        return first

    def recording(kept, first):
        ranked.append(kept)
        reduced = linalg._eliminate(kept, first)
        assert len(reduced) == sparse_rank(full[id(first)])
        return reduced

    monkeypatch.setattr(complexes, "chain", walked)
    monkeypatch.setattr(complexes, "_first_echelon", first_echelon)
    monkeypatch.setattr(complexes, "_eliminate", recording)
    return ranked


def test_unlucky_prime_falls_back_to_the_certified_rank(certified):
    # x -> (p x, 0) then (a, b) -> b, with p the first elimination prime:
    # the first map has rank 1 over Q and 0 mod p, so no position next to
    # it is exact mod p; the second map ends at an exact position
    p = linalg._FIRST_PRIME
    first = [{0: p}]
    second = [{}, {0: 1}]
    assert modular_rank(first) == 0 < sparse_rank(first)
    assert homology_dims([1, 2, 1], [first, second]) == [0, 0, 0]
    assert certified == [[{0: p}]]


def test_fallback_continues_from_the_forward_pass_of_its_rank_mod_p(monkeypatch):
    # the unlucky-prime complex again: no forward pass runs twice on the
    # same rows with the same prime
    p = linalg._FIRST_PRIME
    passes = []
    echelon = linalg._echelon_mod

    def recording(rows, q):
        passes.append((repr(rows), q))
        return echelon(rows, q)

    monkeypatch.setattr(linalg, "_echelon_mod", recording)
    first = [{0: p}]
    assert homology_dims([1, 2, 1], [first, [{}, {0: 1}]]) == [0, 0, 0]
    assert (repr([{0: p}]), p) in passes
    assert len(passes) == len(set(passes))


def test_denominator_divisible_by_the_first_prime_skips_to_the_next(certified, monkeypatch):
    p = linalg._FIRST_PRIME
    drawn = []
    echelon = linalg._echelon_mod

    def recording(rows, q):
        drawn.append(q)
        return echelon(rows, q)

    monkeypatch.setattr(linalg, "_echelon_mod", recording)
    first = [{0: Q(1, p), 1: Q(-1, p)}]
    second = [{0: 1}, {0: 1}]
    assert modular_rank(first) == 1
    assert drawn[0] == p and drawn[1] < p and len(drawn) == 2
    assert homology_dims([1, 2, 1], [first, second]) == [0, 0, 0]
    assert certified == []


def test_clearing_drops_the_pivots_mod_p_not_over_q(certified):
    # x -> (p x, x) then (a, b) -> a - p b, with p the first elimination
    # prime: over Q the first map's echelon pivots on a, mod p on b, so
    # clearing keeps the column of a, which has rank 1 mod p, and no map
    # falls back; keeping the column of b (-p) would leave rank 0 mod p
    p = linalg._FIRST_PRIME
    first = [{0: p, 1: 1}]
    second = [{0: 1}, {0: -p}]
    assert homology_dims([1, 2, 1], [first, second]) == [0, 0, 0]
    assert certified == []


def _rescaled(dims, maps, rng):
    """The same complex after scaling every basis vector by a seeded nonzero rational."""
    scale = [[Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(c)]
             for c in dims]
    return [
        [{j: a * scale[i + 1][j] / scale[i][k] for j, a in col.items()}
         for k, col in enumerate(cols)]
        for i, cols in enumerate(maps)
    ]


CATALOG_COMPLEXES = [
    ["ext", "qs3", "--module", "std2", "--max-degree", "3"],
    ["ext", "qs3", "--module", "trivial", "--max-degree", "2"],
    ["tor", "qs3", "--module", "trivial", "--max-degree", "3"],
    ["ext", "sweedler", "--module", "trivial", "--max-degree", "4"],
    ["ext", "sweedler", "--module", "sign", "--max-degree", "4"],
    ["tor", "sweedler", "--module", "trivial", "--max-degree", "3"],
    ["ext", "kz3", "--module", "plane", "--max-degree", "3"],
    ["ext", "env-qeps", "--module", "A", "--max-degree", "3"],
    ["tor", "env-upper2", "--module", "A", "--max-degree", "3"],
    ["ext", "lie-sl2", "--module", "adjoint", "--max-degree", "3"],
    ["tor", "lie-nonabelian2", "--module", "trivial", "--max-degree", "2"],
    ["ext", "lie-nonabelian2", "--module", "adjoint", "--max-degree", "2",
     "--resolution", "bar", "--pbw-bound", "5"],
]


@pytest.mark.parametrize("argv", CATALOG_COMPLEXES, ids=" ".join)
def test_catalog_ranks_match_the_certified_rank(argv, monkeypatch):
    # every complex ext and tor hand to homology_dims, as built and in a
    # seeded rescaled basis (denominators included), gives the dims of
    # the certified ranks; from those dims the ranks follow one by one
    seen = []

    def recording(dims, maps):
        maps = list(maps)
        seen.append((dims, maps))
        return homology_dims(dims, maps)

    monkeypatch.setattr(homology, "homology_dims", recording)
    with redirect_stdout(io.StringIO()):
        assert run(argv) == 0
    assert len(seen) == 1
    dims, maps = seen[0]
    ranks = [0] + [sparse_rank(cols) for cols in maps] + [0]
    expect = [c - ranks[i] - ranks[i + 1] for i, c in enumerate(dims)]
    assert homology_dims(dims, maps) == expect
    rng = random.Random(" ".join(argv))
    assert homology_dims(dims, _rescaled(dims, maps, rng)) == expect
    # clearing: the forward passes come in order, one per map and one for
    # the zero map past the end; where the homology vanishes, the map out
    # of that position is left exactly as many columns as its rank
    echelon, fed = linalg._echelon_mod, []

    def feeding(rows, p):
        fed.append(len(rows))
        return echelon(rows, p)

    monkeypatch.setattr(linalg, "_echelon_mod", feeding)
    for complex_maps in (maps, _rescaled(dims, maps, random.Random(" ".join(argv)))):
        fed.clear()
        homology_dims(dims, complex_maps)
        assert [fed[i] for i, dim in enumerate(expect) if dim == 0] == [
            ranks[i + 1] for i, dim in enumerate(expect) if dim == 0]


def test_homology_of_identity_complex_vanishes():
    # homology_dims reads C_1 -> C_0 as its columns
    h1, h0 = homology_dims([1, 1], [Matrix([[1]]).transpose().sparse_rows()])
    assert h0 == 0
    assert h1 == 0


def test_homology_zero_differentials():
    h1, h0 = homology_dims([3, 2], [Matrix.zeros(2, 3).transpose().sparse_rows()])
    assert h0 == 2
    assert h1 == 3


def test_truncated_multiplication_complex():
    # multiplication by x from span(1..x^{N-2}) to span(1..x^{N-1})
    N = 5
    d = Matrix.zeros(N, N - 1)
    for i in range(N - 1):
        d.rows[i + 1][i] = Q(1)
    h1, h0 = homology_dims([N - 1, N], [d.transpose().sparse_rows()])
    assert h1 == 0
    assert h0 == 1


def test_homology_class_extraction():
    # 0 -> Q^2 -> Q^2 with d = [[0,0],[1,0]]: kernel span{e2}, image span{e2}
    d = Matrix([[0, 0], [1, 0]])
    h0 = HomologySpace(2, [], d.transpose().sparse_rows())
    assert h0.dim == 1
    h1 = HomologySpace(2, d.sparse_rows(), [])
    assert h1.dim == 1
    rep = h1.representative(0)
    assert d.apply(rep) == [Q(0), Q(0)]
    assert h1.class_of(rep) == [Q(1)]

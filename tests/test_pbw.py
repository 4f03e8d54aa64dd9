import random
from fractions import Fraction as Q

import pytest

from builders import generator
from hopfhomology.duality import detect_duality_ug
from hopfhomology.errors import ValidationError
from hopfhomology.instances import lie_abelian, lie_nonabelian2, lie_sl2
from hopfhomology.linalg import Matrix
from hopfhomology.pbw import (
    LieAlgebraData,
    LieModule,
    delta_mono,
    mono_mul,
    monomials_upto,
    pbw_multiply,
    tensor_left_lie,
    tensor_right_lie,
    translation_mono,
    ug_hopf_report,
)


def test_lie_data_rejects_nonantisymmetric():
    c = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
    with pytest.raises(ValidationError):
        LieAlgebraData(2, c)


def test_lie_data_rejects_jacobi_failure():
    # [x,y] = z, [y,z] = x, [x,z] = x violates Jacobi
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1] = [0, 0, 1]
    c[1][0] = [0, 0, -1]
    c[1][2] = [1, 0, 0]
    c[2][1] = [-1, 0, 0]
    c[0][2] = [1, 0, 0]
    c[2][0] = [-1, 0, 0]
    with pytest.raises(ValidationError):
        LieAlgebraData(3, c)


def test_abelian_multiplication_is_polynomial():
    g = lie_abelian(2)
    u = {(1, 0): Q(1)}
    v = {(0, 1): Q(2)}
    assert pbw_multiply(g, u, v) == {(1, 1): Q(2)}
    assert pbw_multiply(g, v, u) == {(1, 1): Q(2)}


def test_nonabelian_single_straightening_step():
    g = lie_nonabelian2()
    y, x = generator(g, 1), generator(g, 0)
    assert pbw_multiply(g, y, x) == {(1, 1): Q(1), (0, 1): Q(-1)}


def test_sl2_associativity_on_random_words():
    g = lie_sl2()
    rng = random.Random(17)
    monos = monomials_upto(3, 3)
    for _ in range(30):
        u = {rng.choice(monos): Q(rng.randint(-3, 3))}
        v = {rng.choice(monos): Q(rng.randint(-3, 3))}
        w = {rng.choice(monos): Q(rng.randint(-3, 3))}
        assert pbw_multiply(g, pbw_multiply(g, u, v), w) == pbw_multiply(
            g, u, pbw_multiply(g, v, w)
        )


def test_confluence_two_association_orders():
    g = lie_sl2()
    monos = [m for m in monomials_upto(3, 2) if sum(m)]
    for a in monos:
        for b in monos:
            for c in monos:
                lhs = pbw_multiply(g, pbw_multiply(g, {a: Q(1)}, {b: Q(1)}), {c: Q(1)})
                rhs = pbw_multiply(g, {a: Q(1)}, pbw_multiply(g, {b: Q(1)}, {c: Q(1)}))
                assert lhs == rhs


def test_coproduct_binomial():
    g = lie_nonabelian2()
    assert delta_mono(g, (2, 0)) == {
        ((0, 0), (2, 0)): Q(1),
        ((1, 0), (1, 0)): Q(2),
        ((2, 0), (0, 0)): Q(1),
    }


def test_translation_on_generator_two_term():
    g = lie_nonabelian2()
    assert translation_mono(g, (1, 0)) == {
        ((1, 0), (0, 0)): Q(1),
        ((0, 0), (1, 0)): Q(-1),
    }


def test_translation_identity_collapses_on_generator():
    # x_{+(1)} (x) x_{+(2)} x_- = x (x) 1
    g = lie_nonabelian2()
    acc = {}
    for (p, q), c in translation_mono(g, (1, 0)).items():
        for (a, b), c2 in delta_mono(g, p).items():
            for bq, c3 in mono_mul(g, b, q).items():
                k = (a, bq)
                acc[k] = acc.get(k, 0) + c * c2 * c3
                if not acc[k]:
                    del acc[k]
    assert acc == {((1, 0), (0, 0)): Q(1)}


def test_ug_hopf_report_all_instances():
    for g in (lie_abelian(1), lie_abelian(2), lie_nonabelian2(), lie_sl2()):
        rep = ug_hopf_report(g, bound=3)
        assert all(rep.values()), (g.name, rep)


def test_lie_module_validation():
    g = lie_nonabelian2()
    LieModule.adjoint(g)
    with pytest.raises(ValidationError):
        LieModule(g, 1, "right", [Matrix([[1]]), Matrix([[1]])])  # weight on [g,g]


def test_right_tensor_formula_matches_hand_expansion():
    # (m (x) p) x = m (x) p x - x m (x) p on generator matrices
    g = lie_nonabelian2()
    M = LieModule.adjoint(g)
    P = LieModule.weight_right(g, [Q(1), Q(0)])
    tm = tensor_right_lie(g, M, P)
    im = Matrix.identity(M.dim)
    for i in range(g.dim):
        expect = im.kron(P.gen[i]) - M.gen[i].kron(Matrix.identity(P.dim))
        assert tm.gen[i] == expect


def test_left_tensor_primitive_action():
    g = lie_abelian(2)
    M = LieModule.adjoint(g)
    N = LieModule.trivial(g)
    tm = tensor_left_lie(g, M, N)
    for i in range(g.dim):
        assert tm.gen[i] == M.gen[i].kron(Matrix.identity(1))


def lie_half():
    """[x, y] = y/2: a structure constant that is not an integer."""
    c = [[[0, 0], [0, Q(1, 2)]], [[0, Q(-1, 2)], [0, 0]]]
    return LieAlgebraData(2, c, name="lie-half")


@pytest.mark.parametrize("make", [lie_sl2, lie_nonabelian2, lie_half])
def test_memo_and_integer_constants_change_no_value(make):
    """Memoized results on warm caches equal a fresh computation on Fraction constants."""
    warm = make()
    assert all(ug_hopf_report(warm, 4).values())
    fresh = make()
    # the same constants, every one stored as a Fraction
    fresh.bracket = [[[Q(c) for c in row] for row in rows] for rows in fresh.bracket]
    integral = make is not lie_half
    monos = monomials_upto(warm.dim, 3)
    results = []
    for m in monos:
        for fn in (delta_mono, translation_mono):
            got = fn(warm, m)
            assert got == fn.__wrapped__(fresh, m), (fn.__name__, m)
            results.append(got)
        for m2 in monos:
            got = mono_mul(warm, m, m2)
            assert got == mono_mul.__wrapped__(fresh, m, m2), (m, m2)
            results.append(got)
    for result in results:
        for c in result.values():
            assert type(c) in (int, Q), c
            if integral:
                assert type(c) is int, c


def test_rational_bracket_hopf_report_and_duality_weights():
    g = lie_half()
    assert g.bracket[0][1] == [0, Q(1, 2)] and type(g.bracket[0][1][1]) is Q
    assert all(ug_hopf_report(g, 4).values())
    assert detect_duality_ug(g, bound=3).weights == [Q(1, 2), 0]


def _double(table, key):
    table[key] = {k: 2 * c for k, c in table[key].items()}


def test_corrupted_memo_entries_fail_the_hopf_report():
    """The memo shares results; it does not bypass the checks that read them."""
    g = lie_sl2()
    h = (1, 0, 0)
    translation_mono(g, h)
    _double(g._memo["translation_mono"], (h,))
    assert ug_hopf_report(g, 3)["translation_1"] is False

    g = lie_sl2()
    key = ((1, 0, 0), (0, 1, 0))
    mono_mul(g, *key)
    _double(g._memo["mono_mul"], key)
    assert ug_hopf_report(g, 3)["delta_multiplicative"] is False

    g = lie_sl2()
    delta_mono(g, h)
    _double(g._memo["delta_mono"], (h,))
    assert ug_hopf_report(g, 3)["coassociative"] is False
    assert all(ug_hopf_report(lie_sl2(), 3).values())


def test_every_hopf_report_key_fails_on_some_corrupted_memo_entry():
    h = (1, 0, 0)
    failed = set()
    for table, key, fill in (
        ("translation_mono", (h,), translation_mono),
        ("mono_mul", (h, (0, 1, 0)), mono_mul),
        ("delta_mono", (h,), delta_mono),
    ):
        g = lie_sl2()
        fill(g, *key)
        _double(g._memo[table], key)
        failed |= {name for name, ok in ug_hopf_report(g, 3).items() if not ok}
    assert failed == set(ug_hopf_report(lie_sl2(), 3))

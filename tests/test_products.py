from fractions import Fraction as Q
from math import prod

import pytest

from hopfhomology.bialgebroid import unit_iso
from hopfhomology.ce import CEResolution, ce_resolution
from hopfhomology.errors import WindowExceededError
from hopfhomology.homology import ext, tor
from hopfhomology.instances import (
    bimodule_a,
    bimodule_a_right,
    lie_abelian,
    lie_nonabelian2,
    lie_sl2,
)
from hopfhomology.linalg import Matrix
from hopfhomology.pbw import LieModule
from hopfhomology.products import BarProducts, CEProducts, transport_cochain
from hopfhomology.resolutions import bar_resolution


@pytest.mark.parametrize("side", ["bar-sweedler", "ce-lie-sl2"])
def test_diagonal_contract(side, catalog):
    # homology.cup_cochain and cap_chain read every diagonal the same way:
    # diagonal(K, i) is {(front word, back word): coeff}, a word is
    # (basis key,) + generator, and act_basis acts by the basis key
    if side == "bar-sweedler":
        inst = catalog["sweedler"]
        res, M, top = bar_resolution(inst.data, 3), inst.modules["trivial"], 3
    else:
        g = lie_sl2()
        res, M, top = CEResolution(g, validate=False), LieModule.trivial(g), g.dim
    for n in range(top + 1):
        for K in res.generators(n):
            count = 0
            for i in range(n + 1):
                part = res.diagonal(K, i)
                count += len(part)
                for front, back in part:
                    assert front[1:] in res.generators(i)
                    assert back[1:] in res.generators(n - i)
                    for key in (front[0], back[0]):
                        act = res.act_basis(key, M)
                        assert (act.nrows, act.ncols) == (M.dim, M.dim)
            if side == "ce-lie-sl2":
                # the subset-splitting comultiplication has one term per subset of K
                assert count == 2 ** len(K)


@pytest.fixture(scope="module")
def ab2():
    g = lie_abelian(2)
    res = ce_resolution(g)
    return g, res, CEProducts(res)


def test_cup_unit_class_acts_as_identity(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    e0 = ext(res, triv, 0)
    unit = e0.representatives()[0]
    e1 = ext(res, triv, 1)
    for psi in e1.representatives():
        c, tm = pr.cup(0, 1, unit, psi, triv, triv)
        assert e1.class_of(c) == e1.class_of(psi)


def test_cup_exterior_algebra_structure(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    e1 = ext(res, triv, 1)
    e2 = ext(res, triv, 2)
    xi0, xi1 = e1.representatives()
    c01, _ = pr.cup(1, 1, xi0, xi1, triv, triv)
    c10, _ = pr.cup(1, 1, xi1, xi0, triv, triv)
    c00, _ = pr.cup(1, 1, xi0, xi0, triv, triv)
    assert any(e2.class_of(c01))
    assert e2.class_of(c00) == [Q(0)]
    assert e2.class_of(c01) == [-x for x in e2.class_of(c10)]


def test_cup_well_defined_under_coboundary_perturbation(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    e1 = ext(res, triv, 1)
    e2 = ext(res, triv, 2)
    xi0, xi1 = e1.representatives()
    from hopfhomology.homology import cochain_matrix

    delta0 = cochain_matrix(res, triv, 0)
    # perturb xi0 by the coboundary of an arbitrary 0-cochain
    pert = [a + b for a, b in zip(xi0, delta0.apply([Q(5)]))]
    c_orig, _ = pr.cup(1, 1, xi0, xi1, triv, triv)
    c_pert, _ = pr.cup(1, 1, pert, xi1, triv, triv)
    assert e2.class_of(c_orig) == e2.class_of(c_pert)


def test_yoneda_with_identity_is_identity(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    e0 = ext(res, triv, 0)
    unit = e0.representatives()[0]
    e1 = ext(res, triv, 1)
    for phi in e1.representatives():
        # psi o phi with psi the unit class of Ext^0
        y = pr.yoneda(1, 0, phi, unit, triv)
        assert e1.class_of(y) == e1.class_of(phi)
        # and phi o unit
        y2 = pr.yoneda(0, 1, unit, phi, triv)
        assert e1.class_of(y2) == e1.class_of(phi)


def test_yoneda_associative(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    e1 = ext(res, triv, 1)
    xi0, xi1 = e1.representatives()
    e2 = ext(res, triv, 2)
    # (xi1 o xi0) needs a degree 2 target; compose three degree <= 1 maps
    y01 = pr.yoneda(1, 1, xi0, xi1, triv)
    # associativity against the unit on both sides
    e0 = ext(res, triv, 0)
    unit = e0.representatives()[0]
    lhs = pr.yoneda(2, 0, y01, unit, triv)
    assert e2.class_of(lhs) == e2.class_of(y01)


def test_suarez_sign_rule_ce(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    groups = {n: ext(res, triv, n) for n in range(3)}
    for m in range(3):
        for n in range(3 - m):
            for phi in groups[m].representatives():
                for psi in groups[n].representatives():
                    y = pr.yoneda(m, n, phi, psi, triv)
                    c1, _ = pr.cup(m, n, phi, psi, triv, triv)
                    c2, _ = pr.cup(n, m, psi, phi, triv, triv)
                    target = groups[m + n]
                    assert target.class_of(y) == target.class_of(c1)
                    assert target.class_of(c1) == [
                        Q(-1) ** (m * n) * x for x in target.class_of(c2)
                    ]


def test_bullet_unit_is_identity(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    trivr = LieModule.trivial(g, side="right")
    e0 = ext(res, triv, 0)
    unit = e0.representatives()[0]
    for n in range(3):
        tg = tor(res, trivr, n)
        for z in tg.representatives():
            b = pr.bullet(0, unit, z, n, trivr)
            assert tg.class_of(b) == tg.class_of(z)


def test_bullet_kills_boundaries(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    trivr = LieModule.trivial(g, side="right")
    from hopfhomology.homology import chain_matrix

    e1 = ext(res, triv, 1)
    phi = e1.representatives()[0]
    d2 = chain_matrix(res, trivr, 2)
    boundary = d2.apply([Q(1)])
    tg = tor(res, trivr, 0)
    b = pr.bullet(1, phi, boundary, 1, trivr)
    assert tg.class_of(b) == [Q(0)] * tg.dim or all(x == 0 for x in tg.class_of(b))


def test_cap_unit_case_is_canonical_identification(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    trivr = LieModule.trivial(g, side="right")
    e0 = ext(res, triv, 0)
    unit = e0.representatives()[0]
    for n in range(3):
        tg = tor(res, trivr, n)
        for z in tg.representatives():
            c, tm = pr.cap(0, unit, z, n, triv, trivr)
            out = tor(res, tm, n)
            assert out.class_of(c) == tg.class_of(z)


def test_cap_bullet_agree_ce_instances():
    for g in (lie_abelian(2), lie_nonabelian2()):
        res = ce_resolution(g, validate=False)
        pr = CEProducts(res)
        triv = LieModule.trivial(g)
        trivr = LieModule.trivial(g, side="right")
        groups = {n: ext(res, triv, n) for n in range(3)}
        for m in range(3):
            for n in range(m, 3):
                tg = tor(res, trivr, n)
                for phi in groups[m].representatives():
                    for z in tg.representatives():
                        b = pr.bullet(m, phi, z, n, trivr)
                        cp, tm = pr.cap(m, phi, z, n, triv, trivr)
                        tout = tor(res, trivr, n - m)
                        tout2 = tor(res, tm, n - m)
                        assert tout.class_of(b) == tout2.class_of(cp)


def test_cap_degree_bookkeeping(ab2):
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    trivr = LieModule.trivial(g, side="right")
    e1 = ext(res, triv, 1)
    t2 = tor(res, trivr, 2)
    phi = e1.representatives()[0]
    z = t2.representatives()[0]
    c, tm = pr.cap(1, phi, z, 2, triv, trivr)
    assert len(c) == res.rank(1) * tm.dim


def test_cap_functorial_in_coefficients(ab2):
    # naturality against the inclusion of a trivial summand
    g, res, pr = ab2
    triv = LieModule.trivial(g)
    trivr = LieModule.trivial(g, side="right")
    two = LieModule(g, 2, "right", [Matrix.zeros(2, 2) for _ in range(2)], name="triv2")
    e1 = ext(res, triv, 1)
    phi = e1.representatives()[0]
    t2 = tor(res, trivr, 2)
    z = t2.representatives()[0]
    # include z into the first summand of the rank two module
    z_inc = []
    for k in range(res.rank(2)):
        z_inc.extend([z[k], Q(0)])
    c1, tm1 = pr.cap(1, phi, z, 2, triv, trivr)
    c2, tm2 = pr.cap(1, phi, z_inc, 2, triv, two)
    # the image under the induced inclusion must match componentwise
    expect = []
    for k in range(res.rank(1)):
        expect.extend([c1[k], Q(0)])
    assert c2 == expect


def test_lifted_class_satisfies_shifted_chain_identity(env_qeps, env_qeps_bar, env_qeps_products):
    # d f_j = (-1)^m f_{j-1} d: the lifted class realizes the shifted
    # differential, which is where the composition sign originates
    bar = env_qeps_bar
    A = bimodule_a(env_qeps.data)
    from hopfhomology.homology import ext as ext_

    for m in (1, 2):
        phi = ext_(bar, A, m).representatives()[0]
        maps = env_qeps_products.lift_class(m, phi)
        lifts = [bar.u_linear_matrix(f, j) for j, f in enumerate(maps)]
        for j in range(1, len(lifts)):
            lhs = bar.chain_matrix(j) @ lifts[j]
            rhs = (lifts[j - 1] @ bar.chain_matrix(m + j)).scale(Q(-1) ** m)
            assert lhs == rhs


def test_suarez_and_suarez2_on_hochschild_instance(env_qeps, env_qeps_hopf, env_qeps_bar, env_qeps_products):
    data = env_qeps.data
    pr = env_qeps_products
    bar = env_qeps_bar
    A = bimodule_a(data)
    Ar = bimodule_a_right(data)
    groups = {n: ext(bar, A, n) for n in range(4)}
    for m in range(4):
        for n in range(4 - m):
            for phi in groups[m].representatives():
                for psi in groups[n].representatives():
                    y = pr.yoneda(m, n, phi, psi, A)
                    c1, tm1 = pr.cup(m, n, phi, psi, A, A)
                    c2, tm2 = pr.cup(n, m, psi, phi, A, A)
                    iso = unit_iso(data, A, tm1)
                    target = groups[m + n]
                    cls_y = target.class_of(y)
                    cls_1 = target.class_of(
                        transport_cochain(bar.rank(m + n), iso, c1, tm1.space.dim)
                    )
                    cls_2 = target.class_of(
                        transport_cochain(bar.rank(m + n), iso, c2, tm2.space.dim)
                    )
                    assert cls_y == cls_1
                    assert cls_1 == [Q(-1) ** (m * n) * x for x in cls_2]
    for m in range(3):
        for n in range(m, 3):
            tg = tor(bar, Ar, n)
            for phi in groups[m].representatives():
                for z in tg.representatives():
                    b = pr.bullet(m, phi, z, n, Ar)
                    cp, tm = pr.cap(m, phi, z, n, A, Ar)
                    tout = tor(bar, Ar, n - m)
                    iso = unit_iso(data, Ar, tm)
                    moved = transport_cochain(bar.rank(n - m), iso, cp, tm.space.dim)
                    assert tout.class_of(moved) == tout.class_of(b)


def test_odd_square_vanishes_rationally(env_qeps, env_qeps_bar, env_qeps_products):
    # graded commutativity makes odd squares 2-torsion, so they vanish
    # over the rationals; cross-checked against the brute force cochain
    # cup in the oracle tests
    data = env_qeps.data
    A = bimodule_a(data)
    bar = env_qeps_bar
    groups = {n: ext(bar, A, n) for n in range(3)}
    gen = groups[1].representatives()[0]
    sq, tm = env_qeps_products.cup(1, 1, gen, gen, A, A)
    iso = unit_iso(data, A, tm)
    moved = transport_cochain(bar.rank(2), iso, sq, tm.space.dim)
    assert groups[2].class_of(moved) == [Q(0)]


def test_even_times_odd_product_is_nonzero(env_qeps, env_qeps_bar, env_qeps_products):
    data = env_qeps.data
    A = bimodule_a(data)
    bar = env_qeps_bar
    groups = {n: ext(bar, A, n) for n in range(4)}
    odd = groups[1].representatives()[0]
    even = groups[2].representatives()[0]
    c, tm = env_qeps_products.cup(1, 2, odd, even, A, A)
    iso = unit_iso(data, A, tm)
    moved = transport_cochain(bar.rank(3), iso, c, tm.space.dim)
    assert any(groups[3].class_of(moved))


def test_bar_products_window_enforced(env_qeps, env_qeps_hopf, env_qeps_bar, env_qeps_products):
    # BarProducts checks its own window: the total degree against the bar
    # depth, each cup against the total degree it was built for, and each
    # composition and evaluation against the bar depth
    bar = env_qeps_bar
    assert BarProducts(env_qeps_hopf, bar, bar.depth).total_degree == bar.depth
    with pytest.raises(WindowExceededError):
        BarProducts(env_qeps_hopf, bar, bar.depth + 1)
    A = bimodule_a(env_qeps.data)
    phi = ext(bar, A, 2).representatives()[0]
    assert env_qeps_products.total_degree < 2 + 2
    with pytest.raises(WindowExceededError):
        env_qeps_products.cup(2, 2, phi, phi, A, A)
    with pytest.raises(WindowExceededError):
        env_qeps_products.yoneda(2, bar.depth - 1, phi, phi, A)
    with pytest.raises(WindowExceededError):
        env_qeps_products.bullet(2, phi, [], bar.depth + 1, A)


# ---------------------------------------------------------------------------
# Sweedler with the sign character: a finite witness for the cap sign.
# Ext^*(k, k) is k[y^2] and Ext^*(k, sign) is y k[y^2], so the degree one
# class y is odd, and Tor_n(trivial, k) is one dimensional in even n.  Every
# module below is one dimensional, and the explicit unit isomorphisms send
# the tensor of the basis vectors to the basis vector.


@pytest.fixture(scope="module")
def sweedler_sign(sweedler, sweedler_hopf):
    bar = bar_resolution(sweedler.data, 5)
    mods = sweedler.modules
    classes = {
        1: (ext(bar, mods["sign"], 1).representatives()[0], mods["sign"]),
        2: (ext(bar, mods["trivial"], 2).representatives()[0], mods["trivial"]),
    }
    return bar, BarProducts(sweedler_hopf, bar, 4), classes


def _unit_iso(tm, target):
    """The tensor module tm of two characters onto target, e (x) f -> the basis vector."""
    assert tm.module.action == target.action
    (scale,) = tm.space.project_pure({(0, 0): 1})
    return lambda vec: [Q(x) / scale for x in vec]


@pytest.mark.parametrize("m, q, n", [(1, 1, 2), (1, 1, 4), (1, 2, 4), (2, 1, 4)])
def test_cap_associates_with_cup_on_sweedler(sweedler, sweedler_sign, m, q, n):
    # cup_cochain evaluates phi (x) psi on the two legs of the diagonal with
    # no sign, while cap_chain moves each cochain past its front leg with the
    # Koszul sign; together they give (phi cup psi) cap z = (-1)^(mq)
    # phi cap (psi cap z), exactly.  Where mq is odd only the Koszul sign of
    # psi cap z makes the two sides agree.
    bar, pr, classes = sweedler_sign
    (phi, M), (psi, N) = classes[m], classes[q]
    right = sweedler.right_modules["trivial"]
    (z,) = tor(bar, right, n).representatives()
    inner, t_inner = pr.cap(q, psi, z, n, N, right)
    nested, t_nested = pr.cap(m, phi, inner, n - q, M, t_inner.module)
    cup, t_cup = pr.cup(m, q, phi, psi, M, N)
    direct, t_direct = pr.cap(m + q, cup, z, n, t_cup.module, right)
    # both sides land in one character module; the pure tensors e (x) (f (x) 1)
    # and (e (x) f) (x) 1 both go to its basis vector, and each tensor step
    # has e (x) f = scale times its basis vector
    target = t_nested.module
    assert t_direct.module.action == target.action
    group = tor(bar, target, n - m - q)

    def pure(vec, *steps):
        scale = prod(tm.space.project_pure({(0, 0): 1})[0] for tm in steps)
        return group.class_of([Q(x) / scale for x in vec])

    lhs, rhs = pure(direct, t_cup, t_direct), pure(nested, t_inner, t_nested)
    assert rhs == [Q(1)]
    assert lhs == [Q(-1) ** (m * q) * x for x in rhs]


def test_bar_cup_is_braided_graded_commutative_on_sweedler(sweedler, sweedler_sign):
    # phi cup psi = (-1)^(mq) beta(M, N) psi cup phi through the unit
    # isomorphisms, where beta is Sweedler's R-matrix
    # R = (1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g) / 2 on the characters:
    # 1 on sign (x) trivial and -1 on sign (x) sign, so the odd class y has
    # the nonzero square [1] that plain graded commutativity would forbid
    bar, pr, classes = sweedler_sign
    g = sweedler.data.U.labels.index("g")
    chars = {"trivial": sweedler.modules["trivial"], "sign": sweedler.modules["sign"]}
    squares = []
    for m, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        (phi, M), (psi, N) = classes[m], classes[q]
        a, b = M.action[g].rows[0][0], N.action[g].rows[0][0]
        beta = (1 + a + b - a * b) / Q(2)
        target = chars["trivial" if a * b == 1 else "sign"]
        group = ext(bar, target, m + q)
        c1, t1 = pr.cup(m, q, phi, psi, M, N)
        c2, t2 = pr.cup(q, m, psi, phi, N, M)
        one = group.class_of(_unit_iso(t1, target)(c1))
        other = group.class_of(_unit_iso(t2, target)(c2))
        assert any(one)
        assert one == [Q(-1) ** (m * q) * beta * x for x in other]
        if (m, q) == (1, 1):
            squares.append(one)
    assert squares == [[Q(1)]]

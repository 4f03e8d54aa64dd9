import random
from fractions import Fraction as Q
from math import comb

import pytest

from bar_oracle import reference_ug_cochain_cols
from hopfhomology import ce as ce_module
from hopfhomology.ce import CEResolution, UgBarComplex, ce_resolution, ce_vs_bar_ext
from hopfhomology.homology import cochain_cols, ext, ext_dims, tor
from hopfhomology.instances import lie_abelian, lie_nonabelian2, lie_sl2
from hopfhomology.oracles import lie_chain_matrix, lie_cohomology_dims, lie_homology_dims
from hopfhomology.homology import chain_matrix
from hopfhomology.errors import ValidationError, WindowExceededError
from hopfhomology.pbw import LieAlgebraData, LieModule, monomials_upto, mono_deg, pbw_multiply
from hopfhomology.products import CEProducts


def test_ranks_are_binomials():
    res = ce_resolution(lie_sl2(), validate=False)
    for n in range(4):
        assert res.rank(n) == comb(3, n)
    assert res.rank(4) == 0


def test_dimension_one_is_multiplication_by_generator():
    g = lie_abelian(1)
    res = ce_resolution(g)
    (col,) = res.diff_cols(1)
    assert col == {0: {(1,): Q(1)}}


def test_abelian_two_differential():
    g = lie_abelian(2)
    res = ce_resolution(g)
    cols = res.diff_cols(2)
    # d e_{01} = x e_1 - y e_0
    assert cols[0] == {1: {(1, 0): Q(1)}, 0: {(0, 1): Q(-1)}}


def test_nonabelian_differential_includes_bracket_term():
    g = lie_nonabelian2()
    res = ce_resolution(g)
    cols = res.diff_cols(2)
    # d e_{xy} = x e_y - y e_x - e_y
    assert cols[0][1] == {(1, 0): Q(1), (0, 0): Q(-1)}
    assert cols[0][0] == {(0, 1): Q(-1)}


def test_square_zero_verified_for_sl2():
    ce_resolution(lie_sl2())  # validation raises on failure


def test_square_zero_check_rejects_a_bracket_without_jacobi():
    # [x0,x1] = x2, [x1,x2] = x0, [x2,x0] = x0: antisymmetric, but Jacobi fails at (0,1,2)
    br = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 0)):
        br[i][j][k], br[j][i][k] = 1, -1
    g = LieAlgebraData(3, br, validate=False)
    with pytest.raises(ValidationError, match="d d != 0"):
        CEResolution(g)


def test_diagonal_is_chain_map_on_all_instances():
    for g in (lie_abelian(2), lie_nonabelian2(), lie_sl2()):
        res = CEResolution(g, validate=False)
        assert res.check_diagonal_chain_map()


def test_trivial_coefficients_reproduce_classical_complex():
    # the engine chain complex with trivial right coefficients equals the
    # classical formula complex written independently
    for g in (lie_abelian(2), lie_nonabelian2(), lie_sl2()):
        res = ce_resolution(g, validate=False)
        triv = LieModule.trivial(g, side="right")
        for n in range(1, g.dim + 1):
            assert chain_matrix(res, triv, n) == lie_chain_matrix(g, triv, n)


def test_ext_tor_profiles():
    cases = {
        "lie-abelian1": ([1, 1], [1, 1]),
        "lie-abelian2": ([1, 2, 1], [1, 2, 1]),
        "lie-nonabelian2": ([1, 1, 0], [1, 1, 0]),
        "lie-sl2": ([1, 0, 0, 1], [1, 0, 0, 1]),
    }
    for g in (lie_abelian(1), lie_abelian(2), lie_nonabelian2(), lie_sl2()):
        res = ce_resolution(g, validate=False)
        up = [ext(res, LieModule.trivial(g), n).dim for n in range(g.dim + 1)]
        down = [tor(res, LieModule.trivial(g, side="right"), n).dim for n in range(g.dim + 1)]
        assert (up, down) == cases[g.name]
        assert up == lie_cohomology_dims(g, LieModule.trivial(g), g.dim)
        assert down == lie_homology_dims(g, LieModule.trivial(g, side="right"), g.dim)


def test_adjoint_coefficients_match_oracle():
    g = lie_nonabelian2()
    res = ce_resolution(g, validate=False)
    adj = LieModule.adjoint(g)
    up = [ext(res, adj, n).dim for n in range(3)]
    assert up == lie_cohomology_dims(g, adj, 2)


def test_comparison_map_is_chain_map():
    g = lie_nonabelian2()
    res = ce_resolution(g, validate=False)
    bar = UgBarComplex(g, 2)
    images = bar.lift(res, 0, [[1]], bar.bound)
    for n in (1, 2):
        for K in res.generators(n):
            # each image as bar words, slot 0 the PBW monomial of its coefficient
            img = {(u,) + w: c for w, e in images[n][K].items() for u, c in e.items()}
            bd = {}
            for w, c in img.items():
                for w2, d in bar.boundary_word(w).items():
                    bd[w2] = bd.get(w2, 0) + c * d
                    if not bd[w2]:
                        del bd[w2]
            assert bd  # boundary of the image of a positive degree generator


def test_ce_vs_truncated_bar_abelian1():
    g = lie_abelian(1)
    ce_d, bar_d, bij = ce_vs_bar_ext(g, LieModule.trivial(g), 2, 4)
    assert ce_d == bar_d == [1, 1, 0]
    assert all(bij)


def test_ce_vs_truncated_bar_abelian2():
    g = lie_abelian(2)
    ce_d, bar_d, bij = ce_vs_bar_ext(g, LieModule.trivial(g), 2, 4)
    assert ce_d == bar_d == [1, 2, 1]
    assert all(bij)
    # PBW bound 1 certifies Ext^0 only: a comparison up to degree 2 raises
    with pytest.raises(WindowExceededError):
        ce_vs_bar_ext(g, LieModule.trivial(g), 2, 1)


def test_ce_vs_bar_reports_a_wrong_bar_dimension_as_not_bijective(monkeypatch):
    # fault injection: the bar side's Ext^1 read in degree 0, of dimension 1, not 2
    g = lie_abelian(2)

    def faulty(res, M, n):
        return ext(res, M, 0 if isinstance(res, UgBarComplex) and n == 1 else n)

    monkeypatch.setattr(ce_module, "ext", faulty)
    assert ce_vs_bar_ext(g, LieModule.trivial(g), 2, 4) == (
        [1, 2, 1], [1, 1, 1], [True, False, True]
    )


def test_ce_vs_bar_reports_a_zero_comparison_as_not_bijective(monkeypatch):
    # fault injection: a comparison lift that sends every generator to zero is
    # a chain map, so it passes the check, but it kills every nonzero class
    g = lie_abelian(2)

    def zero(self, src, m, values, top):
        return [{G: {} for G in src.generators(m + j)} for j in range(top + 1)]

    monkeypatch.setattr(UgBarComplex, "lift", zero)
    assert ce_vs_bar_ext(g, LieModule.trivial(g), 2, 4) == (
        [1, 2, 1], [1, 2, 1], [False, False, False]
    )


def test_ce_vs_truncated_bar_with_brackets():
    # the comparison lift and its chain-map check with bracket terms in d
    for g, upto, expect in ((lie_nonabelian2(), 2, [1, 1, 0]), (lie_sl2(), 3, [1, 0, 0, 1])):
        ce_d, bar_d, bij = ce_vs_bar_ext(g, LieModule.trivial(g), upto, upto + 1)
        assert ce_d == bar_d == expect
        assert all(bij)


def test_truncated_bar_stability_under_bound_growth():
    g = lie_abelian(2)
    triv = LieModule.trivial(g)
    d4 = ext_dims(UgBarComplex(g, 4), triv, 2)
    d5 = ext_dims(UgBarComplex(g, 5), triv, 2)
    assert d4 == d5


@pytest.mark.parametrize("g", (lie_abelian(1), lie_abelian(2), lie_nonabelian2(), lie_sl2()),
                         ids=lambda g: g.name)
def test_bar_model_equals_koszul_below_its_pbw_bound(g):
    # the model's cochains are the bar cochains modulo a kernel of PBW weight
    # > b, which has no cohomology in degrees <= b: below b its Ext is Ext
    ce = ce_resolution(g)
    for M in (LieModule.trivial(g), LieModule.adjoint(g)):
        for b in range(1, 5):
            assert ext_dims(UgBarComplex(g, b), M, b - 1) == ext_dims(ce, M, b - 1), (M.name, b)


LIE = (lie_abelian(2), lie_nonabelian2(), lie_sl2())


@pytest.mark.parametrize("g", LIE, ids=lambda g: g.name)
@pytest.mark.parametrize("b", range(4))
def test_bar_model_refuses_degrees_at_or_past_its_pbw_bound(g, b):
    # the model certifies degrees below b only; bound 0 certifies none, and
    # at b = 1 on lie-nonabelian2 ext_dims would read Ext^1 = 2 (Koszul: 1)
    bar, M = UgBarComplex(g, b), LieModule.trivial(g)
    for read in (lambda: ext(bar, M, b), lambda: ext_dims(bar, M, b), lambda: ext_dims(bar, M, b + 2)):
        with pytest.raises(WindowExceededError, match=f"^Ext degree {b} outside certified window"):
            read()


@pytest.mark.parametrize("g", LIE, ids=lambda g: g.name)
def test_bar_model_cochains_match_the_reference_faces(g):
    # homology's one cochain builder, reading the bar model's diff_cols,
    # against the faces written straight into the cochain columns
    bar = UgBarComplex(g, 3)
    for M in (LieModule.trivial(g), LieModule.adjoint(g)):
        for n in range(3):
            assert cochain_cols(bar, M, n) == reference_ug_cochain_cols(bar, n, M), (M.name, n)


def _boundary(res, j, elt):
    """d_j of {(monomial,) + generator: coeff}: the coefficient times the column entry."""
    out = {}
    for (a, *J), c in elt.items():
        for k, entry in res.diff_cols(j)[res.gen_index(j, tuple(J))].items():
            for m, d in pbw_multiply(res.g, {a: c}, entry).items():
                w = (m,) + res.generators(j - 1)[k]
                out[w] = out.get(w, 0) + d
    return {w: c for w, c in out.items() if c}


def _words(by_gen):
    """{generator: PBW dict} as {(monomial,) + generator: coeff}."""
    return {(m,) + J: c for J, e in by_gen.items() for m, c in e.items()}


@pytest.mark.parametrize("g", LIE, ids=lambda g: g.name)
def test_contract_is_a_preimage_of_seeded_boundaries(g):
    # d(contract(y)) = y on boundaries y = d x of seeded random x, in
    # every degree; x has PBW degree up to 3, so several weights occur
    res = ce_resolution(g, validate=False)
    rng = random.Random(g.name)
    monos = monomials_upto(g.dim, 3)
    for j in range(1, g.dim + 1):
        for _ in range(15):
            x = {}
            for _ in range(rng.randint(1, 4)):
                w = (rng.choice(monos),) + rng.choice(res.generators(j))
                x[w] = x.get(w, 0) + rng.choice([-3, -2, -1, 1, 2, Q(1, 2)])
            y = _boundary(res, j, x)
            assert _boundary(res, j, _words(res.contract(j, y))) == y


@pytest.mark.parametrize("g", LIE, ids=lambda g: g.name)
def test_lifted_ce_class_satisfies_shifted_chain_identity(g):
    # d f_j = (-1)^m f_(j-1) d on every generator, for every Ext(k, k)
    # basis class: the lifts that composition and evaluation read
    res = ce_resolution(g, validate=False)
    pr = CEProducts(res)
    triv = LieModule.trivial(g)
    checked = 0
    for m in range(g.dim + 1):
        for phi in ext(res, triv, m).representatives():
            lifts = pr.lift_class(m, phi)
            assert len(lifts) == g.dim - m + 1
            for j in range(1, len(lifts)):
                prev = list(lifts[j - 1].values())
                for G, col in zip(res.generators(m + j), res.diff_cols(m + j)):
                    rhs = {}
                    for i, u in col.items():
                        for w, c in _words(prev[i]).items():
                            for m2, d in pbw_multiply(g, u, {w[0]: c}).items():
                                key = (m2,) + w[1:]
                                rhs[key] = rhs.get(key, 0) + (-1) ** m * d
                    rhs = {w: c for w, c in rhs.items() if c}
                    assert _boundary(res, j, _words(lifts[j][G])) == rhs
                    checked += 1
    assert checked


@pytest.mark.parametrize("g", LIE, ids=lambda g: g.name)
def test_bar_boundary_ug_squares_to_zero(g):
    # b' b' = 0 on every word (m,) + t of the bound 2 bar model, with
    # words ending in the unit monomial, where the last face acts
    bar = UgBarComplex(g, 2)
    last_face = 0
    for n in (1, 2, 3):
        for m in monomials_upto(g.dim, 2):
            for t in bar.tuples(n)[0]:
                w = (m,) + t
                once = bar.boundary_word(w)
                twice = {}
                for w2, c in once.items():
                    for w3, d in bar.boundary_word(w2).items():
                        twice[w3] = twice.get(w3, 0) + c * d
                assert not any(twice.values()), w
                last_face += mono_deg(t[-1]) == 0
    assert last_face

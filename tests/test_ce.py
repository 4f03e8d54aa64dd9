from fractions import Fraction as Q
from math import comb

from hopfhomology.ce import (
    CEResolution,
    UgBarComplex,
    ce_resolution,
    ce_to_bar_words,
    ce_vs_bar_ext,
    bar_boundary_word_ug,
)
from hopfhomology.homology import ext, tor
from hopfhomology.instances import lie_abelian, lie_nonabelian2, lie_sl2
from hopfhomology.oracles import lie_chain_matrix, lie_cohomology_dims, lie_homology_dims
from hopfhomology.homology import chain_matrix
from hopfhomology.pbw import LieModule


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
    images = ce_to_bar_words(res, 2)
    for n in (1, 2):
        for K in res.generators(n):
            img = images[n][K]
            bd = {}
            for w, c in img.items():
                for w2, d in bar_boundary_word_ug(g, w).items():
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
    # PBW bound 1 is too small for Ext^2: the bar model loses the class
    # there, and the comparison reports that degree as not bijective
    assert ce_vs_bar_ext(g, LieModule.trivial(g), 2, 1) == (
        [1, 2, 1], [1, 2, 0], [True, True, False]
    )


def test_truncated_bar_stability_under_bound_growth():
    g = lie_abelian(2)
    triv = LieModule.trivial(g)
    d4 = UgBarComplex(g, 4).ext_dims(triv, 2)
    d5 = UgBarComplex(g, 5).ext_dims(triv, 2)
    assert d4 == d5

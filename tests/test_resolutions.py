import copy
import random
from fractions import Fraction as Q

import pytest

from bar_oracle import UnnormalizedBar, reference_boundary_word, reference_diagonal, reference_renorm
from builders import permute_instance
from hopfhomology.bialgebroid import BialgebroidData
from hopfhomology.errors import LiftFailedError, ValidationError, WindowExceededError
from hopfhomology.homology import ext_dims, tor_dims
from hopfhomology.instances import cyclic_group_algebra
from hopfhomology.linalg import Matrix, zero_vec
from hopfhomology.resolutions import BarResolution, TotalTensorComplex, bar_resolution, lift_into_total


def _homotopy_identity_holds(bar, n):
    for w in bar.words(n):
        lhs = bar.boundary_elt(bar.homotopy_word(w))
        for w2, c in bar.homotopy_elt(bar.boundary_word(w)).items():
            lhs[w2] = lhs.get(w2, 0) + c
            if not lhs[w2]:
                del lhs[w2]
        if n == 0:
            for w2, c in bar.homotopy_bottom(bar.augmentation_word(w)).items():
                lhs[w2] = lhs.get(w2, 0) + c
                if not lhs[w2]:
                    del lhs[w2]
        if lhs != {w: Q(1)}:
            return False
    return True


def test_bar_group_algebra_dims(qs3_bar):
    # over the ground field the degree n term has dimension |G|^{n+1};
    # the normalized term drops the unit from every tail: |G| (|G|-1)^n
    unnormalized = UnnormalizedBar(qs3_bar.data, 4)
    for n in range(5):
        assert unnormalized.concrete_dim(n) == 6 ** (n + 1)
        assert qs3_bar.concrete_dim(n) == 6 * 5**n


def test_bar_depth_zero_homotopy_identity():
    bar = bar_resolution(cyclic_group_algebra(2), 1)
    assert _homotopy_identity_holds(bar, 0)


def test_bar_contractibility_env(env_qeps_bar):
    for n in range(1, 5):
        for w in env_qeps_bar.words(n):
            assert not env_qeps_bar.boundary_elt(env_qeps_bar.boundary_word(w))
    for n in range(0, 5):
        assert _homotopy_identity_holds(env_qeps_bar, n)


def test_bar_window_enforced(env_qeps_bar):
    with pytest.raises(WindowExceededError):
        env_qeps_bar.rank(6)


def test_boundary_word_answers_one_degree_past_the_window(catalog):
    # the homotopy identity at the top degree reads b' one degree up,
    # while the window of ranks and generator differentials stays put
    bar = bar_resolution(catalog["sweedler"].data, 2)
    for w in ((0, 1, 2, 3), (3, 2, 2, 1)):
        full = reference_boundary_word(bar, w)
        assert bar.boundary_word(w) == {v: c for v, c in full.items() if all(v[1:])}
    with pytest.raises(WindowExceededError):
        bar.rank(3)
    with pytest.raises(WindowExceededError):
        bar.diff_cols(3)


def test_bar_generator_differential_matches_concrete(catalog):
    # every column of the concrete b', one per word (u, g), against the
    # uncached face sum less its degenerate words; sweedler's base is the ground field
    for name in ("env-qeps", "sweedler"):
        bar = bar_resolution(catalog[name].data, 3)
        for n in range(1, 4):
            chain = bar.chain_matrix(n)
            for j, w in enumerate(bar.words(n)):
                want = zero_vec(bar.concrete_dim(n - 1))
                for v, c in reference_boundary_word(bar, w).items():
                    if all(v[1:]):
                        want[bar.word_index(n - 1, v)] += c
                assert chain.col(j) == want, (name, n, w)


class _ReferenceRenormBar(BarResolution):
    """The normalized bar with the uncached slot 1 renormalisation, which keeps every word."""

    def _renorm(self, u, vec):
        return reference_renorm(self, (u, 0), 1, vec)


@pytest.mark.parametrize("name", ["env-qeps", "env-qxq", "env-upper2", "sweedler", "qs3"])
def test_diagonal_matches_uncached_renormalisation(catalog, name):
    # the diagonal builds its front leg by s, which renormalises slot 1
    # only; the reference appends each slot k and pushes through every
    # slot left of it, as the product [x_1|..|x_i] is normalised by hand
    data = catalog[name].data
    bar, ref = bar_resolution(data, 3), _ReferenceRenormBar(data, 3)
    for n in range(4):
        for g in bar.generators(n):
            for i in range(n + 1):
                want = {(w, back): c for (w, back), c in reference_diagonal(bar, g, i).items() if all(w[1:])}
                assert bar.diagonal(g, i) == want, (n, g, i)
                # the same front leg through the uncached slot 1 renormalisation
                assert {(w, back): c for (w, back), c in ref.diagonal(g, i).items() if all(w[1:])} == want


def test_tensor_resolution_exact_env(env_qeps_bar):
    tot = TotalTensorComplex(env_qeps_bar, 3)
    report = tot.check_resolution()
    assert report.get("aug", True)
    assert report[0] and report[1] and report[2]


def test_tensor_resolution_semisimple_group():
    bar = bar_resolution(cyclic_group_algebra(2), 2)
    tot = TotalTensorComplex(bar, 2)
    report = tot.check_resolution()
    assert all(v for k, v in report.items())


def test_tensor_resolution_ground_field():
    # over the trivial group algebra every unnormalized term is one
    # dimensional, every normalized term above degree 0 is zero, and
    # both augmented total complexes stay exact
    data = cyclic_group_algebra(1)
    for bar, dims in ((UnnormalizedBar(data, 2), [1, 1, 1]), (bar_resolution(data, 2), [1, 0, 0])):
        assert [bar.concrete_dim(n) for n in range(3)] == dims
        tot = TotalTensorComplex(bar, 2)
        assert all(v for v in tot.check_resolution().values())


def closed_form_diagonal(bar, tot, upto):
    """BarResolution.diagonal as concrete matrices P_n -> Tot_n, extended U-linearly."""
    mats = []
    for n in range(upto + 1):
        on_gens = {}
        for g in bar.generators(n):
            v = zero_vec(tot.dims[n])
            for i in range(n + 1):
                space = tot.blocks[(i, n - i)].space
                pure = {(bar.word_index(i, x), bar.word_index(n - i, y)): c
                        for (x, y), c in bar.diagonal(g, i).items()}
                off = tot.offsets[(i, n - i)]
                v[off : off + space.dim] = space.project_pure(pure)
            on_gens[g] = v
        cols = [tot.action[n][w[0]].apply(on_gens[w[1:]]) for w in bar.words(n)]
        mats.append(Matrix.from_cols(cols, nrows=tot.dims[n]))
    return mats


# (instance, top total degree); the base algebras have dimension 1, 1, 2, 3
# and 2.  env-upper2 stops at degree 2: on the normalized resolution its
# reference total complex takes about 10 s to build there.
CHAIN_MAP_CASES = [("kz3", 2), ("sweedler", 2), ("env-qeps", 3), ("env-upper2", 3), ("env-qxq", 2)]


def test_diagonal_lift_is_chain_map(catalog):
    # the solve-based lift and the closed-form Alexander-Whitney diagonal
    # are both chain maps P -> Tot(P (x)_A P) over the augmentation
    for name, upto in CHAIN_MAP_CASES:
        bar = bar_resolution(catalog[name].data, upto + 1)
        tot = TotalTensorComplex(bar, upto)
        for diagonal in (lift_into_total, closed_form_diagonal):
            diag = diagonal(bar, tot, upto)
            where = f"{diagonal.__name__} on {name}"
            for n in range(1, upto + 1):
                lhs = tot.diff[n] @ diag[n]
                rhs = diag[n - 1] @ bar.chain_matrix(n)
                assert lhs == rhs, f"{where}: d Delta != Delta d in degree {n}"
            # augmentation compatibility at the bottom
            assert tot.aug @ diag[0] == bar.augmentation_matrix(), where


def test_lift_failed_on_corrupted_target(env_qeps_bar):
    bar = env_qeps_bar
    tot = TotalTensorComplex(bar, 2)
    # corrupting the degree 2 differential makes the lift equations
    # inconsistent (the target stops being exact there)
    tot.diff[2] = Matrix.zeros(tot.dims[1], tot.dims[2])
    with pytest.raises(LiftFailedError):
        lift_into_total(bar, tot, 2)


def test_total_complex_rejects_a_corrupted_bar_differential(catalog, monkeypatch):
    # d_1 doubled on one of the two free generators of kz3 stays U-linear,
    # so every block map still descends to the tensor quotients, but
    # d_1 d_2 != 0, and so d d != 0 from total degree 2 to 0
    bar = bar_resolution(catalog["kz3"].data, 2)
    chain_matrix, g = bar.chain_matrix, bar.generators(1)[0]

    def corrupted(n):
        m = chain_matrix(n)
        if n == 1:
            m = Matrix.from_cols([[2 * x for x in m.col(j)] if w[1:] == g else m.col(j)
                                  for j, w in enumerate(bar.words(1))], nrows=m.nrows)
        return m

    monkeypatch.setattr(bar, "chain_matrix", corrupted)
    assert not (corrupted(1) @ corrupted(2)).is_zero()
    with pytest.raises(ValidationError, match="d d != 0"):
        TotalTensorComplex(bar, 2)


def test_lift_to_bar_self_comparison_is_identity_on_ext(env_qeps, env_qeps_bar):
    from hopfhomology.homology import resolution_independence
    from hopfhomology.instances import bimodule_a

    bar2 = bar_resolution(env_qeps.data, 4)
    M = bimodule_a(env_qeps.data)
    iso = resolution_independence(env_qeps_bar, bar2, M, 2)
    assert iso.bijective
    assert (iso.forward @ iso.backward) == Matrix.identity(iso.forward.nrows)


def test_lift_to_bar_chain_property(env_qeps_bar):
    bar = env_qeps_bar
    other = bar_resolution(bar.data, 4)
    # the comparison over the counit, extended U-linearly
    lifts = other.lift(bar, 0, [bar.data.counit(bar.U.unit)], 3)
    mats = [other.u_linear_matrix(f, n) for n, f in enumerate(lifts)]
    for n in range(1, 4):
        assert other.chain_matrix(n) @ mats[n] == mats[n - 1] @ bar.chain_matrix(n)
    assert other.augmentation_matrix() @ mats[0] == bar.augmentation_matrix()
    # the comparison must be U-linear, not merely k-linear
    for n in range(4):
        for u in range(bar.U.dim):
            src_act = bar.action_matrices(n)[u]
            dst_act = other.action_matrices(n)[u]
            assert mats[n] @ src_act == dst_act @ mats[n]


@pytest.mark.parametrize("name", ["kz2", "kz3", "qs3", "sweedler", "env-qeps", "env-qxq",
                                  "env-upper2", "monoid01"])
def test_boundary_word_matches_uncached_faces(catalog, name):
    # every finite catalog instance, the monoid control included
    bar = bar_resolution(catalog[name].data, 3)
    for n in range(4):
        for w in bar.words(n):
            # the normalized boundary is the full one less its degenerate words
            full = reference_boundary_word(bar, w)
            assert bar.boundary_word(w) == {v: c for v, c in full.items() if all(v[1:])}


def _face_cols(bar, n):
    """The columns of b' in degree n read off the uncached faces, less the degenerate words."""
    cols = []
    for g in bar.generators(n):
        col = {}
        for p, c in enumerate(bar.U.unit):
            for w, d in reference_boundary_word(bar, (p,) + g).items() if c else ():
                if all(w[1:]):
                    col.setdefault(bar.gen_index(n - 1, w[1:]), [0] * bar.U.dim)[w[0]] += c * d
        cols.append({k: tuple(v) for k, v in col.items() if any(v)})
    return cols


def _permuted(data, seed):
    """data in a seeded random basis of U, through the export format; the unit moves off e_0."""
    perm = list(range(data.U.dim))
    random.Random(seed).shuffle(perm)
    moved = BialgebroidData.from_json(permute_instance(data.to_json(), perm), name=data.name)
    assert moved.U.unit[0] == 0
    return moved


FINITE = ("kz2", "kz3", "qs3", "sweedler", "env-qeps", "env-qxq", "env-upper2", "monoid01")
DIFF_COLS_CASES = ([pytest.param(name, False, id=name) for name in FINITE]
                   + [pytest.param(name, True, id=f"{name}-permuted") for name in ("kz3", "qs3", "sweedler")])


@pytest.mark.parametrize("name, permuted", DIFF_COLS_CASES)
def test_diff_cols_match_uncached_faces(catalog, name, permuted):
    # the homotopy recursion against the alternating face sum, column by
    # column; env-qxq and env-upper2 have catalog tails that do not start
    # with the unit, and a permuted copy has its unit off the first basis vector
    data = _permuted(catalog[name].data, seed=1) if permuted else catalog[name].data
    top = 4 if name == "qs3" else 5
    bar = bar_resolution(data, top)
    for n in range(1, top + 1):
        for j, (got, want) in enumerate(zip(bar.diff_cols(n), _face_cols(bar, n), strict=True)):
            assert got == want, (n, bar.generators(n)[j])


def test_normalized_ext_tor_match_unnormalized(catalog):
    # Eilenberg-Mac Lane normalization: dropping the degenerate words
    # changes no Ext and no Tor, on every finite instance and module
    for name, inst in catalog.items():
        if inst.kind == "lie":
            continue
        bar = bar_resolution(inst.data, 4)
        full = UnnormalizedBar(inst.data, 4)
        for key, M in inst.modules.items():
            assert ext_dims(bar, M, 3) == ext_dims(full, M, 3), (name, key)
        for key, N in inst.right_modules.items():
            assert tor_dims(bar, N, 3) == tor_dims(full, N, 3), (name, key)


@pytest.mark.parametrize("name", ["env-qxq", "env-upper2"])
def test_normalized_bar_contractible_after_change_of_basis(catalog, name):
    # the catalog tail table of these two does not start with the unit,
    # so the bar resolution builds its own; the oracle keeps the catalog's
    data = catalog[name].data
    assert data.tails_l[0] != data.U.unit
    bar = bar_resolution(data, 3)
    assert bar.tails[0] == data.U.unit
    for res in (bar, UnnormalizedBar(data, 3)):
        for n in range(1, 4):
            for w in res.words(n):
                assert not res.boundary_elt(res.boundary_word(w))
        for n in range(4):
            assert _homotopy_identity_holds(res, n)


def test_bar_needs_the_unit_as_a_tail(catalog):
    # a <| action that kills the unit leaves no unit-first tail table
    data = copy.copy(catalog["kz2"].data)
    data.tri_r = [Matrix.zeros(2, 2)]
    with pytest.raises(ValidationError):
        bar_resolution(data, 2)

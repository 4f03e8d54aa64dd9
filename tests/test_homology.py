import pytest

from hopfhomology.algebras import FinDimAlgebra, ModuleRep, hom_over, tensor_over
from hopfhomology.ce import ce_resolution
from hopfhomology.errors import ValidationError, WindowExceededError
from hopfhomology.complexes import HomologySpace
from hopfhomology.homology import (
    chain_matrix,
    cochain_matrix,
    ext,
    ext_dims,
    resolution_independence,
    tor,
    tor_dims,
)
from hopfhomology.instances import (
    bimodule_a,
    bimodule_a_right,
    cyclic_group_algebra,
    group_algebra_from_table,
    enveloping_instance,
    q_times_q,
    s3_modules,
    _right_trivial_group,
)
from hopfhomology.linalg import Matrix, unit_vec, zero_vec
from hopfhomology.oracles import hochschild_cohomology_dims, hochschild_homology_dims
from hopfhomology.resolutions import bar_resolution


def test_ext0_group_trivial_is_one_dimensional():
    data = cyclic_group_algebra(3)
    bar = bar_resolution(data, 2)
    triv = ModuleRep(data.U, 1, "left", [Matrix([[1]])] * 3)
    assert ext(bar, triv, 0).dim == 1


def test_tor0_group_trivial():
    data = cyclic_group_algebra(2)
    bar = bar_resolution(data, 2)
    trivr = ModuleRep(data.U, 1, "right", [Matrix([[1]])] * 2)
    assert tor(bar, trivr, 0).dim == 1


def test_qs3_ext_vanishes_positive_degrees(qs3, qs3_bar):
    mods = s3_modules(qs3.data)
    assert ext_dims(qs3_bar, mods["trivial"], 3) == [1, 0, 0, 0]


def test_qs3_tor_vanishes_positive_degrees(qs3, qs3_bar):
    assert tor_dims(qs3_bar, _right_trivial_group(qs3.data), 3) == [1, 0, 0, 0]


def test_hochschild_matches_oracle_for_dual_numbers(env_qeps, env_qeps_bar):
    M = bimodule_a(env_qeps.data)
    N = bimodule_a_right(env_qeps.data)
    up = [ext(env_qeps_bar, M, n).dim for n in range(4)]
    down = [tor(env_qeps_bar, N, n).dim for n in range(4)]
    oracle_up = hochschild_cohomology_dims(env_qeps.data.A, 3)
    oracle_down = hochschild_homology_dims(env_qeps.data.A, 3)
    assert oracle_up == [2, 1, 1, 1]
    assert oracle_down == [2, 1, 1, 1]
    assert up == oracle_up
    assert down == oracle_down


def test_hochschild_semisimple_q_times_q():
    env = enveloping_instance(q_times_q(), "env-qxq")
    bar = bar_resolution(env, 3)
    M = bimodule_a(env)
    assert ext_dims(bar, M, 2) == [2, 0, 0]
    assert hochschild_cohomology_dims(env.A, 2) == [2, 0, 0]


def test_sweedler_ext_tor_period_two(sweedler):
    # the trivial module over Sweedler's algebra has two-periodic
    # (co)homology: dims 1, 0, 1, 0
    from hopfhomology.instances import sweedler_modules, sweedler_right_modules

    bar = bar_resolution(sweedler.data, 4)
    triv = sweedler_modules(sweedler.data)["trivial"]
    trivr = sweedler_right_modules(sweedler.data)["trivial"]
    assert ext_dims(bar, triv, 3) == [1, 0, 1, 0]
    assert tor_dims(bar, trivr, 3) == [1, 0, 1, 0]


def test_ext0_equals_hom_and_tor0_equals_tensor(env_qeps, env_qeps_bar):
    data = env_qeps.data
    M = bimodule_a(data)
    homs = hom_over(data.U, data.a_module(), M)
    assert ext(env_qeps_bar, M, 0).dim == homs.dim
    N = bimodule_a_right(data)
    t = tensor_over(data.U, N, data.a_module())
    assert tor(env_qeps_bar, N, 0).dim == t.dim


def test_window_exceeded(env_qeps_bar):
    M = bimodule_a(env_qeps_bar.data)
    with pytest.raises(WindowExceededError):
        ext(env_qeps_bar, M, 4)
    with pytest.raises(WindowExceededError):
        tor(env_qeps_bar, bimodule_a_right(env_qeps_bar.data), 4)


def test_ext_and_tor_refuse_a_module_of_the_other_side(env_qeps_bar):
    left = bimodule_a(env_qeps_bar.data)
    right = bimodule_a_right(env_qeps_bar.data)
    for call, M in ((ext, right), (ext_dims, right), (tor, left), (tor_dims, left)):
        with pytest.raises(ValidationError, match="module"):
            call(env_qeps_bar, M, 1)


def test_tor_boundary_is_the_right_action_on_each_block(catalog):
    # the boundary of n (x) g_k is the sum over d g_k = sum_j u_j g_j of
    # n.u_j (x) g_j, written here from the right action matrices alone
    for bar, _, rights in _ext_tor_cases(catalog):
        for N in rights.values():
            dn = N.dim
            for n in range(1, 3):
                expect = Matrix.zeros(bar.rank(n - 1) * dn, bar.rank(n) * dn)
                for k, col in enumerate(bar.diff_cols(n)):
                    for j, u in col.items():
                        act = N.act(list(u))
                        for a in range(dn):
                            for b in range(dn):
                                expect.rows[j * dn + a][k * dn + b] += act.rows[a][b]
                assert chain_matrix(bar, N, n) == expect


def test_classes_carry_cocycle_representatives(env_qeps, env_qeps_bar):
    M = bimodule_a(env_qeps.data)
    eg = ext(env_qeps_bar, M, 2)
    from hopfhomology.homology import cochain_matrix

    delta = cochain_matrix(env_qeps_bar, M, 2)
    for v in eg.representatives():
        assert all(x == 0 for x in delta.apply(v))
        assert any(eg.class_of(v))


def test_resolution_independence_same_resolution(env_qeps, env_qeps_bar):
    M = bimodule_a(env_qeps.data)
    iso = resolution_independence(env_qeps_bar, env_qeps_bar, M, 1)
    assert iso.forward == Matrix.identity(1)


def test_resolution_independence_round_trip(env_qeps, env_qeps_bar):
    M = bimodule_a(env_qeps.data)
    other = bar_resolution(env_qeps.data, 4)
    for n in range(3):
        iso = resolution_independence(env_qeps_bar, other, M, n)
        assert iso.bijective
        assert (iso.forward @ iso.backward) == Matrix.identity(iso.forward.nrows)


def _ext_tor_cases(catalog):
    """(bar resolution, left modules, right modules) of three instances."""
    for name in ("kz3", "sweedler", "env-qeps"):
        inst = catalog[name]
        yield bar_resolution(inst.data, 3), inst.modules, inst.right_modules


def test_ext_tor_match_dense_homology_spaces(catalog):
    # Ext and Tor build their cycles and boundaries from their sparse
    # differentials; the reference reads the dense coboundary and boundary
    # matrices, rows for the cycles and columns for the boundaries
    for bar, lefts, rights in _ext_tor_cases(catalog):
        for M in lefts.values():
            for n in range(3):
                d_in = cochain_matrix(bar, M, n - 1).transpose().sparse_rows() if n else []
                d_out = cochain_matrix(bar, M, n)
                dense = HomologySpace(d_out.ncols, d_out.sparse_rows(), d_in)
                eg = ext(bar, M, n)
                assert eg.dim == dense.dim
                assert eg.cycles == dense.cycles
                assert eg.representatives() == dense.representatives()
        for N in rights.values():
            for n in range(3):
                d_out = chain_matrix(bar, N, n) if n else Matrix.zeros(0, bar.rank(0) * N.dim)
                d_in = chain_matrix(bar, N, n + 1).transpose().sparse_rows()
                dense = HomologySpace(d_out.ncols, d_out.sparse_rows(), d_in)
                tg = tor(bar, N, n)
                assert tg.dim == dense.dim
                assert tg.cycles == dense.cycles
                assert tg.representatives() == dense.representatives()


def test_homology_space_rejects_a_boundary_that_is_not_a_cycle():
    # d_out = (a, b) -> a leaves the cycles span(e_1), and d_in sends its one coordinate to e_0
    with pytest.raises(ValidationError, match="image vector is not a cycle"):
        HomologySpace(2, [{0: 1}], [{0: 1}])
    assert HomologySpace(2, [{0: 1}], [{1: 1}]).dim == 0


def _product_group_algebra(a, b):
    """Group algebra of Z/a x Z/b, element (i, j) at index i * b + j."""
    elements = [(i, j) for i in range(a) for j in range(b)]
    table = [
        [((i + k) % a) * b + (j + l) % b for (k, l) in elements] for (i, j) in elements
    ]
    inverse = [((-i) % a) * b + (-j) % b for (i, j) in elements]
    labels = [f"({i},{j})" for (i, j) in elements]
    return group_algebra_from_table(labels, table, inverse, f"z{a}xz{b}")


MASCHKE_GROUPS = [("cyclic", m) for m in range(1, 6)] + [
    ("product", (a, b)) for a in range(2, 6) for b in range(2, 6) if a * b <= 6
]


@pytest.mark.parametrize("kind,order", MASCHKE_GROUPS)
def test_maschke_group_algebras_have_no_higher_ext_or_tor(kind, order):
    # over Q every module of a finite group algebra is projective, so the
    # trivial module has Ext and Tor only in degree zero
    data = cyclic_group_algebra(order) if kind == "cyclic" else _product_group_algebra(*order)
    n = data.U.dim
    bar = bar_resolution(data, 3)
    triv = ModuleRep(data.U, 1, "left", [Matrix([[1]])] * n)
    trivr = ModuleRep(data.U, 1, "right", [Matrix([[1]])] * n)
    assert [ext(bar, triv, k).dim for k in range(3)] == [1, 0, 0]
    assert ext_dims(bar, triv, 2) == [1, 0, 0]
    assert [tor(bar, trivr, k).dim for k in range(3)] == [1, 0, 0]
    assert tor_dims(bar, trivr, 2) == [1, 0, 0]


def test_dims_match_groups_on_every_instance(catalog):
    # ext and tor print ext_dims/tor_dims; cup, cap and duality read the
    # groups, so both paths must give the same numbers
    for name, inst in catalog.items():
        if inst.kind == "lie":
            res, top = ce_resolution(inst.data, validate=False), inst.data.dim
        else:
            res, top = bar_resolution(inst.data, 4), 3
        for key, M in inst.modules.items():
            expect = [ext(res, M, n).dim for n in range(top + 1)]
            assert ext_dims(res, M, top) == expect, (name, key)
        for key, N in inst.right_modules.items():
            expect = [tor(res, N, n).dim for n in range(top + 1)]
            assert tor_dims(res, N, top) == expect, (name, key)


def _truncated_polynomials(k):
    """Q[x]/(x^k) on the basis 1, x, .., x^(k-1)."""
    mult = [[unit_vec(k, i + j) if i + j < k else zero_vec(k) for j in range(k)] for i in range(k)]
    return FinDimAlgebra(k, [f"x^{i}" for i in range(k)], mult, unit_vec(k, 0))


@pytest.mark.parametrize("k,expect", [(1, [1, 0, 0, 0]), (2, [2, 1, 1, 1]), (3, [3, 2, 2, 2])])
def test_truncated_polynomial_envelope_matches_hochschild(k, expect):
    # Ext and Tor of A over its enveloping algebra are Hochschild
    # cohomology and homology: the center of Q[x]/(x^k) in degree 0 and
    # k - 1 in every positive degree
    A = _truncated_polynomials(k)
    data = enveloping_instance(A, f"env-x{k}")
    bar = bar_resolution(data, 4)
    assert ext_dims(bar, bimodule_a(data), 3) == hochschild_cohomology_dims(A, 3) == expect
    assert tor_dims(bar, bimodule_a_right(data), 3) == hochschild_homology_dims(A, 3) == expect

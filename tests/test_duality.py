import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as Q
from math import comb

import pytest

from hopfhomology.algebras import ModuleRep
from hopfhomology.bialgebroid import galois_map
from hopfhomology.ce import CEResolution
from hopfhomology.cli import run
from hopfhomology.duality import (
    bullet_omega_underived,
    cap_omega_underived,
    delta_chain_check_ug,
    delta_underived,
    detect_duality_ug,
    dual_bases,
    duality_isomorphism_ug,
)
from hopfhomology import ce, duality
from hopfhomology.errors import NotDualityError, NotProjectiveError, ValidationError
from hopfhomology.homology import tor
from hopfhomology.instances import (
    cyclic_group_algebra,
    lie_abelian,
    lie_nonabelian2,
    lie_sl2,
    s3_modules,
)
from hopfhomology.linalg import Matrix, modular_rank, sparse_axpy
from hopfhomology.oracles import lie_cohomology_dims, lie_homology_dims
from hopfhomology.pbw import LieAlgebraData, LieModule, mono_one, tensor_right_lie
from hopfhomology.products import CEProducts


def _right_version(data, left):
    inv = data.group_inverse
    return ModuleRep(data.U, left.dim, "right", [left.action[inv[i]] for i in range(data.U.dim)])


@pytest.fixture(scope="module")
def qs3_dual(qs3):
    return dual_bases(qs3.data, s3_modules(qs3.data)["trivial"], generators=[[Q(1)]])


def test_dual_basis_regular_module():
    data = cyclic_group_algebra(2)
    reg = ModuleRep.regular_left(data.U)
    db = dual_bases(data, reg, generators=[[Q(1), Q(0)]])
    # e^1 is the identity of Hom(U, U), omega is 1 (x) 1
    assert db.duals[0] == Matrix.identity(2)


def test_dual_basis_qs3_symmetrizer(qs3, qs3_dual):
    mat = qs3_dual.duals[0]
    assert mat == Matrix([[Q(1, 6)] for _ in range(6)])


def test_dual_system_identity(qs3, qs3_dual):
    # checked internally at construction; re-assert through the public data
    mods = s3_modules(qs3.data)
    triv = mods["trivial"]
    for a in range(triv.dim):
        acc = Q(0)
        for i, g in enumerate(qs3_dual.generators):
            u_val = qs3_dual.duals[i].col(a)
            acc += triv.act(u_val).apply(g)[0]
        assert acc == Q(1)


def test_omega_independent_of_generating_set(qs3, qs3_dual):
    mods = s3_modules(qs3.data)
    db2 = dual_bases(qs3.data, mods["trivial"], generators=[[Q(1)], [Q(2)]])
    assert db2.omega == qs3_dual.omega
    db3 = dual_bases(qs3.data, mods["trivial"], generators=[[Q(3)]])
    assert db3.omega == qs3_dual.omega


def test_not_projective_raises():
    # A is not projective over A (x) A^op when A has nonzero Hochschild
    # cohomology in positive degrees
    from hopfhomology.instances import enveloping_instance, dual_numbers, bimodule_a

    env = enveloping_instance(dual_numbers(), "env-qeps")
    with pytest.raises(NotProjectiveError):
        dual_bases(env, bimodule_a(env))


def test_delta_underived_bijective_all_modules(qs3, qs3_dual):
    mods = s3_modules(qs3.data)
    for name in ("trivial", "sign", "std2"):
        Mr = _right_version(qs3.data, mods[name])
        fwd, inv, src, tgt = delta_underived(qs3_dual, Mr)
        assert src.dim == tgt.dim
        if src.dim:
            assert (fwd @ inv) == Matrix.identity(tgt.dim)


def test_bullet_omega_underived_bijective(qs3, qs3_dual):
    # the evaluation phi -> sum_i e^i (x) phi(e_i) against the degree
    # zero class, bijective for every semisimple coefficient module
    mods = s3_modules(qs3.data)
    for name, want in (("trivial", 1), ("sign", 0), ("std2", 0), ("regular", 1)):
        fwd, src, tgt = bullet_omega_underived(qs3_dual, mods[name])
        assert src.dim == tgt.dim == want


def test_cap_omega_underived_bijective_all_modules(qs3, qs3_dual):
    h = galois_map(qs3.data)
    mods = s3_modules(qs3.data)
    expected_dims = {"trivial": 1, "sign": 0, "std2": 0}
    for name, want in expected_dims.items():
        fwd, src, tgt, tm = cap_omega_underived(h, mods[name], qs3_dual)
        assert src.dim == tgt.dim == want


def test_detect_duality_all_lie_instances():
    for g, want_weights in (
        (lie_abelian(1), [Q(0)]),
        (lie_abelian(2), [Q(0), Q(0)]),
        (lie_nonabelian2(), [Q(1), Q(0)]),
    ):
        dd = detect_duality_ug(g, bound=4)
        assert dd.dimension == g.dim
        assert dd.weights == want_weights
        assert dd.report.ok
        assert dd.astar.dim == 1


def test_lie_duality_builds_no_large_dense_matrix(monkeypatch):
    """detect_duality_ug and the adjoint report stay on sparse rows and columns."""
    shapes = []
    init, zeros, own = Matrix.__init__, Matrix.zeros.__func__, Matrix._own.__func__

    def tracked_init(self, rows, ncols=None):
        init(self, rows, ncols)
        shapes.append((self.nrows, self.ncols))

    def tracked_zeros(cls, nrows, ncols):
        shapes.append((nrows, ncols))
        return zeros(cls, nrows, ncols)

    def tracked_own(cls, rows, ncols):
        shapes.append((len(rows), ncols))
        return own(cls, rows, ncols)

    monkeypatch.setattr(Matrix, "__init__", tracked_init)
    monkeypatch.setattr(Matrix, "zeros", classmethod(tracked_zeros))
    monkeypatch.setattr(Matrix, "_own", classmethod(tracked_own))
    with redirect_stdout(io.StringIO()):
        assert run(["duality", "lie-sl2", "--module", "adjoint"]) == 0
    assert shapes
    largest = max(shapes, key=lambda s: s[0] * s[1])
    assert largest[0] * largest[1] <= 10**4, largest


def test_detect_duality_rejects_truncated_complex(monkeypatch):
    # a complex that is not a resolution: drop the top ce term
    g = lie_abelian(2)

    class Truncated(CEResolution):
        def rank(self, n):
            return 0 if n >= 2 else super().rank(n)

        def diff_cols(self, n):
            return [] if n >= 2 else super().diff_cols(n)

    res = Truncated(g, validate=False)
    # detect_duality_ug imports CEResolution from its home module when it runs
    monkeypatch.setattr("hopfhomology.ce.CEResolution", lambda gg, validate=True: res)
    with pytest.raises(NotDualityError):
        detect_duality_ug(g, bound=3)


@pytest.mark.parametrize("name", ["lie-abelian2", "lie-nonabelian2", "lie-sl2"])
def test_exact_fallback_gives_the_same_report(name, catalog, monkeypatch):
    """Ranks mod p one short certify no window, so every window takes the exact fallback."""
    g = catalog[name].data
    certified = detect_duality_ug(g, bound=3)
    fallbacks = []
    hit = duality._hit_in_window

    def recording(*args):
        fallbacks.append(args)
        return hit(*args)

    monkeypatch.setattr(duality, "modular_rank", lambda rows: modular_rank(rows) - 1)
    monkeypatch.setattr(duality, "_hit_in_window", recording)
    exact = detect_duality_ug(g, bound=3)
    assert fallbacks
    assert (exact.report.checks, exact.report.failures) == (
        certified.report.checks, certified.report.failures)
    assert exact.weights == certified.weights


def test_zero_differential_reports_every_window(monkeypatch):
    # with d_1 = 0 on k, every window F_m of P*_0 is kernel, of dimension m + 1
    g = lie_abelian(1)

    class Zero(CEResolution):
        def diff_cols(self, n):
            return [{} for _ in super().diff_cols(n)]

    res = Zero(g, validate=False)
    monkeypatch.setattr("hopfhomology.ce.CEResolution", lambda gg, validate=True: res)
    with pytest.raises(NotDualityError, match=r"\[\(0, 0, 1\), \(0, 1, 2\), \(0, 2, 3\)\]"):
        detect_duality_ug(g, bound=2)


def test_window_maps_that_do_not_compose_to_zero_raise(monkeypatch):
    # d_1 d_2 != 0: one entry of the top ce differential of k^2 is doubled
    g = lie_abelian(2)

    class Corrupted(CEResolution):
        def diff_cols(self, n):
            cols = super().diff_cols(n)
            return [{1: {(1, 0): 2}, 0: cols[0][0]}] if n == 2 else cols

    res = Corrupted(g, validate=False)
    monkeypatch.setattr("hopfhomology.ce.CEResolution", lambda gg, validate=True: res)
    with pytest.raises(ValidationError, match="compose to zero"):
        detect_duality_ug(g, bound=3)


def test_top_primal_window_with_a_kernel_fails_primal_exactness(monkeypatch):
    # P_2 -> P_1 of k^2 on the coefficient window of degree 1 loses its last
    # column, so that window has a one dimensional kernel and no other
    g = lie_abelian(2)
    free_map = ce.bounded_free_map
    hit = []

    def one_column_lost(g, cols, src, dst, entries_act="right"):
        out = free_map(g, cols, src, dst, entries_act)
        if entries_act == "right" and src.rank == 1 and src.bound == 1:
            hit.append(len(out))
            out[-1] = {}
        return out

    monkeypatch.setattr(ce, "bounded_free_map", one_column_lost)
    dd = detect_duality_ug(g, bound=3)
    assert hit
    assert dd.report.checks["primal_resolution_exact"] is False
    assert dd.report.failures == ["primal_resolution_exact"]


def test_delta_chain_check(qs3):
    for g in (lie_abelian(2), lie_nonabelian2()):
        dd = detect_duality_ug(g, bound=3)
        assert delta_chain_check_ug(dd, LieModule.trivial(g, side="right"))
        assert delta_chain_check_ug(dd, dd.astar)


def test_delta_chain_check_sees_one_corrupted_dual_entry():
    # both sides must be read: a check that reads either side twice passes here
    g = lie_sl2()
    dd = detect_duality_ug(g, bound=3)
    for Mr in (LieModule.trivial(g, side="right"), dd.astar):
        assert delta_chain_check_ug(dd, Mr)
    cols = [dict(col) for col in dd.dual_cols[2]]
    p, col = next((p, col) for p, col in enumerate(cols) if col)
    q = next(iter(col))
    col[q] = sparse_axpy(dict(col[q]), 1, {mono_one(g.dim): 1})  # acts as entry + 1
    dd.dual_cols = {**dd.dual_cols, 2: cols}
    for Mr in (LieModule.trivial(g, side="right"), dd.astar):
        assert not delta_chain_check_ug(dd, Mr)


def test_fundamental_class_is_nontrivial_cycle():
    g = lie_nonabelian2()
    dd = detect_duality_ug(g, bound=4)
    tg = tor(dd.resolution, dd.astar, dd.dimension)
    assert tg.dim == 1
    assert any(tg.class_of(dd.omega))


def test_duality_isomorphism_abelian2_binomial_profile():
    g = lie_abelian(2)
    dd = detect_duality_ug(g, bound=4)
    pr = CEProducts(dd.resolution)
    triv = LieModule.trivial(g)
    for m in range(3):
        mat, eg, tg = duality_isomorphism_ug(pr, dd, triv, m)
        assert eg.dim == comb(2, m)
        assert tg.dim == comb(2, 2 - m)


def test_duality_isomorphism_nonabelian_profile_and_oracle():
    g = lie_nonabelian2()
    dd = detect_duality_ug(g, bound=4)
    pr = CEProducts(dd.resolution)
    triv = LieModule.trivial(g)
    ext_dims = []
    tor_dims = []
    for m in range(3):
        mat, eg, tg = duality_isomorphism_ug(pr, dd, triv, m)
        ext_dims.append(eg.dim)
        tor_dims.append(tg.dim)
    assert ext_dims == [1, 1, 0]
    assert tor_dims == [1, 1, 0]
    # the independent classical-formula oracle confirms both profiles
    assert lie_cohomology_dims(g, triv, 2) == [1, 1, 0]
    twisted = tensor_right_lie(g, triv, dd.astar)
    hdims = lie_homology_dims(g, twisted, 2)
    assert [hdims[2 - m] for m in range(3)] == [1, 1, 0]


def test_duality_isomorphism_adjoint_coefficients():
    for g in (lie_abelian(2), lie_nonabelian2()):
        dd = detect_duality_ug(g, bound=4)
        pr = CEProducts(dd.resolution)
        adj = LieModule.adjoint(g)
        for m in range(g.dim + 1):
            mat, eg, tg = duality_isomorphism_ug(pr, dd, adj, m)
            assert eg.dim == tg.dim


def test_duality_sl2_unimodular_whitehead_profile():
    from hopfhomology.instances import lie_sl2

    g = lie_sl2()
    dd = detect_duality_ug(g, bound=3)
    assert dd.dimension == 3
    assert dd.weights == [Q(0), Q(0), Q(0)]  # unimodular
    assert dd.report.ok
    pr = CEProducts(dd.resolution)
    triv = LieModule.trivial(g)
    dims = []
    for m in range(4):
        mat, eg, tg = duality_isomorphism_ug(pr, dd, triv, m)
        assert eg.dim == tg.dim
        dims.append(eg.dim)
    assert dims == [1, 0, 0, 1]


def test_duality_certificates_stable_under_larger_window():
    dd4 = detect_duality_ug(lie_nonabelian2(), bound=4)
    dd6 = detect_duality_ug(lie_nonabelian2(), bound=6)
    assert dd4.weights == dd6.weights
    assert dd4.report.ok and dd6.report.ok


def test_underived_duality_semisimple_hochschild():
    from hopfhomology.instances import bimodule_a, enveloping_instance, q_times_q

    env = enveloping_instance(q_times_q(), "env-qxq")
    h = galois_map(env)
    A = bimodule_a(env)
    db = dual_bases(env, A)
    fwd, src, tgt, tm = cap_omega_underived(h, A, db)
    assert src.dim == tgt.dim == 2


def test_ext_into_the_ring_concentrates_in_top_degree():
    # dimension 1: the dual complex has Ext^0(k, U) = 0 and a rank one
    # cokernel at the top; checked here through the public detector
    dd = detect_duality_ug(lie_abelian(1), bound=5)
    assert dd.report.checks["ext_vanishing_below_top"]
    assert dd.report.checks["dualizing_module_rank_one"]
    assert dd.report.checks["double_dual_trivial"]


def _semidirect(D, name):
    """g = k.x |x V with [x, v] = D v and V abelian; basis x, v_1, .., v_m."""
    m = len(D)
    d = m + 1
    c = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    for j in range(m):
        image = [Q(0)] + [Q(D[i][j]) for i in range(m)]
        c[0][j + 1] = image
        c[j + 1][0] = [-a for a in image]
    return LieAlgebraData(d, c, name=name)


SEMIDIRECT = {
    "zero": [[0, 0], [0, 0]],
    "diag(1,2)": [[1, 0], [0, 2]],
    "diag(1,-1)": [[1, 0], [0, -1]],
    "rotation": [[0, -1], [1, 0]],
    "jordan": [[1, 1], [0, 1]],
    "nilpotent": [[0, 1], [0, 0]],
    "[2]": [[2]],
}


@pytest.mark.parametrize("name", sorted(SEMIDIRECT))
def test_semidirect_products_match_oracles_and_adjoint_trace(name):
    from hopfhomology.ce import ce_resolution
    from hopfhomology.homology import ext_dims, tor_dims

    D = SEMIDIRECT[name]
    g = _semidirect(D, name)
    res = ce_resolution(g, validate=False)
    adj = LieModule.adjoint(g)
    # a right module from a left one: m.x = -x.m
    adj_right = LieModule(g, g.dim, "right", [-a for a in adj.gen])
    trivial = (LieModule.trivial(g), LieModule.trivial(g, side="right"))
    for left, right in (trivial, (adj, adj_right)):
        assert ext_dims(res, left, g.dim) == lie_cohomology_dims(g, left, g.dim)
        assert tor_dims(res, right, g.dim) == lie_homology_dims(g, right, g.dim)
    dd = detect_duality_ug(g)
    trace = sum(Q(D[i][i]) for i in range(len(D)))
    assert dd.weights == [trace] + [Q(0)] * len(D)
    assert dd.report.ok


@pytest.mark.parametrize("name, bound, short, want", [
    ("lie-sl2", 4, False, 34),
    ("lie-nonabelian2", 6, False, 30),
    ("lie-abelian2", 3, True, 26),
])
def test_each_window_map_is_built_once(name, bound, short, want, catalog, monkeypatch):
    """The walks, the fallback, the top cokernel and the double dual share one window table."""
    free_map = ce.bounded_free_map
    built = []

    def counting(g, cols, src, dst, entries_act="right"):
        built.append((entries_act, src.bound, dst.bound, repr(cols)))
        return free_map(g, cols, src, dst, entries_act)

    monkeypatch.setattr(ce, "bounded_free_map", counting)
    if short:  # every window takes the exact fallback
        monkeypatch.setattr(duality, "modular_rank", lambda rows: modular_rank(rows) - 1)
    assert detect_duality_ug(catalog[name].data, bound=bound).report.ok
    assert len(set(built)) == len(built) == want


@pytest.mark.parametrize("cols, match", [
    # d_2 = 0: every window of P*_1 is kernel, and the image of P*_0 hits none of it
    ({2: [{}]}, r"below the top degree: \[\(1, 0, 2\), \(1, 1, 6\), \(1, 2, 12\)\]"),
    # d_1 = (1, 0), d_2 = (0, x_0): exact below the top, whose cokernel U / x_0 U is not one dimensional
    ({1: [{0: {(0, 0): 1}}, {}], 2: [{1: {(1, 0): 1}}]}, "top cokernel is not one dimensional"),
])
def test_complexes_that_are_not_dualizing_raise(cols, match, monkeypatch):
    g = lie_abelian(2)

    class Replaced(CEResolution):
        def diff_cols(self, n):
            return cols.get(n) or super().diff_cols(n)

    res = Replaced(g, validate=False)
    monkeypatch.setattr("hopfhomology.ce.CEResolution", lambda gg, validate=True: res)
    with pytest.raises(NotDualityError, match=match):
        detect_duality_ug(g, bound=2)


def test_a_resolution_of_a_nontrivial_character_names_the_failed_checks(monkeypatch):
    # the Koszul complex of x_0 - 1 resolves the character x_0 -> 1 of
    # U(lie-abelian1): Ext vanishes below the top and the top cokernel is
    # one dimensional, but x_0 acts on it by 1, not by the trace 0, and
    # the fundamental class of the trivial twist is no cycle
    g = lie_abelian(1)

    class Shifted(CEResolution):
        def diff_cols(self, n):
            return [{0: {(1,): 1, (0,): -1}}] if n == 1 else super().diff_cols(n)

    res = Shifted(g, validate=False)
    monkeypatch.setattr("hopfhomology.ce.CEResolution", lambda gg, validate=True: res)
    with pytest.raises(NotDualityError, match="adjoint_trace_twist, double_dual_trivial"):
        detect_duality_ug(g, bound=2)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["duality", "lie-abelian1", "--pbw-bound", "2"]) == 1
    report = json.loads(out.getvalue())
    assert report["failure"] == "NotDualityError"
    assert "adjoint_trace_twist" in report["witnesses"][0]


def test_a_kernel_is_hit_only_when_every_row_is():
    from hopfhomology.linalg import Subspace

    g = lie_abelian(1)
    src, V = ce.BoundedBasis(g, 1, 1), ce.BoundedBasis(g, 1, 2)  # coefficients 1, x and 1, x, x^2
    into = [{V.index[0, (0,)]: 1}]  # the map into V hits the constants only
    assert duality._hit_in_window(Subspace(src.dim, [{src.index[0, (0,)]: 1}]), src, [(V, into)])
    assert not duality._hit_in_window(Subspace(src.dim, [{0: 1}, {1: 1}]), src, [(V, into)])

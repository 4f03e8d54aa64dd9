"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Each test prints a single summary line when its criterion holds; a
failing assertion marks the criterion red in the pytest report.  Run
with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from fractions import Fraction as Q

import pytest

from hopfhomology.bialgebroid import (
    check_schauenburg,
    check_takeuchi,
    galois_map,
    unit_iso,
)
from hopfhomology.ce import ce_resolution, ce_vs_bar_ext
from hopfhomology.cli import run as cli_run
from hopfhomology.duality import (
    bullet_omega_underived,
    cap_omega_underived,
    delta_chain_check_ug,
    delta_underived,
    detect_duality_ug,
    dual_bases,
    duality_isomorphism_ug,
)
from hopfhomology.errors import NotInvertibleError
from hopfhomology.homology import ext, tor
from hopfhomology.instances import (
    bimodule_a,
    bimodule_a_right,
    lie_abelian,
    lie_nonabelian2,
    s3_modules,
)
from hopfhomology.algebras import ModuleRep
from hopfhomology.linalg import Matrix
from hopfhomology.oracles import (
    hochschild_cohomology_dims,
    hochschild_homology_dims,
    lie_cohomology_dims,
    lie_homology_dims,
)
from hopfhomology.pbw import LieModule, tensor_right_lie, ug_hopf_report
from hopfhomology.products import CEProducts, transport_cochain


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS ({text})")


def test_criterion_01_bialgebroid_axioms(catalog):
    start = time.time()
    for name, inst in catalog.items():
        if inst.kind == "findim":
            rep = check_takeuchi(inst.data)
            assert rep.ok, (name, rep.failures)
            h = galois_map(inst.data)
            srep = check_schauenburg(h)
            assert srep.ok, (name, srep.failures)
        elif inst.kind == "lie":
            checks = ug_hopf_report(inst.data, bound=3)
            assert all(checks.values()), (name, checks)
        else:
            with pytest.raises(NotInvertibleError):
                galois_map(inst.data)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"sweeps took {elapsed:.2f}s"
    _report(1, f"all instances swept in {elapsed:.2f}s, control not invertible")


def _contractible_through_degree(bar, top):
    for n in range(1, top + 1):
        for w in bar.words(n):
            if bar.boundary_elt(bar.boundary_word(w)):
                return False
    for n in range(0, top + 1):
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


def test_criterion_02_bar_contractibility(qs3_bar, env_qeps_bar):
    for bar in (qs3_bar, env_qeps_bar):
        # the normalized words: no tail is the unit, tail 0
        assert all(all(w[1:]) for w in bar.words(4))
        assert _contractible_through_degree(bar, 4)
    _report(2, "b'b' = 0 and b's + sb' = id on normalized words through degree 4 for qs3 and env-qeps")


def test_criterion_03_hochschild_oracle_equivalence(env_qeps, env_qeps_bar):
    A = bimodule_a(env_qeps.data)
    N = bimodule_a_right(env_qeps.data)
    engine_up = [ext(env_qeps_bar, A, n).dim for n in range(4)]
    engine_down = [tor(env_qeps_bar, N, n).dim for n in range(4)]
    oracle_up = hochschild_cohomology_dims(env_qeps.data.A, 3)
    oracle_down = hochschild_homology_dims(env_qeps.data.A, 3)
    assert engine_up == oracle_up == [2, 1, 1, 1]
    assert engine_down == oracle_down == [2, 1, 1, 1]
    _report(3, f"engine and oracle agree on {engine_up}")


def test_criterion_04_composition_cup_sign_rule(env_qeps, env_qeps_bar, env_qeps_products):
    checked = 0
    data = env_qeps.data
    bar = env_qeps_bar
    pr = env_qeps_products
    A = bimodule_a(data)
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
                    cy = target.class_of(y)
                    c1c = target.class_of(
                        transport_cochain(bar.rank(m + n), iso, c1, tm1.space.dim)
                    )
                    c2c = target.class_of(
                        transport_cochain(bar.rank(m + n), iso, c2, tm2.space.dim)
                    )
                    assert cy == c1c
                    assert c1c == [Q(-1) ** (m * n) * x for x in c2c]
                    checked += 1
    g = lie_abelian(2)
    res = ce_resolution(g, validate=False)
    cpr = CEProducts(res)
    triv = LieModule.trivial(g)
    cgroups = {n: ext(res, triv, n) for n in range(4)}
    for m in range(4):
        for n in range(4 - m):
            for phi in cgroups[m].representatives():
                for psi in cgroups[n].representatives():
                    y = cpr.yoneda(m, n, phi, psi, triv)
                    c1, _ = cpr.cup(m, n, phi, psi, triv, triv)
                    c2, _ = cpr.cup(n, m, psi, phi, triv, triv)
                    target = cgroups[m + n]
                    assert target.class_of(y) == target.class_of(c1)
                    assert target.class_of(c1) == [
                        Q(-1) ** (m * n) * x for x in target.class_of(c2)
                    ]
                    checked += 1
    _report(4, f"composition = cup = signed swapped cup on {checked} class pairs")


def test_criterion_05_evaluation_equals_cap(env_qeps, env_qeps_bar, env_qeps_products):
    checked = 0
    for g in (lie_abelian(2), lie_nonabelian2()):
        res = ce_resolution(g, validate=False)
        pr = CEProducts(res)
        triv = LieModule.trivial(g)
        trivr = LieModule.trivial(g, side="right")
        groups = {n: ext(res, triv, n) for n in range(g.dim + 1)}
        for m in range(g.dim + 1):
            for n in range(m, g.dim + 1):
                tg = tor(res, trivr, n)
                for phi in groups[m].representatives():
                    for z in tg.representatives():
                        b = pr.bullet(m, phi, z, n, trivr)
                        cp, tm = pr.cap(m, phi, z, n, triv, trivr)
                        tout = tor(res, trivr, n - m)
                        tout2 = tor(res, tm, n - m)
                        assert tout.class_of(b) == tout2.class_of(cp)
                        checked += 1
    _report(5, f"evaluation and cap agree on {checked} pairs over both envelopes")


def test_criterion_06_degree_zero_duality(qs3):
    data = qs3.data
    mods = s3_modules(data)
    h = galois_map(data)
    db = dual_bases(data, mods["trivial"], generators=[[Q(1)]])

    def right_version(left):
        inv = data.group_inverse
        return ModuleRep(data.U, left.dim, "right", [left.action[inv[i]] for i in range(data.U.dim)])

    for name in ("trivial", "sign", "std2"):
        fwd, inv_m, src, tgt = delta_underived(db, right_version(mods[name]))
        assert src.dim == tgt.dim
        if src.dim:
            assert (fwd @ inv_m) == Matrix.identity(tgt.dim)
        ev, esrc, etgt = bullet_omega_underived(db, mods[name])
        assert esrc.dim == etgt.dim
        cap, hsrc, htgt, _ = cap_omega_underived(h, mods[name], db)
        assert hsrc.dim == htgt.dim
    db2 = dual_bases(data, mods["trivial"], generators=[[Q(1)], [Q(2)]])
    assert db2.omega == db.omega
    _report(6, "delta, evaluation and cap at degree zero all bijective; omega invariant")


def test_criterion_07_dualized_resolution():
    for g in (lie_abelian(1), lie_abelian(2), lie_nonabelian2()):
        dd = detect_duality_ug(g, bound=4)
        assert dd.dimension == g.dim
        assert dd.report.checks["ext_vanishing_below_top"]
        assert dd.report.checks["dualizing_module_rank_one"]
        assert dd.report.checks["adjoint_trace_twist"]
        assert dd.report.checks["double_dual_trivial"]
        assert delta_chain_check_ug(dd, LieModule.trivial(g, side="right"))
        assert delta_chain_check_ug(dd, dd.astar)
    _report(7, "Ext(A,U) concentrated on top, dual complex exact, double dual trivial")


def test_criterion_08_poincare_duality():
    start = time.time()
    profiles = {}
    for g in (lie_abelian(1), lie_abelian(2), lie_nonabelian2()):
        dd = detect_duality_ug(g, bound=4)
        pr = CEProducts(dd.resolution)
        for mod_name, M in (("trivial", LieModule.trivial(g)), ("adjoint", LieModule.adjoint(g))):
            dims = []
            for m in range(g.dim + 1):
                mat, eg, tg = duality_isomorphism_ug(pr, dd, M, m)
                assert eg.dim == tg.dim
                if eg.dim:
                    assert mat.rank() == eg.dim
                dims.append(eg.dim)
            profiles[(g.name, mod_name)] = dims
    assert profiles[("lie-nonabelian2", "trivial")] == [1, 1, 0]
    g = lie_nonabelian2()
    dd = detect_duality_ug(g, bound=4)
    triv = LieModule.trivial(g)
    assert lie_cohomology_dims(g, triv, 2) == [1, 1, 0]
    twisted = tensor_right_lie(g, triv, dd.astar)
    hdims = lie_homology_dims(g, twisted, 2)
    assert [hdims[2 - m] for m in range(3)] == [1, 1, 0]
    elapsed = time.time() - start
    assert elapsed < 10.0, f"duality checks took {elapsed:.2f}s"
    _report(8, f"cap with the fundamental class bijective in {elapsed:.2f}s; profiles {profiles}")


def test_criterion_09_resolution_independence():
    for g, expect in ((lie_abelian(1), [1, 1, 0]), (lie_abelian(2), [1, 2, 1])):
        ce_dims, bar_dims, bij = ce_vs_bar_ext(g, LieModule.trivial(g), 2, 4)
        assert ce_dims == bar_dims == expect
        assert all(bij)
    _report(9, "Koszul and truncated bar Ext dimensions agree with bijective comparison")


ACCEPTANCE_COMMANDS = [
    ["instances", "list"],
    ["verify-hopf", "sweedler"],
    ["verify-hopf", "lie-nonabelian2"],
    ["ext", "qs3", "--module", "trivial", "--max-degree", "3"],
    ["tor", "lie-abelian2", "--module", "trivial", "--max-degree", "2"],
    ["cup", "lie-abelian2", "--max-total", "2"],
    ["cap", "lie-nonabelian2", "--max-degree", "2"],
    ["duality", "lie-nonabelian2", "--module", "trivial"],
    ["oracle", "hochschild", "qeps", "--max-degree", "3"],
]


def test_criterion_10_cli_determinism(capsys):
    for argv in ACCEPTANCE_COMMANDS:
        code1 = cli_run(argv)
        out1 = capsys.readouterr().out
        code2 = cli_run(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
        json.loads(out1)
    _report(10, f"{len(ACCEPTANCE_COMMANDS)} commands byte-identical across runs")

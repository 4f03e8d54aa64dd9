import json
from fractions import Fraction as Q

import pytest

from builders import permute_instance
from hopfhomology.algebras import FinDimAlgebra, ModuleRep
from hopfhomology.instances import dual_numbers
from hopfhomology.pbw import LieModule


def test_catalog_contents(catalog):
    names = set(catalog)
    assert {"kz2", "kz3", "qs3", "sweedler", "env-qeps", "env-qxq", "env-upper2",
            "monoid01", "lie-abelian1", "lie-abelian2", "lie-nonabelian2", "lie-sl2"} <= names


def test_catalog_kinds_and_flags(catalog):
    assert catalog["monoid01"].expect_hopf is False
    for name in ("kz2", "qs3", "sweedler", "env-qeps"):
        assert catalog[name].expect_hopf
    for name, inst in catalog.items():
        assert inst.kind in ("findim", "lie", "control")


def test_group_inverse_tables(catalog):
    for name in ("kz2", "kz3", "qs3"):
        data = catalog[name].data
        inv = data.group_inverse
        U = data.U
        for g in range(U.dim):
            prod = U.multiply([Q(1) if i == g else Q(0) for i in range(U.dim)],
                              [Q(1) if i == inv[g] else Q(0) for i in range(U.dim)])
            assert prod == U.unit


def test_modules_validate(catalog):
    # a Lie entry carries the modules that ext, tor, cup, cap and duality offer
    for name, inst in catalog.items():
        kind = LieModule if inst.kind == "lie" else ModuleRep
        for mod in inst.modules.values():
            assert isinstance(mod, kind) and mod.side == "left", name
        for mod in inst.right_modules.values():
            assert isinstance(mod, kind) and mod.side == "right", name
        if inst.kind == "lie":
            assert (sorted(inst.modules), sorted(inst.right_modules)) == (["adjoint", "trivial"], ["trivial"])


def test_algebra_json_round_trip():
    A = dual_numbers()
    blob = json.dumps(A.to_json(), sort_keys=True)
    back = FinDimAlgebra.from_json(json.loads(blob))
    assert back.mult == A.mult
    assert back.unit == A.unit


def test_module_json_round_trip():
    A = dual_numbers()
    reg = ModuleRep.regular_left(A)
    blob = json.dumps(reg.to_json(), sort_keys=True)
    back = ModuleRep.from_json(A, json.loads(blob))
    assert back.action == reg.action


def test_bialgebroid_json_round_trip(catalog):
    from hopfhomology.bialgebroid import BialgebroidData, check_takeuchi
    from hopfhomology.instances import CATALOG

    finite = [name for name, (kind, *_) in CATALOG.items() if kind != "lie"]
    assert len(finite) == 8
    for name in finite:
        data = catalog[name].data
        blob = json.loads(json.dumps(data.to_json(), sort_keys=True))
        back = BialgebroidData.from_json(blob, name=name)
        # export is a fixed point: reading a blob back exports it unchanged
        assert back.to_json() == blob, name
        assert back.delta == data.delta
        assert back.eps == data.eps
        assert check_takeuchi(back).ok, name


def test_sweedler_structure(catalog):
    U = catalog["sweedler"].data.U
    g = [Q(0), Q(1), Q(0), Q(0)]
    x = [Q(0), Q(0), Q(1), Q(0)]
    assert U.multiply(g, g) == [Q(1), Q(0), Q(0), Q(0)]
    assert U.multiply(x, x) == [Q(0)] * 4
    gx = U.multiply(g, x)
    xg = U.multiply(x, g)
    assert gx == [Q(0), Q(0), Q(0), Q(1)]
    assert xg == [Q(0), Q(0), Q(0), Q(-1)]


@pytest.mark.parametrize("name", ["kz3", "qs3", "sweedler"])
def test_permuted_basis_instance_matches_catalog(catalog, name, tmp_path):
    from hopfhomology.bialgebroid import BialgebroidData
    from hopfhomology.cli import run
    from hopfhomology.homology import ext_dims, tor_dims
    from hopfhomology.resolutions import bar_resolution

    inst = catalog[name]
    n = inst.data.U.dim
    catalog_bar = bar_resolution(inst.data, 3)
    for perm in ([(k + 1) % n for k in range(n)], list(reversed(range(n)))):
        path = tmp_path / f"{name}-permuted.json"
        path.write_text(json.dumps(permute_instance(inst.data.to_json(), perm)))
        assert run(["verify-hopf", str(path)]) == 0
        data = BialgebroidData.from_json(json.loads(path.read_text()), name=name)
        assert data.U.unit[0] == 0
        bar = bar_resolution(data, 3)
        for M in inst.modules.values():
            moved = ModuleRep(data.U, M.dim, "left", [M.action[p] for p in perm])
            assert ext_dims(bar, moved, 2) == ext_dims(catalog_bar, M, 2)
        for N in inst.right_modules.values():
            moved = ModuleRep(data.U, N.dim, "right", [N.action[p] for p in perm])
            assert tor_dims(bar, moved, 2) == tor_dims(catalog_bar, N, 2)

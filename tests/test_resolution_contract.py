"""One contract for every resolution that homology reads.

BarResolution on every finite catalog instance, CEResolution on every Lie
instance and UgBarComplex at PBW bound 3 are checked, in their windows,
through the interface alone: d d = 0 on every generator through times,
contract(j, d x) is a preimage of d x under d_j, act_left is
multiplicative on the entries diff_cols holds, the lift of a degree-0
class is a chain map, and a read past a window raises
WindowExceededError.
"""

from types import SimpleNamespace

import pytest

from hopfhomology.ce import UgBarComplex, ce_resolution
from hopfhomology.errors import WindowExceededError
from hopfhomology.homology import ext
from hopfhomology.instances import CATALOG
from hopfhomology.linalg import sparse_add
from hopfhomology.pbw import LieModule, mono_one
from hopfhomology.resolutions import bar_resolution

DEPTH = 3  # the bar depth
BOUND = 3  # the PBW bound of the bar model
PAIRS_FROM = 8  # act_left is compared on all pairs of the first distinct entries

CASES = (
    [("bar", name) for name, (kind, *_) in CATALOG.items() if kind != "lie"]
    + [("ce", name) for name, (kind, *_) in CATALOG.items() if kind == "lie"]
    + [("bar-model", name) for name in ("lie-abelian2", "lie-nonabelian2", "lie-sl2")]
)


def _case(kind, inst):
    """The resolution, its top degree, its unit entry, left modules and the class-specific parts."""
    if kind == "bar":
        data = inst.data
        res = bar_resolution(data, DEPTH)
        nu = data.U.dim
        return SimpleNamespace(
            res=res, top=DEPTH, one=tuple(data.U.unit), base=data.a_module(),
            modules=[data.a_module(), *inst.modules.values()],
            entry=lambda d: tuple(d.get(p, 0) for p in range(nu)),
            past=[lambda: res.rank(DEPTH + 1), lambda: res.diff_cols(DEPTH + 1)],
        )
    g = inst.data
    trivial = LieModule.trivial(g)
    common = dict(one={mono_one(g.dim): 1}, base=trivial, modules=[trivial, LieModule.adjoint(g)],
                  entry=dict)
    if kind == "ce":
        return SimpleNamespace(res=ce_resolution(g), top=g.dim, **common)
    res = UgBarComplex(g, BOUND)
    beyond = (BOUND + 1,) + (0,) * (g.dim - 1)
    past = [lambda: res.gen_index(1, (beyond,)), lambda: ext(res, trivial, BOUND)]
    return SimpleNamespace(res=res, top=BOUND, past=past, **common)


def _boundary(res, j, chain):
    """d_j of {generator of degree j: coefficient}, as {(basis key,) + generator: coeff}, through times."""
    below, cols, out = res.generators(j - 1), res.diff_cols(j), {}
    for G, coef in chain.items():
        for k, e in cols[res.gen_index(j, G)].items():
            for p, c in res.times(coef, e).items():
                sparse_add(out, (p,) + below[k], c)
    return out


def _key(entry):
    return tuple(entry.items()) if isinstance(entry, dict) else entry


def _cases(kinds):
    picked = [c for c in CASES if c[0] in kinds]
    return pytest.mark.parametrize("case", picked, ids=["-".join(c) for c in picked], indirect=True)


@pytest.fixture
def case(request, catalog):
    kind, name = request.param
    return _case(kind, catalog[name])


@_cases({"bar", "ce", "bar-model"})
def test_d_squared_is_zero_through_times(case):
    res = case.res
    for n in range(2, case.top + 1):
        below = res.generators(n - 1)
        for col in res.diff_cols(n):
            assert _boundary(res, n - 1, {below[k]: e for k, e in col.items()}) == {}


@_cases({"bar", "ce", "bar-model"})
def test_contract_is_a_preimage_of_every_boundary(case):
    res = case.res
    for j in range(1, case.top + 1):
        for x in res.generators(j):
            dx = _boundary(res, j, {x: case.one})
            assert _boundary(res, j, res.contract(j, dx)) == dx, (j, x)


@_cases({"bar", "ce", "bar-model"})
def test_act_left_is_multiplicative_on_the_differential_entries(case):
    res, entries = case.res, {}
    for n in range(1, case.top + 1):
        for col in res.diff_cols(n):
            for e in col.values():
                entries.setdefault(_key(e), e)
    sample = list(entries.values())[:PAIRS_FROM]
    assert sample
    for M in case.modules:
        for e1 in sample:
            for e2 in sample:
                product = case.entry(res.times(e1, e2))
                assert res.act_left(product, M) == res.act_left(e1, M) @ res.act_left(e2, M)


@_cases({"bar", "ce", "bar-model"})
def test_lift_of_a_degree_zero_class_is_a_chain_map(case):
    res = case.res
    classes = ext(res, case.base, 0).representatives()
    assert classes
    for phi in classes:
        na = case.base.dim
        f = res.lift(res, 0, [phi[k * na : (k + 1) * na] for k in range(res.rank(0))], case.top)
        for j in range(1, case.top + 1):
            below = res.generators(j - 1)
            for x, col in zip(res.generators(j), res.diff_cols(j)):
                f_of_dx = {}
                for k, e in col.items():
                    for K, coef in f[j - 1][below[k]].items():
                        for p, c in res.times(e, coef).items():
                            sparse_add(f_of_dx, (p,) + K, c)
                assert _boundary(res, j, f[j][x]) == f_of_dx, (j, x)


@_cases({"bar", "bar-model"})  # the Koszul resolution is complete: it has no window
def test_a_read_past_the_window_raises(case):
    assert case.past
    for read in case.past:
        with pytest.raises(WindowExceededError):
            read()

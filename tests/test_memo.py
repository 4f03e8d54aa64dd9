"""The one memo: a table per instance, keyed on every argument, that dies with its object."""

import gc
import weakref

import pytest

from hopfhomology.algebras import ModuleRep
from hopfhomology.ce import UgBarComplex, ce_resolution
from hopfhomology.homology import ext_dims
from hopfhomology.instances import builtin_instances, lie_nonabelian2
from hopfhomology.linalg import memoized
from hopfhomology.pbw import LieModule, mono_mul
from hopfhomology.products import CEProducts
from hopfhomology.resolutions import bar_resolution


class Recorder:
    def __init__(self):
        self.calls = []

    @memoized
    def pair(self, x, y):
        self.calls.append((x, y))
        return [x, y]


def test_memo_keys_on_every_positional_argument():
    r = Recorder()
    assert r.pair(1, 2) is r.pair(1, 2)
    assert r.pair(1, 3) == [1, 3]
    assert r.calls == [(1, 2), (1, 3)]
    assert set(r._memo["pair"]) == {(1, 2), (1, 3)}


def _kz2():
    return builtin_instances()["kz2"].data  # a fresh catalog builds fresh data


# (what is memoized, a fresh instance, a memoized call on it)
INSTANCES = [
    ("Recorder.pair", Recorder, lambda r: r.pair(1, 2)),
    ("FinDimAlgebra.product", lambda: _kz2().U, lambda U: U.product(1, 1)),
    ("BialgebroidData.a_module", _kz2, lambda data: data.a_module()),
    ("BarResolution.diff_cols", lambda: bar_resolution(_kz2(), 2), lambda bar: bar.diff_cols(2)),
    ("LieAlgebraData.mono_mul", lie_nonabelian2, lambda g: mono_mul(g, (1, 0), (0, 1))),
    ("LieModule.act_mono", lambda: LieModule.adjoint(lie_nonabelian2()), lambda M: M.act_mono((1, 1))),
    ("CEResolution.diff_cols", lambda: ce_resolution(lie_nonabelian2()), lambda ce: ce.diff_cols(1)),
    ("UgBarComplex.diff_cols", lambda: UgBarComplex(lie_nonabelian2(), 2), lambda bar: bar.diff_cols(2)),
    ("Products.lift_class", lambda: CEProducts(ce_resolution(lie_nonabelian2())),
     lambda pr: pr.lift_class(0, [1])),
]


@pytest.mark.parametrize("make, call", [i[1:] for i in INSTANCES], ids=[i[0] for i in INSTANCES])
def test_two_instances_never_share_a_table(make, call):
    a, b = make(), make()
    first, second = call(a), call(b)
    assert a._memo is not b._memo
    assert first is not second
    assert call(a) is first and call(b) is second


def test_a_bar_resolution_and_the_module_its_act_left_table_holds_are_collected():
    catalog = builtin_instances()
    data = catalog["kz2"].data
    bar, M = bar_resolution(data, 2), ModuleRep.regular_left(data.U)
    ext_dims(bar, M, 1)
    assert any(key[-1] is M for key in bar._memo["act_left"])
    refs = [weakref.ref(bar), weakref.ref(M)]
    del catalog, data, bar, M
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_bar_model_and_a_lie_module_are_collected_once_dropped():
    g = lie_nonabelian2()
    bar, M = UgBarComplex(g, 3), LieModule.adjoint(g)
    ext_dims(bar, M, 2)
    assert bar._memo["_act"] and M._memo["act_mono"]
    refs = [weakref.ref(bar), weakref.ref(M)]
    del bar, M
    gc.collect()
    assert [ref() for ref in refs] == [None, None]

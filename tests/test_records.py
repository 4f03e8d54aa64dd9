"""The small record classes keep their contract.

Each object gets its own containers, Instance keeps its short repr, and
the homology classes keep their equality and stay unhashable.
"""

import pytest

from hopfhomology.errors import TakeuchiReport
from hopfhomology.homology import CohomologyClass, HomologyClass
from hopfhomology.instances import Instance


def test_reports_never_share_their_containers():
    first, second = TakeuchiReport(), TakeuchiReport()
    first.record("coassociative", False, "witness")
    assert (second.checks, second.failures) == ({}, [])
    assert (first.checks, first.failures) == ({"coassociative": False}, ["witness"])
    assert not first.ok and second.ok


def test_instances_never_share_their_modules():
    first, second = Instance("a", "findim", None), Instance("b", "lie", None)
    first.modules["trivial"] = 1
    first.right_modules["trivial"] = 2
    assert (second.modules, second.right_modules) == ({}, {})


def test_instance_fields_and_repr():
    modules = {"A": 1}
    inst = Instance("kz2", "findim", "data", modules, right_modules={"A": 2},
                    description="group algebra", expect_hopf=False)
    assert inst.modules is modules
    assert (inst.name, inst.kind, inst.data, inst.right_modules) == ("kz2", "findim", "data", {"A": 2})
    assert (inst.description, inst.expect_hopf) == ("group algebra", False)
    assert repr(inst) == "Instance(kz2)"
    plain = Instance("lie-sl2", "lie", None)
    assert (plain.description, plain.expect_hopf) == ("", True)


def test_homology_class_compares_all_four_fields():
    h = HomologyClass(1, (1, 0), "res", "M")
    assert h == HomologyClass(1, (1, 0), "res", "M")
    for other in [(2, (1, 0), "res", "M"), (1, (0, 1), "res", "M"), (1, (1, 0), "bar", "M"),
                  (1, (1, 0), "res", "N")]:
        assert h != HomologyClass(*other)
    assert h != CohomologyClass(1, (1, 0), "res", "M")


def test_cohomology_class_compares_degree_and_vector():
    c = CohomologyClass(1, (1, 0), "res", "M")
    assert c == CohomologyClass(1, (1, 0), "bar", "N")
    assert c != CohomologyClass(2, (1, 0), "res", "M")
    assert c != CohomologyClass(1, (0, 1), "res", "M")
    assert c != HomologyClass(1, (1, 0), "res", "M")


@pytest.mark.parametrize("cls", [HomologyClass, CohomologyClass])
def test_homology_classes_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(cls(0, (1,), "res", "M"))

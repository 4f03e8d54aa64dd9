"""The small record classes keep their contract.

Each object gets its own containers and Instance keeps its short repr.
"""

from hopfhomology.errors import TakeuchiReport
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

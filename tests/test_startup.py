"""Start-up pays only for the command being run.

`import hopfhomology` loads no module of the package, `hopfhomology.cli`
loads only what every command shares, and a command builds only the
catalog instances it names.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import hopfhomology
from hopfhomology import instances
from hopfhomology.cli import run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _loaded_by(code):
    """The hopfhomology modules loaded after running code in a fresh interpreter."""
    listing = "print(json.dumps([m for m in sys.modules if m.startswith('hopfhomology')]))"
    probe = f"{code}\nimport json, sys\n{listing}"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_package_loads_no_submodule():
    assert _loaded_by("import hopfhomology") == {"hopfhomology"}


def test_import_cli_loads_no_computation_module():
    loaded = _loaded_by("import hopfhomology.cli")
    heavy = {"duality", "products", "ce", "resolutions", "homology", "complexes", "oracles"}
    assert not loaded & {f"hopfhomology.{name}" for name in heavy}


@pytest.fixture
def built(monkeypatch):
    """Names of the catalog entries built while the test runs, in order."""
    names = []
    for name, (kind, description, expect_hopf, build) in list(instances.CATALOG.items()):

        def recording(name=name, build=build):
            names.append(name)
            return build()

        monkeypatch.setitem(instances.CATALOG, name, (kind, description, expect_hopf, recording))
    return names


def test_command_builds_only_the_instance_it_names(built, capsys):
    assert run(["verify-hopf", "kz2"]) == 0
    assert built == ["kz2"]


def test_instances_list_and_membership_build_nothing(built, capsys):
    assert run(["instances", "list"]) == 0
    cat = hopfhomology.builtin_instances()
    assert "kz2" in cat and "nope" not in cat
    assert list(cat) == list(instances.CATALOG) and len(cat) == len(instances.CATALOG)
    assert built == []


def test_instance_file_builds_no_catalog_entry(built, tmp_path, capsys):
    path = tmp_path / "kz3.json"
    path.write_text(json.dumps(instances.cyclic_group_algebra(3).to_json()))
    assert run(["verify-hopf", str(path)]) == 0
    assert built == []


def test_lookup_builds_once_per_catalog():
    cat = hopfhomology.builtin_instances()
    assert cat["qs3"] is cat["qs3"]
    with pytest.raises(KeyError):
        cat["nope"]
    with pytest.raises(TypeError):
        cat["qs3"] = None


@pytest.mark.parametrize("name", hopfhomology.__all__)
def test_exported_name_is_its_home_module_object(name):
    home = importlib.import_module(f"hopfhomology.{hopfhomology._HOME[name]}")
    assert getattr(hopfhomology, name) is getattr(home, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hopfhomology.no_such_name
    assert not hasattr(hopfhomology, "ext_groups")


def test_catalog_metadata_matches_the_built_instances(catalog):
    for name, (kind, description, expect_hopf, _) in instances.CATALOG.items():
        inst = catalog[name]
        assert (inst.name, inst.kind, inst.description, inst.expect_hopf) == (
            name, kind, description, expect_hopf
        )

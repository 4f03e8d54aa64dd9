"""Start-up pays only for the command being run.

`import hopfhomology` loads no module of the package, `hopfhomology.cli`
loads only what every command shares, a command loads only the modules
of its own side (algebras, bialgebroid and resolutions for a finite U,
pbw and ce for U(g)) and builds only the catalog instances it names,
nothing loads `dataclasses`, and `cli.main` freezes the heap before the
interpreter's exit-time collection while `cli.run` leaves it alone.
"""

import importlib
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import hopfhomology
from hopfhomology import instances
from hopfhomology.cli import run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


def _loaded_by(code):
    """The modules loaded after running code in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _loaded_by_command(argv):
    """The modules a fresh `python -m hopfhomology.cli argv` imports, read from -X importtime.

    The first line of that listing is its header; the cli itself runs as __main__.
    """
    cmd = [sys.executable, "-X", "importtime", "-m", "hopfhomology.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


def test_import_package_loads_no_submodule():
    loaded = _loaded_by("import hopfhomology")
    assert {m for m in loaded if m.startswith("hopfhomology")} == {"hopfhomology"}
    assert "dataclasses" not in loaded


def test_import_cli_loads_no_computation_module():
    loaded = _loaded_by("import hopfhomology.cli\nhopfhomology.builtin_instances()")
    heavy = {"bialgebroid", "pbw", "duality", "products", "ce", "resolutions", "homology",
             "complexes", "oracles"}
    assert "hopfhomology.cli" in loaded
    assert not loaded & {f"hopfhomology.{name}" for name in heavy}
    assert "dataclasses" not in loaded


FINITE = {"hopfhomology.bialgebroid", "hopfhomology.resolutions"}
LIE = {"hopfhomology.pbw", "hopfhomology.ce"}
# (command, modules it must load, modules of the other side it must not)
PROBES = [
    (["verify-hopf", "kz2"], {"hopfhomology.bialgebroid"}, LIE),
    (["cup", "kz3"], FINITE | {"hopfhomology.products"}, LIE),
    (["duality", "qs3", "--module", "trivial"], {"hopfhomology.duality"},
     LIE | {"hopfhomology.homology", "hopfhomology.complexes"}),
    (["verify-hopf", "lie-sl2"], {"hopfhomology.pbw"}, FINITE | {"hopfhomology.algebras"}),
    (["cap", "lie-sl2"], LIE | {"hopfhomology.products"}, FINITE | {"hopfhomology.algebras"}),
    (["duality", "lie-sl2", "--module", "adjoint"], LIE | {"hopfhomology.duality"},
     FINITE | {"hopfhomology.algebras"}),
]


@pytest.mark.parametrize("argv, side, other", PROBES, ids=[" ".join(p[0]) for p in PROBES])
def test_command_loads_only_its_own_side(argv, side, other):
    loaded = _loaded_by_command(argv)
    assert side <= loaded
    assert not loaded & other
    assert "dataclasses" not in loaded


def test_no_dataclass_in_the_package():
    package = Path(SRC) / "hopfhomology"
    found = []
    for path in sorted(package.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME and tok.string in ("dataclass", "dataclasses"):
                    found.append(f"{path.name}:{tok.start[0]}")
    assert not found, "dataclasses costs start-up time: " + ", ".join(found)


def _exit_probe(call, argv):
    """(stdout, exit code, gc.get_freeze_count()) after cli.<call> runs argv in a fresh interpreter."""
    probe = (
        "import gc, sys\n"
        "from hopfhomology import cli\n"
        f"sys.argv = ['hopfhomology', *{argv!r}]\n"
        "try:\n"
        f"    code = cli.run(sys.argv[1:]) if {call!r} == 'run' else cli.main()\n"
        "except SystemExit as e:\n"
        "    code = e.code\n"
        "sys.stderr.write(f'{code} {gc.get_freeze_count()}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=ENV)
    code, frozen = proc.stderr.rsplit("\n", 1)[-1].split()
    return proc.stdout, int(code), int(frozen)


@pytest.mark.parametrize("argv", [["instances", "list"], ["verify-hopf", "kz2"]])
def test_main_freezes_the_heap_before_exit_and_run_does_not(argv, capsys):
    assert run(argv) == 0
    expected = capsys.readouterr().out
    out, code, frozen = _exit_probe("main", argv)
    assert (out, code) == (expected, 0) and frozen > 0
    out, code, frozen = _exit_probe("run", argv)
    assert (out, code, frozen) == (expected, 0, 0)


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

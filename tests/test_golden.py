"""Golden CLI outputs: exact stdout and exit code of fast commands.

Every refactor must leave these byte-identical.  All reported bases are
canonical reduced row echelon forms, so a correct change of algorithm
cannot change them.

``PYTHONPATH=src python tests/test_golden.py`` records only the commands
that have no golden file yet; it never overwrites an existing one, so a
regression cannot be recorded over without notice.  After an intended
output change, re-record named files with
``PYTHONPATH=src python tests/test_golden.py --force NAME [NAME ...]``
and review the diff.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hopfhomology.cli import run

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "instances-list": ["instances", "list"],
    "verify-hopf-sweedler": ["verify-hopf", "sweedler"],
    "verify-hopf-lie-nonabelian2": ["verify-hopf", "lie-nonabelian2"],
    "tor-lie-abelian2": ["tor", "lie-abelian2", "--module", "trivial", "--max-degree", "2"],
    "cup-lie-abelian2": ["cup", "lie-abelian2", "--max-total", "2"],
    "cup-lie-nonabelian2": ["cup", "lie-nonabelian2", "--max-total", "2"],
    "cup-lie-sl2": ["cup", "lie-sl2", "--max-total", "3"],
    "cap-lie-nonabelian2": ["cap", "lie-nonabelian2", "--max-degree", "2"],
    "duality-lie-nonabelian2": ["duality", "lie-nonabelian2", "--module", "trivial"],
    "oracle-hochschild-qeps": ["oracle", "hochschild", "qeps", "--max-degree", "3"],
    "cup-kz3": ["cup", "kz3", "--max-total", "2"],
    "cup-env-qeps": ["cup", "env-qeps", "--max-total", "2"],
    "cup-sweedler": ["cup", "sweedler", "--max-total", "1"],
    "duality-qs3": ["duality", "qs3", "--module", "trivial"],
    "ext-env-qeps": ["ext", "env-qeps", "--module", "A", "--max-degree", "3"],
    "tor-sweedler": ["tor", "sweedler", "--module", "trivial", "--max-degree", "3"],
    "instances-export-qs3": ["instances", "export", "qs3"],
    "instances-export-env-qxq": ["instances", "export", "env-qxq"],
    "instances-export-env-upper2": ["instances", "export", "env-upper2"],
    "verify-hopf-qs3": ["verify-hopf", "qs3"],
    "verify-hopf-env-upper2": ["verify-hopf", "env-upper2"],
    "verify-hopf-lie-sl2": ["verify-hopf", "lie-sl2"],
    "ext-qs3-std2": ["ext", "qs3", "--module", "std2", "--max-degree", "3"],
    "ext-qs3-std2-degree4": ["ext", "qs3", "--module", "std2", "--max-degree", "4"],
    "ext-qs3-std2-degree5": ["ext", "qs3", "--module", "std2", "--max-degree", "5"],
    "tor-qs3": ["tor", "qs3", "--module", "trivial", "--max-degree", "3"],
    "tor-qs3-degree5": ["tor", "qs3", "--module", "trivial", "--max-degree", "5"],
    "ext-env-upper2": ["ext", "env-upper2", "--module", "A", "--max-degree", "5"],
    "duality-lie-sl2-adjoint": ["duality", "lie-sl2", "--module", "adjoint"],
    "duality-lie-nonabelian2-adjoint": [
        "duality", "lie-nonabelian2", "--module", "adjoint", "--pbw-bound", "6",
    ],
    "verify-hopf-lie-sl2-pbw5": ["verify-hopf", "lie-sl2", "--pbw-bound", "5"],
    "verify-hopf-lie-sl2-pbw7": ["verify-hopf", "lie-sl2", "--pbw-bound", "7"],
    "duality-lie-sl2-adjoint-pbw8": [
        "duality", "lie-sl2", "--module", "adjoint", "--pbw-bound", "8",
    ],
    "ext-lie-nonabelian2-adjoint-bar": [
        "ext", "lie-nonabelian2", "--module", "adjoint", "--max-degree", "2",
        "--resolution", "bar", "--pbw-bound", "6",
    ],
    "cap-lie-sl2": ["cap", "lie-sl2", "--max-degree", "3"],
    "cup-sweedler-total2": ["cup", "sweedler", "--max-total", "2"],
    "cup-env-qxq": ["cup", "env-qxq", "--max-total", "3"],
    "ext-qs3-trivial": ["ext", "qs3", "--module", "trivial", "--max-degree", "3"],
    "verify-hopf-kz2": ["verify-hopf", "kz2"],
    "verify-hopf-kz3": ["verify-hopf", "kz3"],
    "verify-hopf-env-qeps": ["verify-hopf", "env-qeps"],
    "verify-hopf-env-qxq": ["verify-hopf", "env-qxq"],
    "verify-hopf-monoid01": ["verify-hopf", "monoid01"],
    "verify-hopf-lie-abelian1": ["verify-hopf", "lie-abelian1"],
    "verify-hopf-lie-abelian2": ["verify-hopf", "lie-abelian2"],
    "oracle-hochschild-qxq": ["oracle", "hochschild", "qxq", "--max-degree", "3"],
    "oracle-hochschild-upper2": ["oracle", "hochschild", "upper2", "--max-degree", "3"],
    "ext-sweedler-trivial": ["ext", "sweedler", "--module", "trivial", "--max-degree", "4"],
    "tor-env-upper2": ["tor", "env-upper2", "--module", "A", "--max-degree", "3"],
    "ext-lie-abelian2-adjoint-bar": [
        "ext", "lie-abelian2", "--module", "adjoint", "--max-degree", "3",
        "--resolution", "bar", "--pbw-bound", "4",
    ],
    "ext-lie-nonabelian2-trivial-bar": [
        "ext", "lie-nonabelian2", "--module", "trivial", "--max-degree", "3",
        "--resolution", "bar", "--pbw-bound", "5",
    ],
    "ext-lie-sl2-adjoint": ["ext", "lie-sl2", "--module", "adjoint", "--max-degree", "3"],
    "tor-lie-nonabelian2": ["tor", "lie-nonabelian2", "--module", "trivial", "--max-degree", "2"],
}


def _replay(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    code, out = _replay(COMMANDS[name])
    assert expected["argv"] == COMMANDS[name]
    assert code == expected["exit"]
    assert out == expected["stdout"]


def main():
    parser = argparse.ArgumentParser(description="Record missing golden CLI outputs.")
    parser.add_argument(
        "--force", nargs="+", default=[], metavar="NAME",
        help="re-record these existing golden files as well",
    )
    args = parser.parse_args()
    unknown = sorted(set(args.force) - set(COMMANDS))
    if unknown:
        parser.error(f"unknown golden name(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name, command in sorted(COMMANDS.items()):
        path = GOLDEN / f"{name}.json"
        if path.exists() and name not in args.force:
            continue
        code, out = _replay(command)
        blob = {"argv": command, "exit": code, "stdout": out}
        path.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
        sys.stderr.write(f"{name}: exit {code}, {len(out)} bytes\n")


if __name__ == "__main__":
    main()

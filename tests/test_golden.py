"""Golden CLI outputs: exact stdout and exit code of fast commands.

Every refactor must leave these byte-identical.  All reported bases are
canonical reduced row echelon forms, so a correct change of algorithm
cannot change them.  To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

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
    "verify-hopf-qs3": ["verify-hopf", "qs3"],
    "verify-hopf-env-upper2": ["verify-hopf", "env-upper2"],
    "verify-hopf-lie-sl2": ["verify-hopf", "lie-sl2"],
    "ext-qs3-std2": ["ext", "qs3", "--module", "std2", "--max-degree", "3"],
    "tor-qs3": ["tor", "qs3", "--module", "trivial", "--max-degree", "3"],
    "ext-env-upper2": ["ext", "env-upper2", "--module", "A", "--max-degree", "5"],
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(COMMANDS.items()):
        code, out = _replay(argv)
        blob = {"argv": argv, "exit": code, "stdout": out}
        (GOLDEN / f"{name}.json").write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
        sys.stderr.write(f"{name}: exit {code}, {len(out)} bytes\n")

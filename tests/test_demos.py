"""Each demo prints exactly its recorded output.

A demo runs as a user runs it, ``PYTHONPATH=src python demos/NAME.py``,
and its stdout must equal ``tests/golden/demos/NAME.txt``.  After an
intended output change, record the file again from that command and
review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()

"""Flip each `-1 if ... else 1` sign site of the package alone and run Tier-1.

    python tests/sign_sweep.py

Every sign in src/ is written `-1 if <parity> else 1`.  For each such
site the script rewrites it to `1 if <parity> else -1` in a temporary
copy of the repository, runs the Tier-1 suite there with -x, and prints
whether some test failed (the flip is killed) or none did (it survives).
The survivors are listed at the end; the exit code is the number of
survivors.  The name has no test_ prefix, so pytest does not collect
it; a full sweep takes a few minutes.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SITE = re.compile(r"-1 if (.+?) else 1\b")
TIMEOUT_S = 900


def sites():
    """(path relative to the repository, line number, match) of every sign site."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for match in SITE.finditer(line):
                yield path.relative_to(ROOT), lineno, match


def killed(copy: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    try:
        run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return run.returncode != 0


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for rel, lineno, match in sites():
            target = copy / rel
            original = target.read_text()
            lines = original.splitlines(keepends=True)
            line = lines[lineno - 1]
            lines[lineno - 1] = line[: match.start()] + f"1 if {match.group(1)} else -1" + line[match.end():]
            target.write_text("".join(lines))
            try:
                dead = killed(copy)
            finally:
                target.write_text(original)
            where = f"{rel}:{lineno}"
            print(f"{where}  {'killed' if dead else 'SURVIVED'}  {line.strip()}", flush=True)
            if not dead:
                survivors.append(where)
    print(f"{len(survivors)} survivor(s): {', '.join(survivors) or 'none'}")
    return len(survivors)


if __name__ == "__main__":
    sys.exit(main())

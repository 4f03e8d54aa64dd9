"""Wall time and peak RSS of the frontier CLI commands, written to one JSON file.

    python tests/bench_frontier.py --out BENCH_30.json
    python tests/bench_frontier.py --out b.json --runs 1 --command "verify-hopf kz3" --no-tier1

Each command runs --runs times (at least 5 for a committed file), each
time in a fresh interpreter with this checkout's src on PYTHONPATH,
through one_command of tests/ab_pairs.py.  Per command the file records
the argv, the exit code, the stdout sha256, the median and quartiles of
the wall time and the largest peak RSS that wait4 reported.  Every run
of a command must give one exit code and one sha256; the script exits 1
otherwise.  Once per file it records the Tier-1 wall time (one run of
the suite, left out with --no-tier1), the Python version, nproc, the
commit and whether the tree differed from it, the date, whether
PYTHONDONTWRITEBYTECODE was set, and the peak RSS of a bare `python -c
pass` child: every child's peak RSS starts from the RSS it inherits at
the fork, so this is the floor the script itself puts under the others.
The name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shlex
import subprocess
import sys
import time
from pathlib import Path

from ab_pairs import one_command, quartiles, run_child

ROOT = Path(__file__).resolve().parent.parent

# the frontier table of ROADMAP.md, slowest first
FRONTIER = [
    "verify-hopf lie-sl2 --pbw-bound 11",
    "tor qs3 --module trivial --max-degree 6",
    "ext sweedler --module trivial --max-degree 8",
    "ext qs3 --module std2 --max-degree 5",
    "ext sweedler --module sign --max-degree 8",
    "verify-hopf lie-sl2 --pbw-bound 9",
    "tor qs3 --module trivial --max-degree 5",
    "duality lie-sl2 --module adjoint --pbw-bound 12",
    "cup qs3 --max-total 4",
    "ext lie-nonabelian2 --module adjoint --max-degree 3 --resolution bar --pbw-bound 8",
    "cup sweedler --max-total 4",
]

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _git(*args):
    """Stripped stdout of a git command in the checkout, or None where git cannot answer."""
    try:
        run = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return run.stdout.strip() if run.returncode == 0 else None


def measure(argv, runs):
    """The record of one command over runs fresh runs."""
    got = [one_command(ROOT, argv) for _ in range(runs)]
    codes = {code for code, _, _, _ in got}
    digests = {digest for _, digest, _, _ in got}
    if len(codes) != 1 or len(digests) != 1:
        raise SystemExit(f"{shlex.join(argv)}: runs disagree, exit codes {sorted(codes)}, "
                         f"{len(digests)} stdout digests")
    q1, median, q3 = quartiles([wall for _, _, wall, _ in got])
    return {
        "argv": argv,
        "exit_code": codes.pop(),
        "stdout_sha256": digests.pop(),
        "runs": runs,
        "wall_s": {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)},
        "peak_rss_mb": round(max(rss for _, _, _, rss in got), 2),
    }


def tier1():
    """Wall time, exit code and summary line of one Tier-1 run in this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    run = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True,
                         text=True)
    lines = run.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - start, 2), "exit_code": run.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    p.add_argument("--runs", type=int, default=5, help="fresh runs per command")
    p.add_argument("--command", action="append",
                   help="CLI arguments as one shell-quoted string, in place of the frontier "
                        "table; may repeat")
    p.add_argument("--no-tier1", action="store_true", help="do not run the Tier-1 suite")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    commands = []
    for line in args.command or FRONTIER:
        commands.append(measure(shlex.split(line), args.runs))
        print(f"{line}: {commands[-1]['wall_s']['median']} s, {commands[-1]['peak_rss_mb']} MB",
              flush=True)
    _, _, _, bare_rss = run_child([sys.executable, "-c", "pass"], ROOT)
    report = {
        "commit": _git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(_git("status", "--porcelain", "--", "src", "tests")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "bare_child_peak_rss_mb": round(bare_rss, 2),
        "tier1": None if args.no_tier1 else tier1(),
        "commands": commands,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark pairs of two checkouts, and the claim rule on them.

    python tests/ab_pairs.py PARENT CHANGE --workload W --seeds A-B
    python tests/ab_pairs.py PARENT CHANGE --command "ext qs3 --max-degree 5" --pairs N

For each seed S from A to B the script runs

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

once from the root of each checkout, alternating which one goes first,
and prints each run's end-to-end metrics as it ends.  Then, for every
end-to-end metric of BENCHMARK.json, it prints the medians and quartiles
of both sides, the pairs in which the change is better (a tie counts
for neither side), whether the claim rule holds (the change is better
in at least 9 of every 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range) and the
no-regression verdict against the metric's bound, a fraction of the
parent's median: "worse" when the change's median is worse than the
parent's by more than the bound, "unresolved" when the parent's
quartile spread is wider than the bound and not every change run beats
every parent run, and "no worse" otherwise.  Beside job_s and cpu_s it
prints how far setup_s, which runs no engine code, moved in the same
runs: a move of the same sign and size is host drift, not the change.
The exit code is 1 when a run fails.

With --command, each pair instead runs `python -m hopfhomology.cli ARGV`
once in each checkout, fresh, with that checkout's src on PYTHONPATH,
and reads its wall time and the peak RSS that wait4 reports for it,
judged against the bounds of job_s and peak_rss_mb.
The two sides' stdout must have one sha256; the exit code is 1 when it
differs or a run fails.  The script imports little, so the RSS a child
inherits from it stays small next to that of a frontier command.  The
name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(root, workload, seed):
    """The end-to-end metrics {name: value} of one perfbench run in root, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "15", "--trace", "0"]
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if run.returncode:
        sys.stderr.write(run.stderr)
        return None
    result = json.loads(run.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(f"{root}: {result['failed']} of {result['attempted']} commands failed\n")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_child(cmd, root, env=None):
    """(exit code, stdout bytes, wall seconds, peak RSS in MB) of one fresh child run in root."""
    start = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, wall, usage.ru_maxrss / 1024


def one_command(root, argv):
    """(exit code, stdout sha256, wall seconds, peak RSS in MB) of one fresh CLI run in root."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    code, out, wall, rss = run_child([sys.executable, "-m", "hopfhomology.cli", *argv], root, env)
    return code, hashlib.sha256(out).hexdigest(), wall, rss


def quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, lower_is_better, bound):
    """The summary line of one metric over paired runs: the claim rule and the no-regression verdict.

    bound is the metric's bound in BENCHMARK.json, a fraction of the parent's median.
    """
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    holds = 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1
    allowed = bound * abs(pm)
    if sign * (cm - pm) > allowed:
        regression = "worse"
    elif p3 - p1 > allowed and not all(sign * (c - p) < 0 for c in change for p in parent):
        regression = "unresolved"
    else:
        regression = "no worse"
    return (f"parent median {pm:.4g} (quartiles {p1:.4g}, {p3:.4g}; IQR {p3 - p1:.4g}), "
            f"change median {cm:.4g} (quartiles {c1:.4g}, {c3:.4g}); "
            f"change better in {wins}, worse in {losses} of {len(parent)} pairs; "
            f"claim {'holds' if holds else 'does not hold'}; "
            f"against the {bound:.0%} bound: {regression}")


def median_move(parent, change):
    """The change's median over the parent's, minus one."""
    return statistics.median(change) / statistics.median(parent) - 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--command", help="the CLI arguments, as one shell-quoted string")
    p.add_argument("--seeds", help="A-B, an inclusive range, or one seed (with --workload)")
    p.add_argument("--pairs", type=int, default=5, help="pairs of runs (with --command)")
    args = p.parse_args(argv)
    if args.command:
        return compare_command(args.parent, args.change, shlex.split(args.command), args.pairs)
    if args.seeds is None:
        p.error("--workload needs --seeds")
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            got = one_run(getattr(args, side), args.workload, seed)
            if got is None:
                sys.stderr.write(f"{side} run failed at seed {seed}\n")
                return 1
            runs[side].append(got)
            shown = " ".join(f"{m['name']}={got[m['name']]:.4g}" for m in metrics)
            print(f"{args.workload} seed {seed} {side}: {shown}", flush=True)
    setup_move = median_move(*([r["setup_s"] for r in runs[side]] for side in ("parent", "change")))
    for m in metrics:
        name = m["name"]
        parent, change = [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]]
        line = verdict(parent, change, m["better"] == "lower", m["bound"])
        if name in ("job_s", "cpu_s"):
            move = median_move(parent, change)
            direction = "the same" if move * setup_move > 0 else "not the same"
            line += (f"; drift control: median {move:+.1%} here, setup_s {setup_move:+.1%}"
                     f" in the same runs ({direction} direction)")
        print(f"{name} ({m['better']} is better): {line}")
    return 0


def compare_command(parent, change, argv, pairs):
    """Alternate fresh runs of one CLI command in two checkouts; print wall time and peak RSS."""
    runs = {"parent": [], "change": []}
    for k in range(pairs):
        for side in ["parent", "change"] if k % 2 == 0 else ["change", "parent"]:
            code, *got = one_command(parent if side == "parent" else change, argv)
            if code:
                sys.stderr.write(f"{side} run {k} failed with exit code {code}\n")
                return 1
            runs[side].append(got)
            print(f"pair {k} {side}: sha256 {got[0][:12]} wall_s={got[1]:.4g} "
                  f"peak_rss_mb={got[2]:.4g}", flush=True)
    digests = {digest for side in runs.values() for digest, _, _ in side}
    print(f"stdout sha256 {'equal' if len(digests) == 1 else 'DIFFERS'}: "
          + " ".join(sorted(d[:12] for d in digests)))
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for i, name, bound in ((1, "wall_s", bounds["job_s"]), (2, "peak_rss_mb", bounds["peak_rss_mb"])):
        line = verdict([r[i] for r in runs["parent"]], [r[i] for r in runs["change"]], True, bound)
        print(f"{name} (lower is better): {line}")
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())

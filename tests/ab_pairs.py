"""Alternating benchmark pairs of two checkouts, and the claim rule on them.

    python tests/ab_pairs.py PARENT CHANGE --workload W --seeds A-B

For each seed S from A to B the script runs

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

once from the root of each checkout, alternating which one goes first,
and prints each run's end-to-end metrics as it ends.  Then, for every
end-to-end metric of BENCHMARK.json, it prints the medians and quartiles
of both sides, the pairs in which the change is better (a tie counts
for neither side) and whether the claim rule holds: the change is better
in at least 9 of every 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range.  The exit code
is 1 when a run fails.  The name has no test_ prefix, so pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, lower_is_better):
    """The summary line of one metric over paired runs, with the claim rule's verdict."""
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    holds = 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1
    return (f"parent median {pm:.4g} (quartiles {p1:.4g}, {p3:.4g}; IQR {p3 - p1:.4g}), "
            f"change median {cm:.4g} (quartiles {c1:.4g}, {c3:.4g}); "
            f"change better in {wins}, worse in {losses} of {len(parent)} pairs; "
            f"claim {'holds' if holds else 'does not hold'}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="A-B, an inclusive range, or one seed")
    args = p.parse_args(argv)
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
    for m in metrics:
        name = m["name"]
        line = verdict([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                       m["better"] == "lower")
        print(f"{name} ({m['better']} is better): {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the hopfhomology command line, as a user runs it.

One closed-loop client runs one CLI command at a time, each in a fresh
interpreter (`python -m hopfhomology.cli ...`), so at most one child runs.
A run repeats passes over the workload's command list until `--seconds`
have passed (at least one pass), checks every exit code and stdout against
`expected.json`, and prints one JSON line of metrics.

    python3 perfbench/run.py --workload bar-cohomology --seed 1 --seconds 15 --trace 0

`--trace 0` reports the end-to-end metrics, medians over the passes of the
run.  `--trace 1` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see spans.py).  Run it from the root
of a checkout that holds `src/hopfhomology`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_CODE = "import hopfhomology; hopfhomology.builtin_instances()"
SETUP_PER_PASS = 3
# A run must end within 180 s; no pass starts that would end past this.
BUDGET_S = 150.0


@dataclass
class Result:
    argv: list
    code: int
    stdout: bytes
    wall: float
    cpu: float
    maxrss_kb: int
    stderr: str


class Children:
    """Starts one child at a time from the checkout root and reaps it with rusage."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, cmd, argv=None):
        timeout = max(1.0, self.deadline - time.perf_counter())
        with tempfile.TemporaryFile() as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            err.seek(0)
            tail = err.read()[-2000:].decode(errors="replace")
        cpu = usage.ru_utime + usage.ru_stime
        return Result(argv or cmd, proc.returncode, out, wall, cpu, usage.ru_maxrss, tail)

    def cli(self, argv):
        return self.run([sys.executable, "-m", "hopfhomology.cli", *argv], argv)

    def traced_cli(self, argv, spans_path, command_id):
        script = os.path.join(HERE, "spans.py")
        cmd = [sys.executable, script, "--spans", spans_path,
               "--command-id", str(command_id), "--", *argv]
        return self.run(cmd, argv)


class Checker:
    """Decides whether one command's exit code and stdout are the expected ones.

    Catalog commands must match the recorded exit code and stdout sha256.
    A permuted instance file must verify (exit 0) and give the Ext dims of
    its catalog instance with the trivial module.
    """

    def __init__(self, table, files=None):
        self.table = table
        self.files = files or {}

    def ok(self, argv, code, stdout):
        path = argv[1] if len(argv) > 1 else None
        if path in self.files:
            if code != 0:
                return False
            if argv[0] != "ext":
                return True
            try:
                rows = json.loads(stdout)["rows"]
            except (ValueError, KeyError, TypeError):
                return False
            dims = [row.get("dim") for row in rows if isinstance(row, dict)]
            return dims == self.table["permuted_ext_dims"][self.files[path]]
        want = self.table["commands"].get(" ".join(argv))
        return (
            want is not None
            and code == want["exit"]
            and hashlib.sha256(stdout).hexdigest() == want["sha256"]
        )

    def failures(self, results):
        return sum(not self.ok(r.argv, r.code, r.stdout) for r in results)


class Run:
    def __init__(self, args, root):
        self.args = args
        self.started = time.perf_counter()
        self.children = Children(root, self.started + BUDGET_S + 20)
        with open(EXPECTED) as fh:
            self.table = json.load(fh)
        self.inputs = workloads.Inputs(args.workload, args.seed)
        self.checked = []
        self.workdir = os.path.join(root, ".bench_build", "perfbench")

    def report_failures(self, checker):
        for r in self.checked:
            if not checker.ok(r.argv, r.code, r.stdout):
                sys.stderr.write(f"unexpected result of {' '.join(r.argv)}: exit {r.code}\n"
                                 f"{r.stderr}\n")

    def setup_samples(self, count):
        cmd = [sys.executable, "-c", SETUP_CODE]
        samples = []
        for _ in range(count):
            r = self.children.run(cmd)
            if r.code != 0:
                sys.stderr.write(f"set-up failed with exit {r.code}\n{r.stderr}\n")
                raise SystemExit(1)
            samples.append(r.wall)
        return samples

    def commands(self, tmp):
        """The pass's command list and the checker for it; writes seeded files."""
        cmds = list(workloads.CATALOG_COMMANDS[self.args.workload])
        files = {}
        if self.inputs.permuted:
            exported = {}
            for name in self.inputs.permuted:
                r = self.children.cli(["instances", "export", name])
                self.checked.append(r)
                exported[name] = json.loads(r.stdout) if r.code == 0 else None
            if any(v is None for v in exported.values()):
                return cmds, Checker(self.table)
            files = self.inputs.write_files(exported, tmp)
            for path in files:
                cmds += workloads.file_commands(path)
        return cmds, Checker(self.table, files)

    def one_pass(self, order, spans_dir=None):
        """Runs the commands once; traced through spans.py when spans_dir is given."""
        results = []
        totals = spans.LayerTotals() if spans_dir else None
        start = time.perf_counter()
        for k, argv in enumerate(order):
            if totals is None:
                results.append(self.children.cli(argv))
                continue
            path = os.path.join(spans_dir, f"spans-{k}.json")
            results.append(self.children.traced_cli(argv, path, k))
            if os.path.exists(path):
                totals.add_command(*spans.load_spans(path))
                os.remove(path)
        wall = time.perf_counter() - start
        self.checked += results
        return wall, results, totals

    def execute(self):
        os.makedirs(self.workdir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            cmds, checker = self.commands(tmp)
            self.setup_samples(1)  # let the bytecode cache fill; not timed
            if self.args.trace:
                metrics = self.traced(cmds, tmp)
            else:
                metrics = self.untraced(cmds)
        attempted = len(self.checked)
        failed = checker.failures(self.checked)
        if failed:
            self.report_failures(checker)
        if not self.args.trace:
            metrics["ok_ratio"] = {"value": 1 - failed / attempted, "unit": "ratio"}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    def untraced(self, cmds):
        setup = []
        samples = {}
        passes = 0
        last = 0.0
        measured = time.perf_counter()
        while not passes or time.perf_counter() - measured < self.args.seconds:
            if passes and time.perf_counter() - self.started + last > BUDGET_S:
                break
            # set-up is sampled before every pass, so that its samples too
            # are spread over the run
            setup += self.setup_samples(SETUP_PER_PASS)
            last, results, _ = self.one_pass(self.inputs.pass_order(cmds))
            passes += 1
            for r in results:
                samples.setdefault(tuple(r.argv), []).append(r)
        # A typical pass, command by command: a burst of contention from the
        # shared machine in one pass moves a median less than a sum.
        def median_of(field):
            return [statistics.median(getattr(r, field) for r in rs) for rs in samples.values()]

        return {
            "job_s": {"value": sum(median_of("wall")), "unit": "s"},
            "cpu_s": {"value": sum(median_of("cpu")), "unit": "s"},
            "peak_rss_mb": {"value": max(median_of("maxrss_kb")) / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    def traced(self, cmds, tmp):
        order = self.inputs.pass_order(cmds)
        plain, _, _ = self.one_pass(order)
        traced, _, totals = self.one_pass(order, tmp)
        return totals.metrics(traced - plain)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # turned into SystemExit, so that the child being waited for is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hopfhomology", "cli.py")):
        sys.stderr.write("run from the root of a hopfhomology checkout: src/hopfhomology is missing\n")
        return 2
    result = Run(args, root).execute()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

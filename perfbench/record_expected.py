#!/usr/bin/env python3
"""Record expected.json: exit code and stdout sha256 of every catalog command.

Run from the root of a checkout whose outputs are the reference:

    python3 perfbench/record_expected.py

Only commands that succeed, or fail a verification check by design
(monoid01), are recorded; no error path is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import run
import workloads


def main():
    children = run.Children(os.getcwd(), time.perf_counter() + 3600)
    commands = {}
    argvs = [argv for cmds in workloads.CATALOG_COMMANDS.values() for argv in cmds]
    argvs += [["instances", "export", name] for name in workloads.PERMUTED]
    for argv in argvs:
        r = children.cli(argv)
        if r.code not in (0, 1):
            sys.stderr.write(f"{' '.join(argv)} exited {r.code}\n{r.stderr}\n")
            return 1
        commands[" ".join(argv)] = {"exit": r.code, "sha256": hashlib.sha256(r.stdout).hexdigest()}
    dims = {}
    for name in workloads.PERMUTED:
        r = children.cli(workloads.reference_ext_command(name))
        dims[name] = [row["dim"] for row in json.loads(r.stdout)["rows"]]
    with open(run.EXPECTED, "w") as fh:
        json.dump({"commands": commands, "permuted_ext_dims": dims}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

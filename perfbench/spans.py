"""Span tracing for the benchmark's traced run, from outside the program.

Run as a script, this is the traced child: it wraps the public functions of
the `hopfhomology` layers listed in TARGETS, runs one CLI command through
`hopfhomology.cli.run(argv)` and writes the spans it kept in memory to a
JSON file when the command ends:

    python perfbench/spans.py --spans out.json --command-id 3 -- ext qs3

Imported, it gives the parent the arithmetic that turns spans into the
per-layer metrics.  Importing it loads nothing from `hopfhomology`.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time

# (span name, module under hopfhomology, attribute path in that module).
# Per-entry hot paths such as `frac` and `Matrix.__init__` (millions of
# calls) are left alone: wrapping them would cost more than they do.
TARGETS = [
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("linalg.solve", "linalg", "Matrix.solve"),
    ("linalg.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.induced_map", "linalg", "induced_map"),
    ("algebras.ModuleRep.act", "algebras", "ModuleRep.act"),
    ("algebras.ModuleRep.init", "algebras", "ModuleRep.__init__"),
    ("resolutions.boundary_word", "resolutions", "BarResolution.boundary_word"),
    ("resolutions.diff_cols", "resolutions", "BarResolution.diff_cols"),
    ("resolutions.TotalTensorComplex.init", "resolutions", "TotalTensorComplex.__init__"),
    ("resolutions.lift_into_total", "resolutions", "lift_into_total"),
    ("products.BarProducts.init", "products", "BarProducts.__init__"),
    ("products.BarProducts.cup", "products", "BarProducts.cup"),
    ("products.CEProducts.cup", "products", "CEProducts.cup"),
    ("products.CEProducts.cap", "products", "CEProducts.cap"),
    ("homology.cochain_matrix", "homology", "cochain_matrix"),
    ("homology.chain_matrix", "homology", "chain_matrix"),
    ("complexes.HomologySpace.init", "complexes", "HomologySpace.__init__"),
    ("ce.bounded_free_map", "ce", "bounded_free_map"),
    ("ce.UgBarComplex.cochain_matrix", "ce", "UgBarComplex.cochain_matrix"),
    ("pbw.pbw_multiply", "pbw", "pbw_multiply"),
    ("pbw.ug_hopf_report", "pbw", "ug_hopf_report"),
    ("duality.detect_duality_ug", "duality", "detect_duality_ug"),
    ("duality.duality_isomorphism_ug", "duality", "duality_isomorphism_ug"),
    ("bialgebroid.BialgebroidData.init", "bialgebroid", "BialgebroidData.__init__"),
    ("bialgebroid.check_takeuchi", "bialgebroid", "check_takeuchi"),
    ("bialgebroid.galois_map", "bialgebroid", "galois_map"),
    ("bialgebroid.module_tensor_left", "bialgebroid", "module_tensor_left"),
    ("instances.builtin_instances", "instances", "builtin_instances"),
    ("oracles.hochschild_cohomology_dims", "oracles", "hochschild_cohomology_dims"),
    ("oracles.hochschild_homology_dims", "oracles", "hochschild_homology_dims"),
    ("cli.run", "cli", "run"),
]

# Time spent measuring an rref input is a span of its own, so that it is
# neither charged to rref nor to the caller's self time.
RREF_STATS = "trace.rref_stats"

SELF_TIMES = [
    "linalg.rref", "linalg.matmul", "linalg.induced_map",
    "algebras.ModuleRep.act", "algebras.ModuleRep.init",
    "resolutions.boundary_word", "resolutions.diff_cols",
    "resolutions.TotalTensorComplex.init", "resolutions.lift_into_total",
    "products.BarProducts.init", "products.BarProducts.cup",
    "products.CEProducts.cup", "products.CEProducts.cap",
    "homology.cochain_matrix", "homology.chain_matrix", "complexes.HomologySpace.init",
    "ce.bounded_free_map", "ce.UgBarComplex.cochain_matrix",
    "pbw.pbw_multiply", "pbw.ug_hopf_report",
    "duality.detect_duality_ug", "duality.duality_isomorphism_ug",
    "bialgebroid.BialgebroidData.init", "bialgebroid.check_takeuchi",
    "bialgebroid.galois_map", "bialgebroid.module_tensor_left",
    "instances.builtin_instances",
    "oracles.hochschild_cohomology_dims", "oracles.hochschild_homology_dims",
]
CALLS = [
    "linalg.rref", "linalg.solve", "algebras.ModuleRep.act", "resolutions.boundary_word",
    "products.BarProducts.cup", "pbw.pbw_multiply", "cli.run",
]

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    [(f"{name}.calls", "count") for name in CALLS]
    + [(f"{name}.self_s", "s") for name in SELF_TIMES]
    + [
        ("linalg.rref.cells", "count"),
        ("linalg.rref.nnz", "count"),
        ("linalg.rref.rank", "count"),
        ("linalg.rref.repeat_ratio", "ratio"),
        ("linalg.solve.rrefs_per_call", "rref/call"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Keeps spans (name, start, end, parent index) of one command in memory."""

    def __init__(self, command_id=0, clock=time.perf_counter):
        self.command_id = command_id
        self.clock = clock
        self.spans = []
        self.attrs = {}
        self.stack = [-1]

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1]])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_rref(self, name, fn):
        """Like wrap, and records the input's shape, nonzeros, key and rank."""

        @functools.wraps(fn)
        def traced(matrix):
            sidx = self._open(RREF_STATS)
            rows = matrix.rows
            attrs = {
                "cells": matrix.nrows * matrix.ncols,
                "nnz": sum(1 for row in rows for x in row if x),
                "key": hash((matrix.nrows, matrix.ncols, tuple(map(tuple, rows)))),
            }
            self._close(sidx)
            idx = self._open(name)
            try:
                result = fn(matrix)
            finally:
                self._close(idx)
            attrs["rank"] = len(result[1])
            self.attrs[idx] = attrs
            return result

        return traced

    def install(self, package):
        """Wrap every target and rebind it wherever the package imported it by name."""
        for name, modname, attr in TARGETS:
            module = importlib.import_module(f"{package}.{modname}")
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = (self.wrap_rref if name == "linalg.rref" else self.wrap)(name, original)
            setattr(owner, leaf, wrapper)
            if owner is module:
                for other in list(sys.modules.values()):
                    mname = getattr(other, "__name__", "")
                    in_package = mname == package or mname.startswith(package + ".")
                    if in_package and other.__dict__.get(leaf) is original:
                        setattr(other, leaf, wrapper)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        blob = {
            "command_id": self.command_id,
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        with open(path, "w") as fh:
            json.dump(blob, fh)


def load_spans(path):
    """Read a dump back as (spans, attrs) with names restored."""
    with open(path) as fh:
        blob = json.load(fh)
    names = blob["names"]
    spans = [(names[n], s, e, p) for n, s, e, p in blob["spans"]]
    return spans, {int(k): v for k, v in blob["attrs"].items()}


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    children = {}
    for _, s, e, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    return [e - s - covered(children.get(i, ()), s, e) for i, (_, s, e, _) in enumerate(spans)]


class LayerTotals:
    """Per-layer sums over the commands of one traced pass."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.cells = self.nnz = self.rank = 0
        self.rref_repeats = 0
        self.rrefs_in_solve = 0

    def add_command(self, spans, attrs):
        for (name, _, _, _), own in zip(spans, self_times(spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
        seen = set()
        for i in sorted(attrs):
            a = attrs[i]
            self.cells += a["cells"]
            self.nnz += a["nnz"]
            self.rank += a["rank"]
            key = (a["key"], a["cells"], a["nnz"])
            self.rref_repeats += key in seen
            seen.add(key)
            parent = spans[i][3]
            while parent >= 0 and spans[parent][0] != "linalg.solve":
                parent = spans[parent][3]
            self.rrefs_in_solve += parent >= 0

    def metrics(self, overhead_s):
        rrefs = self.calls.get("linalg.rref", 0)
        solves = self.calls.get("linalg.solve", 0)
        values = {f"{n}.calls": self.calls.get(n, 0) for n in CALLS}
        values.update({f"{n}.self_s": self.self_s.get(n, 0.0) for n in SELF_TIMES})
        values.update(
            {
                "linalg.rref.cells": self.cells,
                "linalg.rref.nnz": self.nnz,
                "linalg.rref.rank": self.rank,
                "linalg.rref.repeat_ratio": self.rref_repeats / rrefs if rrefs else 0.0,
                "linalg.solve.rrefs_per_call": self.rrefs_in_solve / solves if solves else 0.0,
                "trace.overhead_s": overhead_s,
            }
        )
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("--command-id", type=int, default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = Tracer(args.command_id)
    tracer.install("hopfhomology")
    from hopfhomology import cli

    try:
        code = cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())

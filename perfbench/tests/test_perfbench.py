"""Tests of the benchmark's own code.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_nested_spans():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b1", 6.0, 7.0, 2),
        ("b2", 6.5, 8.0, 2),  # overlaps b1: the union, not the sum, is covered
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.5])


def test_layer_totals_sum_self_time_by_name():
    tree = [
        ("cli.run", 0.0, 10.0, -1),
        ("linalg.solve", 1.0, 5.0, 0),
        ("linalg.rref", 2.0, 4.0, 1),
        ("linalg.rref", 6.0, 7.0, 0),
    ]
    attrs = {
        2: {"cells": 6, "nnz": 4, "key": 7, "rank": 2},
        3: {"cells": 6, "nnz": 4, "key": 7, "rank": 2},
    }
    totals = spans.LayerTotals()
    totals.add_command(tree, attrs)
    m = totals.metrics(0.5)
    assert [name for name in m] == [name for name, _ in spans.PER_LAYER]
    assert m["linalg.rref.self_s"]["value"] == pytest.approx(3.0)
    assert m["linalg.rref.calls"]["value"] == 2
    assert m["linalg.rref.cells"]["value"] == 12
    assert m["linalg.rref.repeat_ratio"]["value"] == pytest.approx(0.5)
    assert m["linalg.solve.rrefs_per_call"]["value"] == pytest.approx(1.0)
    assert m["cli.run.calls"]["value"] == 1
    assert m["trace.overhead_s"]["value"] == 0.5


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [tuple(s) for s in tracer.spans] == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


TABLE = {
    "commands": {
        "ext qs3": {"exit": 0, "sha256": hashlib.sha256(b'{"rows":[]}\n').hexdigest()},
        "verify-hopf monoid01": {"exit": 1, "sha256": hashlib.sha256(b"{}\n").hexdigest()},
    },
    "permuted_ext_dims": {"kz3": [1, 0, 0]},
}


def result(argv, code, stdout):
    return run.Result(argv, code, stdout, 1.0, 1.0, 1000, "")


def test_checker_counts_corrupted_stdout_and_wrong_exit():
    checker = run.Checker(TABLE, {"x/kz3-permuted.json": "kz3"})
    good = [
        result(["ext", "qs3"], 0, b'{"rows":[]}\n'),
        result(["verify-hopf", "monoid01"], 1, b"{}\n"),
        result(["verify-hopf", "x/kz3-permuted.json"], 0, b"{}"),
        result(["ext", "x/kz3-permuted.json"], 0, b'{"rows":[{"dim":1},{"dim":0},{"dim":0}]}'),
    ]
    assert checker.failures(good) == 0
    bad = [
        result(["ext", "qs3"], 0, b'{"rows":[1]}\n'),  # corrupted stdout
        result(["ext", "qs3"], 3, b'{"rows":[]}\n'),  # wrong exit code
        result(["verify-hopf", "monoid01"], 0, b"{}\n"),  # expected to fail, did not
        result(["cup", "qs3"], 0, b"{}\n"),  # not in the table
        result(["verify-hopf", "x/kz3-permuted.json"], 1, b"{}"),
        result(["ext", "x/kz3-permuted.json"], 0, b'{"rows":[{"dim":1},{"dim":1},{"dim":0}]}'),
        result(["ext", "x/kz3-permuted.json"], 0, b"not json"),
    ]
    assert checker.failures(bad) == len(bad)
    assert checker.failures(good + bad) == len(bad)


def test_expected_table_covers_every_catalog_command():
    with open(run.EXPECTED) as fh:
        table = json.load(fh)
    for cmds in workloads.CATALOG_COMMANDS.values():
        for argv in cmds:
            assert " ".join(argv) in table["commands"]
    assert sorted(table["permuted_ext_dims"]) == sorted(workloads.PERMUTED)


def export(name):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hopfhomology.instances import builtin_instances

    return json.loads(json.dumps(builtin_instances()[name].data.to_json()))


@pytest.mark.parametrize("name", workloads.PERMUTED)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permutation_then_inverse_reproduces_export(name, seed):
    blob = export(name)
    perm = workloads.seeded_permutation(random.Random(seed), blob["U"]["dim"])
    assert perm != sorted(perm)
    moved = workloads.permute_instance(blob, perm)
    assert moved != {k: v for k, v in blob.items() if k != "tail_basis"}
    back = workloads.permute_instance(moved, workloads.inverse_permutation(perm))
    blob.pop("tail_basis")
    assert back == blob


def test_inputs_depend_only_on_the_seed():
    cmds = workloads.CATALOG_COMMANDS["cli-sweep"]
    first = workloads.Inputs("cli-sweep", 5)
    again = workloads.Inputs("cli-sweep", 5)
    other = workloads.Inputs("cli-sweep", 6)
    assert first.pass_order(cmds) == again.pass_order(cmds)
    assert sorted(map(tuple, first.pass_order(cmds))) == sorted(map(tuple, cmds))
    assert first.pass_order(cmds) != other.pass_order(cmds)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == workloads.WORKLOADS
    assert {m["name"] for m in bench["end_to_end"]} == {
        "job_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_ratio"
    }


def test_traced_child_rebinds_names_imported_by_cli(tmp_path):
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "spans.py"), "--spans", str(out), "--",
         "verify-hopf", "kz2"],
        cwd=ROOT, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(run.EXPECTED) as fh:
        checker = run.Checker(json.load(fh))
    assert checker.ok(["verify-hopf", "kz2"], proc.returncode, proc.stdout)
    recorded, _ = spans.load_spans(str(out))
    names = {s[0] for s in recorded}
    # cli imports these three by name; they show only if rebound there too
    assert {"cli.run", "instances.builtin_instances", "bialgebroid.check_takeuchi",
            "bialgebroid.galois_map"} <= names
    root = [s for s in recorded if s[3] == -1]
    assert [s[0] for s in root] == ["cli.run"]

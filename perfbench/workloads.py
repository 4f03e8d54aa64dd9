"""Workload command lists and the seeded inputs of the benchmark.

A workload is a fixed list of `hopfhomology` CLI argument lists.  The seed
changes only the order of the commands within each pass and, for
`cli-sweep`, the basis permutation of the exported instance files.  The
program sees nothing but the generated argument lists and files.
"""

from __future__ import annotations

import json
import random

# Kept in step with ACCEPTANCE_COMMANDS in tests/test_acceptance.py at the
# commit that defined the benchmark; copied so that a later change to the
# tests cannot change what the benchmark measures.
ACCEPTANCE_COMMANDS = [
    ["instances", "list"],
    ["verify-hopf", "sweedler"],
    ["verify-hopf", "lie-nonabelian2"],
    ["ext", "qs3", "--module", "trivial", "--max-degree", "3"],
    ["tor", "lie-abelian2", "--module", "trivial", "--max-degree", "2"],
    ["cup", "lie-abelian2", "--max-total", "2"],
    ["cap", "lie-nonabelian2", "--max-degree", "2"],
    ["duality", "lie-nonabelian2", "--module", "trivial"],
    ["oracle", "hochschild", "qeps", "--max-degree", "3"],
]

# Catalog instances not already checked by an acceptance command.
# monoid01 is the negative control: its Galois map is singular, exit 1.
OTHER_CATALOG = [
    "kz2", "kz3", "qs3", "env-qeps", "env-qxq", "env-upper2", "monoid01",
    "lie-abelian1", "lie-abelian2", "lie-sl2",
]

# Instances exported, permuted and loaded back from a file in cli-sweep.
PERMUTED = ["kz3", "qs3", "sweedler"]
PERMUTED_EXT_DEGREE = 2

CATALOG_COMMANDS = {
    "bar-cohomology": [
        ["ext", "qs3", "--module", "std2", "--max-degree", "3"],
        ["tor", "qs3", "--module", "trivial", "--max-degree", "3"],
        ["ext", "env-upper2", "--module", "A", "--max-degree", "5"],
    ],
    "bar-products": [
        ["cup", "sweedler", "--max-total", "1"],
        ["cup", "kz3", "--max-total", "2"],
        ["cup", "env-qeps", "--max-total", "2"],
        ["duality", "qs3", "--module", "trivial"],
    ],
    "lie-duality": [
        ["duality", "lie-sl2", "--module", "adjoint"],
        ["duality", "lie-nonabelian2", "--module", "adjoint", "--pbw-bound", "6"],
        ["verify-hopf", "lie-sl2", "--pbw-bound", "5"],
        ["ext", "lie-nonabelian2", "--module", "adjoint", "--max-degree", "2",
         "--resolution", "bar", "--pbw-bound", "6"],
        ["cap", "lie-sl2", "--max-degree", "3"],
    ],
    "cli-sweep": ACCEPTANCE_COMMANDS
    + [["verify-hopf", name] for name in OTHER_CATALOG]
    + [
        ["oracle", "hochschild", "qxq", "--max-degree", "3"],
        ["oracle", "hochschild", "upper2", "--max-degree", "3"],
    ],
}

WORKLOADS = list(CATALOG_COMMANDS)


def reference_ext_command(name):
    """The catalog command whose Ext dims a permuted copy of `name` must match."""
    return ["ext", name, "--module", "trivial", "--max-degree", str(PERMUTED_EXT_DEGREE)]


def file_commands(path):
    """The commands cli-sweep runs on one permuted instance file."""
    return [
        ["verify-hopf", path],
        ["ext", path, "--module", "A", "--max-degree", str(PERMUTED_EXT_DEGREE)],
    ]


def seeded_permutation(rng, n):
    """perm[k] is the old index of the new basis element k."""
    perm = list(range(n))
    while n > 1 and perm == list(range(n)):
        rng.shuffle(perm)
    return perm


def inverse_permutation(perm):
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    return inv


def permute_instance(blob, perm):
    """Rewrite an exported instance in the permuted basis of U.

    New basis element k is old element perm[k].  U's multiplication table,
    unit and labels, the rows of eta, the rows and columns of Delta_lift
    and the list epsilon_hat all move together.  tail_basis is dropped: a
    permuted one no longer matches the ground-field tail table that the
    bar resolution expects, and the loader rebuilds it from the basis.
    """
    U = blob["U"]
    n = U["dim"]
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of U's basis")
    mult = U["mult"]
    lift = blob["Delta_lift"]
    return {
        "U": {
            "dim": n,
            "labels": [U["labels"][p] for p in perm],
            "unit": [U["unit"][p] for p in perm],
            "mult": [[[mult[pi][pj][pk] for pk in perm] for pj in perm] for pi in perm],
        },
        "A": blob["A"],
        "eta": [blob["eta"][p] for p in perm],
        "Delta_lift": [[lift[pi * n + pj][pc] for pc in perm] for pi in perm for pj in perm],
        "epsilon_hat": [blob["epsilon_hat"][p] for p in perm],
    }


class Inputs:
    """Everything a workload hands to the program for one seed."""

    def __init__(self, workload, seed):
        if workload not in CATALOG_COMMANDS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.rng = random.Random(f"{workload}:{seed}")
        self.permuted = PERMUTED if workload == "cli-sweep" else []

    def write_files(self, exported, directory):
        """Write one permuted copy per exported instance; return {path: name}."""
        out = {}
        for name in self.permuted:
            blob = exported[name]
            perm = seeded_permutation(self.rng, blob["U"]["dim"])
            path = f"{directory}/{name}-permuted.json"
            with open(path, "w") as fh:
                json.dump(permute_instance(blob, perm), fh)
            out[path] = name
        return out

    def pass_order(self, commands):
        """A fresh seeded order of the commands for one pass."""
        order = list(commands)
        self.rng.shuffle(order)
        return order

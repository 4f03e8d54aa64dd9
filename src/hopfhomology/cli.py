"""Command line front end: run computations, emit deterministic JSON.

Subcommands: instances list, verify-hopf, ext, tor, cup, cap, duality,
oracle hochschild.  Reports go to standard output as JSON with sorted
keys and rationals rendered as strings, so identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 a verification check
failed (the report carries the witness), 2 usage or input errors, 3 a
certified window was exceeded; run() maps the package's exceptions to
them, so no input ends in a traceback.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache, partial

from .errors import HopfHomologyError, NotInvertibleError, WindowExceededError
from .instances import builtin_instances
from .linalg import frac_str

# Each command imports the modules it runs, and only those of its side
# (bialgebroid and resolutions for a finite U, pbw and ce for U(g)), so
# start-up loads, compiles and builds only what the command needs.


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


class _UsageError(HopfHomologyError):
    """An input error; run() prints its message and exits 2."""

    exit_code = 2


def _get_instance(name):
    cat = builtin_instances()
    if name in cat:
        return cat[name]
    import os

    from .bialgebroid import BialgebroidData
    from .instances import Instance
    from .algebras import ModuleRep

    if os.path.exists(name):
        try:
            with open(name) as fh:
                blob = json.load(fh)
            data = BialgebroidData.from_json(blob, name=os.path.basename(name))
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError, OSError) as e:
            raise _UsageError(f"could not load instance file {name!r}: {e}") from e
        modules = {"A": data.a_module(), "U": ModuleRep.regular_left(data.U)}
        return Instance(data.name, "findim", data, modules, {}, f"loaded from {name}")
    raise _UsageError(f"unknown instance {name!r}")


def _module(inst, mods, name):
    """The module `name` among `mods`, or a usage error naming the choices."""
    if name in mods:
        return mods[name]
    if not mods:
        raise _UsageError(f"instance {inst.name!r} has no modules")
    raise _UsageError(f"unknown module {name!r}; choose from {sorted(mods)}")


def cmd_instances(args):
    if args.action == "list":
        from .instances import CATALOG

        rows = [
            {"name": k, "kind": kind, "description": description, "expect_hopf": expect_hopf}
            for k, (kind, description, expect_hopf, _) in sorted(CATALOG.items())
        ]
        _emit({"command": "instances list", "instances": rows})
        return 0
    # export: the finite dimensional data in the documented JSON format
    cat = builtin_instances()
    if args.name is None or args.name not in cat:
        raise _UsageError("instances export needs a catalog name")
    inst = cat[args.name]
    if inst.kind == "lie":
        raise _UsageError("universal envelope instances have no finite JSON form")
    _emit(inst.data.to_json())
    return 0


def cmd_verify_hopf(args):
    inst = _get_instance(args.instance)
    if inst.kind == "lie":
        from .pbw import ug_hopf_report

        checks = ug_hopf_report(inst.data, bound=args.pbw_bound)
        report = {
            "command": "verify-hopf",
            "instance": inst.name,
            "window": {"pbw_degree": args.pbw_bound},
            "checks": checks,
        }
        _emit(report)
        return 0 if all(checks.values()) else 1
    from .bialgebroid import check_schauenburg, check_takeuchi, galois_map

    tak = check_takeuchi(inst.data)
    checks = dict(tak.checks)
    witnesses = list(tak.failures)
    hopf = None
    sch = {}
    try:
        h = galois_map(inst.data)
        hopf = True
        srep = check_schauenburg(h)
        sch = dict(srep.checks)
        witnesses += list(srep.failures)
    except NotInvertibleError as e:
        hopf = False
        witnesses.append(f"galois map not bijective: rank {e.rank} of {e.dims}")
    report = {
        "command": "verify-hopf",
        "instance": inst.name,
        "checks": checks,
        "schauenburg": sch,
        "galois_invertible": hopf,
        "witnesses": witnesses,
    }
    _emit(report)
    ok = all(checks.values()) and hopf and all(sch.values())
    return 0 if ok else 1


def cmd_ext_tor(args, which):
    inst = _get_instance(args.instance)
    resolution = args.resolution
    if resolution is None:
        resolution = "ce" if inst.kind == "lie" else "bar"
    # each branch picks a builder and its window; the module lookup comes before any build
    if inst.kind != "lie":
        from .resolutions import bar_resolution

        if resolution == "ce":
            raise _UsageError("the Koszul resolution serves a universal envelope only")
        window = args.depth if args.depth is not None else args.max_degree + 1
        build = partial(bar_resolution, inst.data, window)
    elif resolution == "bar":
        from .ce import UgBarComplex

        if which != "ext":
            raise _UsageError("the truncated bar model over a universal envelope serves ext only")
        if inst.name == "lie-sl2":
            raise _UsageError("lie-sl2 is certified for the Koszul resolution only")
        build, window = partial(UgBarComplex, inst.data, args.pbw_bound), args.pbw_bound
    else:
        from .ce import ce_resolution

        build, window = partial(ce_resolution, inst.data), None  # complete: no window
    from .homology import ext_dims, tor_dims

    M = _module(inst, inst.modules if which == "ext" else inst.right_modules, args.module)
    if resolution == "bar" and inst.kind == "lie" and args.max_degree >= window:
        # the model is the bar cochains modulo a kernel of PBW weight > b, acyclic in degrees <= b
        raise WindowExceededError(f"Ext degree {args.max_degree} outside the bar model's certified window: "
                                  f"degrees below --pbw-bound {window}")
    dims = (ext_dims if which == "ext" else tor_dims)(build(), M, args.max_degree)
    rows = [
        {"degree": n, "dim": dim, "resolution": resolution, "window": window}
        for n, dim in enumerate(dims)
    ]
    _emit({"command": which, "instance": inst.name, "module": args.module, "rows": rows})
    return 0


def cmd_cup(args):
    from .homology import ext

    inst = _get_instance(args.instance)
    if inst.kind == "lie":
        from .ce import ce_resolution
        from .products import CEProducts

        res = ce_resolution(inst.data)
        pr = CEProducts(res)
        M = inst.modules["trivial"]

        def moved(c, degree):
            return c

    else:
        from .bialgebroid import galois_map, unit_iso
        from .products import BarProducts, transport_cochain
        from .resolutions import bar_resolution

        h = galois_map(inst.data)
        M = inst.modules.get("A") or inst.modules["trivial"]
        res = bar_resolution(inst.data, args.max_total + 1)
        pr = BarProducts(h, res, args.max_total)
        # every cup lands in the one tensor module M (x) M, moved back onto M
        tm = pr.tensor(M, M, left=True)
        iso = unit_iso(inst.data, M, tm)

        def moved(c, degree):
            return transport_cochain(res.rank(degree), iso, c, tm.space.dim)

    groups = {n: ext(res, M, n) for n in range(args.max_total + 1)}
    tables = []
    for m in range(args.max_total + 1):
        for n in range(args.max_total + 1 - m):
            table = []
            for phi in groups[m].representatives():
                row = []
                for psi in groups[n].representatives():
                    c = moved(pr.cup(m, n, phi, psi, M, M)[0], m + n)
                    row.append([frac_str(x) for x in groups[m + n].class_of(c)])
                table.append(row)
            tables.append({"op": "cup", "m": m, "n": n, "table": table})
    _emit({"command": "cup", "instance": inst.name, "tables": tables})
    return 0


def cmd_cap(args):
    inst = _get_instance(args.instance)
    if inst.kind != "lie":
        raise _UsageError("cap tables are emitted for universal envelope instances")
    from .ce import ce_resolution
    from .homology import ext, tor
    from .products import CEProducts

    res = ce_resolution(inst.data)
    pr = CEProducts(res)
    tor_of = cache(partial(tor, res))  # one Tor group per (module, degree)
    triv, trivr = inst.modules["trivial"], inst.right_modules["trivial"]
    tables = []
    for m in range(args.max_degree + 1):
        eg = ext(res, triv, m)
        for n in range(m, args.max_degree + 1):
            tg = tor_of(trivr, n)
            table = []
            for phi in eg.representatives():
                row = []
                for z in tg.representatives():
                    c, tm = pr.cap(m, phi, z, n, triv, trivr)
                    out = tor_of(tm, n - m)
                    row.append([frac_str(x) for x in out.class_of(c)])
                table.append(row)
            tables.append({"op": "cap", "m": m, "n": n, "table": table})
    _emit({"command": "cap", "instance": inst.name, "tables": tables})
    return 0


def cmd_duality(args):
    inst = _get_instance(args.instance)
    M = _module(inst, inst.modules, args.module)
    if inst.kind == "lie":
        from .duality import delta_chain_check_ug, detect_duality_ug, duality_isomorphism_ug
        from .products import CEProducts

        dd = detect_duality_ug(inst.data, bound=args.pbw_bound)
        # the table caps through the Koszul diagonal, so check it as ext, tor, cup and cap do
        dd.resolution.check_diagonal_chain_map()
        pr = CEProducts(dd.resolution)
        table = []
        ok = True
        for m in range(dd.dimension + 1):
            mat, eg, tg = duality_isomorphism_ug(pr, dd, M, m)
            bij = eg.dim == tg.dim and (eg.dim == 0 or mat.rank() == eg.dim)
            ok = ok and bij
            table.append({"m": m, "ext_dim": eg.dim, "tor_dim": tg.dim, "bijective": bij})
        report = {
            "command": "duality",
            "instance": inst.name,
            "module": args.module,
            "d": dd.dimension,
            "Astar_dim": dd.astar.dim,
            "Astar_weights": [frac_str(w) for w in dd.weights],
            "omega": [frac_str(x) for x in dd.omega],
            "window": {"pbw_degree": dd.bound},
            "checks": dd.report.checks,
            "delta_chain_check": delta_chain_check_ug(dd, dd.astar),
            "table": table,
        }
        _emit(report)
        return 0 if ok and dd.report.ok else 1
    # finite dimensional: the semisimple, dimension zero route
    from .bialgebroid import galois_map
    from .duality import cap_omega_underived, dual_bases

    data = inst.data
    trivial_like = inst.modules.get("trivial") or inst.modules.get("A")
    h = galois_map(data)
    db = dual_bases(data, trivial_like)
    fwd, src, target, tm = cap_omega_underived(h, M, db)
    report = {
        "command": "duality",
        "instance": inst.name,
        "module": args.module,
        "d": 0,
        "Astar_dim": db.astar_module.dim,
        "omega": [frac_str(x) for x in db.omega],
        "table": [
            {"m": 0, "ext_dim": src.dim, "tor_dim": target.dim, "bijective": True}
        ],
    }
    _emit(report)
    return 0


def cmd_oracle(args):
    if args.kind != "hochschild":
        raise _UsageError("only the hochschild oracle is exposed")
    from .instances import dual_numbers, q_times_q, upper_triangular2
    from .oracles import hochschild_cohomology_dims, hochschild_homology_dims

    algebras = {
        "qeps": dual_numbers,
        "qxq": q_times_q,
        "upper2": upper_triangular2,
    }
    if args.algebra not in algebras:
        raise _UsageError(f"unknown algebra {args.algebra!r}; choose from {sorted(algebras)}")
    A = algebras[args.algebra]()
    up = hochschild_cohomology_dims(A, args.max_degree)
    down = hochschild_homology_dims(A, args.max_degree)
    _emit(
        {
            "command": "oracle hochschild",
            "algebra": args.algebra,
            "cohomology": up,
            "homology": down,
        }
    )
    return 0


def _int_at_least(low):
    """argparse type: an integer no smaller than low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser():
    natural = _int_at_least(0)
    p = argparse.ArgumentParser(prog="hopfhomology")
    sub = p.add_subparsers(dest="cmd")

    pi = sub.add_parser("instances")
    pi.add_argument("action", choices=["list", "export"])
    pi.add_argument("name", nargs="?", default=None)

    pv = sub.add_parser("verify-hopf")
    pv.add_argument("instance")
    pv.add_argument("--pbw-bound", type=natural, default=3)

    for name in ("ext", "tor"):
        pe = sub.add_parser(name)
        pe.add_argument("instance")
        pe.add_argument("--module", default="trivial")
        pe.add_argument("--max-degree", type=natural, default=2)
        pe.add_argument("--resolution", choices=["bar", "ce"], default=None)
        pe.add_argument("--depth", type=_int_at_least(1), default=None)
        pe.add_argument("--pbw-bound", type=natural, default=4)

    pc = sub.add_parser("cup")
    pc.add_argument("instance")
    pc.add_argument("--max-total", type=natural, default=2)

    pk = sub.add_parser("cap")
    pk.add_argument("instance")
    pk.add_argument("--max-degree", type=natural, default=2)

    pd = sub.add_parser("duality")
    pd.add_argument("instance")
    pd.add_argument("--module", default="trivial")
    pd.add_argument("--pbw-bound", type=natural, default=4)

    po = sub.add_parser("oracle")
    po.add_argument("kind", choices=["hochschild"])
    po.add_argument("algebra")
    po.add_argument("--max-degree", type=natural, default=3)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.cmd == "instances":
            return cmd_instances(args)
        if args.cmd == "verify-hopf":
            return cmd_verify_hopf(args)
        if args.cmd == "ext":
            return cmd_ext_tor(args, "ext")
        if args.cmd == "tor":
            return cmd_ext_tor(args, "tor")
        if args.cmd == "cup":
            return cmd_cup(args)
        if args.cmd == "cap":
            return cmd_cap(args)
        if args.cmd == "duality":
            return cmd_duality(args)
        if args.cmd == "oracle":
            return cmd_oracle(args)
    except HopfHomologyError as e:
        if e.exit_code != 1:
            sys.stderr.write(str(e) + "\n")
            return e.exit_code
        # a structural check failed: report its witness
        _emit(
            {
                "command": args.cmd,
                "instance": getattr(args, "instance", None),
                "failure": type(e).__name__,
                "witnesses": [e.witness],
            }
        )
        return 1
    return 2


def main():
    code = run(sys.argv[1:])
    # the process ends here: frozen objects are skipped by the collection
    # that interpreter finalization runs, and run() never freezes its caller
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()

import copy
import functools
import json
import operator
import random
import subprocess
import sys

import pytest

from hopfhomology.cli import run


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_instances_list(capsys):
    code, out = run_capture(["instances", "list"], capsys)
    assert code == 0
    data = json.loads(out)
    names = {row["name"] for row in data["instances"]}
    assert "sweedler" in names and "monoid01" in names


def test_instances_list_takes_no_name(capsys):
    code, out, err = _run_failure(["instances", "list", "extra"], capsys)
    assert (code, out) == (2, "")
    assert err == "instances list takes no name, got 'extra'\n"


def test_verify_hopf_sweedler(capsys):
    code, out = run_capture(["verify-hopf", "sweedler"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["galois_invertible"] is True
    assert all(data["checks"].values())
    assert all(data["schauenburg"].values())


def test_verify_hopf_negative_control_exit_one(capsys):
    code, out = run_capture(["verify-hopf", "monoid01"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["galois_invertible"] is False
    assert data["witnesses"]


def test_verify_hopf_lie(capsys):
    code, out = run_capture(["verify-hopf", "lie-nonabelian2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert all(data["checks"].values())


def test_unknown_instance_usage_error(capsys):
    code = run(["verify-hopf", "nope"])
    assert code == 2


def test_verify_hopf_exit_one_only_for_negative_control(capsys):
    from hopfhomology.instances import builtin_instances

    for name, inst in sorted(builtin_instances().items()):
        code, _ = run_capture(["verify-hopf", name], capsys)
        expected = 0 if inst.expect_hopf else 1
        assert code == expected, name


def test_ext_qs3(capsys):
    code, out = run_capture(["ext", "qs3", "--module", "trivial", "--max-degree", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert [row["dim"] for row in data["rows"]] == [1, 0, 0, 0]


def test_ext_window_exceeded_exit_three(capsys):
    for which, group in (("ext", "Ext"), ("tor", "Tor")):
        code = run([which, "env-qeps", "--module", "A", "--max-degree", "3", "--depth", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{group} degree 2 outside certified window 0..1\n"


@pytest.mark.parametrize("module, bound, degree", [("trivial", 1, 1), ("adjoint", 0, 0)])
def test_bar_model_past_its_pbw_window_exits_three(module, bound, degree, capsys):
    # the bar model certifies Ext below its PBW bound only; these two would
    # read Ext^1 = 2 and Ext^0 = 2 from it, where the Koszul resolution gives 1 and 0
    argv = ["ext", "lie-nonabelian2", "--module", module, "--resolution", "bar",
            "--pbw-bound", str(bound), "--max-degree", str(degree)]
    code, out, err = _run_failure(argv, capsys)
    assert (code, out) == (3, "")
    window = {1: "0..0", 0: "(empty: no degree is certified)"}[bound]
    assert err == f"Ext degree {degree} outside certified window {window}\n"


@pytest.mark.parametrize("module", ["trivial", "adjoint"])
@pytest.mark.parametrize("bound", [2, 3, 4])
def test_bar_model_of_sl2_prints_the_koszul_dims_inside_its_window(module, bound, capsys):
    # the window, not the instance, decides what the bar model certifies
    top = ["--module", module, "--max-degree", str(bound - 1)]
    code, out = run_capture(["ext", "lie-sl2", *top, "--resolution", "bar", "--pbw-bound", str(bound)],
                            capsys)
    assert code == 0
    bar = [(row["degree"], row["dim"]) for row in json.loads(out)["rows"]]
    code, out = run_capture(["ext", "lie-sl2", *top], capsys)
    assert code == 0
    assert bar == [(row["degree"], row["dim"]) for row in json.loads(out)["rows"]]


def test_tor_lie(capsys):
    code, out = run_capture(["tor", "lie-abelian2", "--module", "trivial", "--max-degree", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert [row["dim"] for row in data["rows"]] == [1, 2, 1]


def test_cup_table_lie(capsys):
    code, out = run_capture(["cup", "lie-abelian2", "--max-total", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["tables"]


def test_cap_table_lie(capsys):
    code, out = run_capture(["cap", "lie-nonabelian2", "--max-degree", "2"], capsys)
    assert code == 0


@pytest.mark.parametrize("name, degree, pairs", [("lie-sl2", 3, 6), ("lie-nonabelian2", 2, 5)])
def test_cap_table_builds_each_tor_group_once(name, degree, pairs, monkeypatch, capsys):
    from hopfhomology import homology

    tor, built = homology.tor, []

    def counted(res, N, n):
        built.append((id(N), n))
        return tor(res, N, n)

    monkeypatch.setattr(homology, "tor", counted)
    code, _ = run_capture(["cap", name, "--max-degree", str(degree)], capsys)
    assert code == 0
    assert len(built) == len(set(built)) == pairs


def test_duality_nonabelian(capsys):
    code, out = run_capture(["duality", "lie-nonabelian2", "--module", "trivial"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 2
    assert data["Astar_dim"] == 1
    assert data["Astar_weights"] == ["1", "0"]
    dims = [(row["ext_dim"], row["tor_dim"], row["bijective"]) for row in data["table"]]
    assert dims == [(1, 1, True), (1, 1, True), (0, 0, True)]


def test_duality_semisimple_findim(capsys):
    code, out = run_capture(["duality", "qs3", "--module", "trivial"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 0


def test_oracle_hochschild(capsys):
    code, out = run_capture(["oracle", "hochschild", "qeps", "--max-degree", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["cohomology"] == [2, 1, 1, 1]
    assert data["homology"] == [2, 1, 1, 1]


def test_oracle_unknown_algebra_usage_error(capsys):
    assert run(["oracle", "hochschild", "nope"]) == 2


def test_instances_export_and_load_by_path(tmp_path, capsys):
    code, out = run_capture(["instances", "export", "sweedler"], capsys)
    assert code == 0
    path = tmp_path / "sweedler.json"
    path.write_text(out)
    code, out2 = run_capture(["verify-hopf", str(path)], capsys)
    assert code == 0
    data = json.loads(out2)
    assert data["galois_invertible"] is True
    # ext over the loaded instance works through the same surface
    code, out3 = run_capture(
        ["ext", str(path), "--module", "A", "--max-degree", "1", "--depth", "2"], capsys
    )
    assert code == 0


def test_entry_point_subprocess_determinism():
    cmd = [sys.executable, "-m", "hopfhomology.cli", "verify-hopf", "sweedler"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["ext", "qs3", "--max-degree", "-1"],
        ["tor", "qs3", "--max-degree", "-1"],
        ["cap", "lie-nonabelian2", "--max-degree", "-1"],
        ["oracle", "hochschild", "qeps", "--max-degree", "-1"],
        ["cup", "kz3", "--max-total", "-1"],
        ["verify-hopf", "lie-sl2", "--pbw-bound", "-1"],
        ["duality", "lie-sl2", "--pbw-bound", "-1"],
        ["ext", "qs3", "--depth", "0"],
        ["ext", "qs3", "--max-degree", "two"],
    ],
)
def test_invalid_numeric_argument_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err


def _run_failure(argv, capsys):
    """Run a command that must fail cleanly; return (code, stdout, stderr)."""
    code = run(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def test_cup_on_non_hopf_instance_reports_witness(capsys):
    code, out, _ = _run_failure(["cup", "monoid01", "--max-total", "1"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["failure"] == "NotInvertibleError"
    assert "not bijective" in data["witnesses"][0]


def test_duality_non_projective_reports_witness(capsys):
    code, out, _ = _run_failure(["duality", "env-qeps", "--module", "A"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["failure"] == "NotProjectiveError"
    assert data["witnesses"]


def test_duality_failed_cap_check_reports_witness(monkeypatch, capsys):
    from hopfhomology.errors import ValidationError

    def failing_cap(*args):
        raise ValidationError("cap with the degree zero class is not bijective")

    # the duality command imports cap_omega_underived from its home module when it runs
    monkeypatch.setattr("hopfhomology.duality.cap_omega_underived", failing_cap)
    code, out, _ = _run_failure(["duality", "qs3", "--module", "trivial"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["failure"] == "ValidationError"
    assert data["witnesses"] == ["cap with the degree zero class is not bijective"]


@pytest.mark.parametrize("argv", [
    ["cup", "lie-abelian2", "--max-total", "2"],
    ["duality", "lie-abelian2"],
], ids=["cup", "duality"])
def test_lie_commands_validate_the_koszul_diagonal(monkeypatch, capsys, argv):
    # cup, cap and duality read the diagonal of the Koszul resolution, so its chain map check stays on
    from hopfhomology.ce import CEResolution

    diagonal = CEResolution.diagonal

    def one_sign_flipped(self, K, i):
        out = diagonal(self, K, i)
        if len(K) == 2 and i == 1:
            key = next(iter(out))
            out[key] = -out[key]
        return out

    monkeypatch.setattr(CEResolution, "diagonal", one_sign_flipped)
    code, out, _ = _run_failure(argv, capsys)
    assert code == 1
    data = json.loads(out)
    assert data["failure"] == "ValidationError"
    assert data["witnesses"] == ["comultiplication is not a chain map at (0, 1)"]


def test_corrupted_instance_file_reports_witness(tmp_path, capsys):
    # a coproduct entry that breaks the descent of the Galois map
    code, out = run_capture(["instances", "export", "env-qeps"], capsys)
    assert code == 0
    blob = json.loads(out)
    blob["Delta_lift"][1][1] = 1000000
    path = tmp_path / "env-qeps.json"
    path.write_text(json.dumps(blob))
    code, out, _ = _run_failure(["verify-hopf", str(path)], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["failure"] == "NotWellDefinedError"
    assert data["witnesses"] == ["Galois map does not descend; data corrupted"]


ERROR_CODES = [
    ("NotWellDefinedError", 1),
    ("NotInvertibleError", 1),
    ("NotProjectiveError", 1),
    ("NotDualityError", 1),
    ("LiftFailedError", 1),
    ("DegreeOverflowError", 1),
    ("ValidationError", 1),
    ("WindowExceededError", 3),
]


@pytest.mark.parametrize("error, code", ERROR_CODES)
def test_every_package_error_ends_in_its_exit_code(error, code, monkeypatch, capsys):
    from hopfhomology import errors

    def failing(*args):
        raise getattr(errors, error)("injected failure")

    monkeypatch.setattr("hopfhomology.duality.cap_omega_underived", failing)
    got, out, err = _run_failure(["duality", "qs3", "--module", "trivial"], capsys)
    assert got == code
    if code == 1:
        data = json.loads(out)
        assert data["failure"] == error
        assert data["witnesses"][0].startswith("injected failure")
    else:
        assert (out, err) == ("", "injected failure\n")


def test_every_error_class_derives_from_the_package_base():
    from hopfhomology import errors

    classes = {name: c for name, c in vars(errors).items() if name.endswith("Error")}
    assert set(classes) == {name for name, _ in ERROR_CODES} | {"HopfHomologyError"}
    assert all(issubclass(c, errors.HopfHomologyError) for c in classes.values())


# what the corruption sweep sets a single field of an exported instance to
CORRUPT_VALUES = ["0", "1", "-1", "2", "1/2", "1000000", "x", "1/0", "1e3", "", None, True,
                  3, -1, 0, 0.5, [], {}, ["1"], [[]], {"dim": 1}]


def _fields(blob, path=()):
    """The path of every dict entry and list element below blob, lists included."""
    items = blob.items() if isinstance(blob, dict) else enumerate(blob) if isinstance(blob, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def test_seeded_corruption_sweep_ends_in_an_exit_code(tmp_path, capsys):
    # 200 seeded single-field corruptions (a new value or a deleted field) of
    # three exported instances; each must end in exit 0, 1 or 2, never raise
    blobs = {}
    for name in ("kz2", "sweedler", "env-qeps"):
        assert run(["instances", "export", name]) == 0
        blobs[name] = json.loads(capsys.readouterr().out)
    rng = random.Random(0)
    path = tmp_path / "corrupted.json"
    codes = set()
    for _ in range(200):
        name = rng.choice(sorted(blobs))
        blob = copy.deepcopy(blobs[name])
        *parents, last = field = rng.choice(list(_fields(blob)))
        holder = functools.reduce(operator.getitem, parents, blob)
        if rng.random() < 0.25:
            del holder[last]
            case = (name, field, "deleted")
        else:
            holder[last] = rng.choice(CORRUPT_VALUES)
            case = (name, field, holder[last])
        path.write_text(json.dumps(blob))
        code = run(["verify-hopf", str(path)])
        assert code in (0, 1, 2), case
        assert "Traceback" not in capsys.readouterr().err, case
        codes.add(code)
    assert codes == {0, 1, 2}


def _bad_shape_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"U": [1, 2]}')
    return path


def _zero_denominator_file(tmp_path):
    from hopfhomology.instances import builtin_instances

    blob = builtin_instances()["kz2"].data.to_json()
    blob["eta"][1][0] = "1/0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(blob))
    return path


def _bool_rational_file(tmp_path):
    from hopfhomology.instances import builtin_instances

    blob = builtin_instances()["kz2"].data.to_json()
    blob["U"]["unit"] = [True, 0]
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(blob))
    return path


MALFORMED_FILES = {
    "bad-shape": _bad_shape_file,
    "bool-rational": _bool_rational_file,
    "zero-denominator": _zero_denominator_file,
    "directory": lambda tmp_path: tmp_path,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_instance_file_usage_error(case, tmp_path, capsys):
    path = MALFORMED_FILES[case](tmp_path)
    code, out, err = _run_failure(["verify-hopf", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "could not load instance file" in err
    assert len(err.splitlines()) == 1
    assert "unknown instance" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ext", "monoid01"], "instance 'monoid01' has no modules"),
        (["ext", "qs3", "--module", "nope"],
         "unknown module 'nope'; choose from ['regular', 'sign', 'std2', 'trivial']"),
        (["tor", "lie-abelian2", "--module", "adjoint"],
         "unknown module 'adjoint'; choose from ['trivial']"),
        (["ext", "lie-nonabelian2", "--module", "nope", "--resolution", "bar"],
         "unknown module 'nope'; choose from ['adjoint', 'trivial']"),
        (["duality", "qs3", "--module", "nope"],
         "unknown module 'nope'; choose from ['regular', 'sign', 'std2', 'trivial']"),
        (["duality", "lie-abelian1", "--module", "nope"],
         "unknown module 'nope'; choose from ['adjoint', 'trivial']"),
    ],
)
def test_unknown_module_usage_error_names_the_choices(argv, message, capsys):
    code, out, err = _run_failure(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tor", "lie-nonabelian2", "--resolution", "bar"], "serves ext only"),
        (["tor", "lie-sl2", "--resolution", "bar"], "serves ext only"),
        (["ext", "env-qeps", "--module", "A", "--resolution", "ce"], "universal envelope only"),
        (["tor", "qs3", "--resolution", "ce"], "universal envelope only"),
    ],
)
def test_resolution_the_instance_does_not_serve_usage_error(argv, message, capsys):
    code, out, err = _run_failure(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, computation",
    [
        (["duality", "lie-sl2", "--module", "nope"], "hopfhomology.duality.detect_duality_ug"),
        (["ext", "qs3", "--module", "nope"], "hopfhomology.resolutions.bar_resolution"),
        (["tor", "lie-abelian2", "--module", "adjoint"], "hopfhomology.ce.ce_resolution"),
    ],
)
def test_unknown_module_exits_before_computing(argv, computation, monkeypatch, capsys):
    # each command imports its computation from the home module when it runs
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{computation} ran before the module lookup")

    monkeypatch.setattr(computation, must_not_run)
    code, out, err = _run_failure(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("unknown module")

import argparse
import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hopftwistor import (
    HypersurfacePatch,
    InputError,
    ValidationError,
    herm_form,
    horosphere,
    horosphere_defining_residual,
    tube_complex,
    tube_real,
)
from hopftwistor import cli
from hopftwistor.cli import main
from hopftwistor.generator import orbit_patch_from_form, parse_constants
from hopftwistor.hypersurface import DEFAULT_TOLERANCES, shape_operator, verify_hopf
from hopftwistor.sampling import random_one_param

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
GOLDEN = json.loads((pathlib.Path(__file__).with_name("golden_reports.json")).read_text())


FLAT_FORM_DOC = {
    "kind": "block-form",
    "alpha0": [0.0, 0.0],
    "alpha1": [0.0, 0.0],
    "x_form": [[0.0, 0.0], [0.0, 0.0]],
    "y0": [[1.0, 0.0], [0.0, 1.0]],
    "y1": [[1.0, 0.0], [0.0, 1.0]],
    "w1": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "w2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_to_file(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def base_names(doc):
    return {c["name"].split("@")[0].split("[")[0] for c in doc["checks"]}


def test_verify_hopf_certifies(tmp_path):
    code, out = run_to_file(
        tmp_path, ["verify-hopf", "--n", "2", "--s", "plus", "--r", "0.5"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert doc["command"] == "verify-hopf"
    assert any(c["name"] == "trichotomy-margin" for c in doc["checks"])


def test_build_example_horosphere(tmp_path):
    code, out = run_to_file(tmp_path, ["build-example", "--n", "2", "--s", "zero"])
    assert code == 0
    doc = json.loads(out.read_text())
    names = base_names(doc)
    assert "defining-relation" in names
    assert any(n.startswith("eigenvalue") for n in names)


def test_verify_curves_small(tmp_path):
    code, out = run_to_file(tmp_path, ["verify-curves", "--n", "2", "--r", "0.5"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert {"curvature", "circle-residual", "parallel-residual"} <= base_names(doc)


def test_verify_curves_degenerate_radius(tmp_path):
    code, out = run_to_file(tmp_path, ["verify-curves", "--n", "2", "--r", "0"])
    assert code == 1
    doc = json.loads(out.read_text())
    bad = [c for c in doc["checks"] if not c["pass"]]
    assert bad
    assert all(c["name"].split("@")[0] == "degenerate-radius" for c in bad)


def test_tube_requires_radius():
    assert main(["build-example", "--n", "2", "--s", "plus"]) == 2
    assert main(["build-example", "--n", "2", "--s", "plus", "--r", "0"]) == 2
    assert main(["build-example", "--n", "2", "--s", "plus", "--r", "0.5", "--k", "5"]) == 2


def test_bad_tolerance_and_args():
    assert main(["verify-hopf", "--n", "2", "--s", "plus", "--r", "0.5", "--tol", "bogus=1"]) == 2
    assert main(["verify-hopf", "--n", "2", "--s", "plus", "--r", "0.5", "--tol", "mu"]) == 2
    assert main(["verify-hopf", "--n", "1", "--s", "plus", "--r", "0.5"]) == 2
    assert main(["no-such-command"]) == 2


def test_tolerance_override_flips_outcome(tmp_path):
    args = ["verify-hopf", "--n", "2", "--s", "plus", "--r", "0.5"]
    code, _ = run_to_file(tmp_path, args)
    assert code == 0
    code, out = run_to_file(tmp_path, args + ["--tol", "mu=1e-12"], "strict.json")
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["certified"] is False
    assert doc["config"]["tolerances"]["mu"] == 1e-12


def test_rank_tolerance_is_used(capsys):
    args = ["verify-hopf", "--n", "2", "--s", "plus", "--r", "0.5"]
    assert main(args + ["--tol", "rank=1e9"]) == 1
    captured = capsys.readouterr()
    assert "rank deficiency" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["mc-check", "cko-run"])
@pytest.mark.parametrize("field", ["alpha0", "w1"])
def test_non_finite_block_form_is_config_error(tmp_path, capsys, command, field):
    doc = json.loads(json.dumps(FLAT_FORM_DOC))
    if field == "alpha0":
        doc["alpha0"][0] = float("nan")
    else:
        doc["w1"][0][0][1] = float("nan")
    path = write_doc(tmp_path, "nan.json", doc)
    assert main([command, "--constants", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mc-check", "cko-run"])
@pytest.mark.parametrize("leaf", [False, "0"], ids=["bool", "string"])
def test_non_number_block_form_is_config_error(tmp_path, capsys, command, leaf):
    doc = json.loads(json.dumps(FLAT_FORM_DOC))
    doc["alpha0"][1] = leaf
    path = write_doc(tmp_path, "leaf.json", doc)
    assert main([command, "--constants", path]) == 2
    captured = capsys.readouterr()
    assert "config error: field 'alpha0' must hold only real numbers" in captured.err
    assert captured.out == ""


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    args = ["verify-hopf", "--n", "2", "--s", "zero", "--out", str(out)]
    assert main(args) == 2
    assert "config error: cannot write report:" in capsys.readouterr().err
    assert not out.exists()


def test_cko_run_seeded(tmp_path):
    code, out = run_to_file(tmp_path, ["cko-run", "--n", "2", "--seed", "5"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["constants"]["kind"] == "one-param"
    names = base_names(doc)
    assert {"immersion", "unit-multiplicity", "rho", "rho-constancy"} <= names


def test_cko_run_horosphere_constants(tmp_path):
    # y0 = y1: the transverse curvature is 1 at every height, and the rho
    # rows carry that value; no row repeats them.
    form = random_one_param(np.random.default_rng(0), horosphere=True)
    keys = ("alpha0", "alpha1", "x", "y0", "y1", "w")
    doc = {"kind": "one-param", **dict(zip(keys, form.scalars()))}
    assert doc["y0"] == doc["y1"]
    path = write_doc(tmp_path, "horosphere.json", doc)
    code, out = run_to_file(tmp_path, ["cko-run", "--constants", path])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["certified"]
    assert base_names(report) == {
        "immersion", "hopf-residual", "symmetry-residual", "lsq-residual", "mu",
        "unit-multiplicity", "rho", "rho-constancy", "horosphere-data",
    }
    names = [c["name"].split("@")[0] for c in report["checks"]]
    rho = [c for c, name in zip(report["checks"], names) if name == "rho"]
    assert len(rho) == 9
    assert all(c["expected"] == 1.0 for c in rho)
    assert "rho-horosphere" not in names


def test_cko_run_one_param_prints_every_verifier_row(tmp_path, monkeypatch):
    judged = []

    def spy(*args, **kwargs):
        judged.append(verify_hopf(*args, **kwargs))
        return judged[-1]

    monkeypatch.setattr(cli, "verify_hopf", spy)
    code, out = run_to_file(tmp_path, ["cko-run", "--n", "2", "--seed", "3"])
    assert code == 0
    (rep,) = judged
    printed = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    fields = ("value", "expected", "tolerance", "pass")
    for row in rep.checks:
        got = printed[row["name"]]
        assert [got[k] for k in fields] == [row[k] for k in fields], row["name"]


def test_cko_run_fails_the_mu_row_off_the_closed_form_at_one_point(tmp_path):
    # The median of this draw's nine structure eigenvalues lies inside the
    # tolerance and one grid point lies outside it.
    code, out = run_to_file(
        tmp_path, ["cko-run", "--n", "2", "--seed", "7", "--tol", "mu=5.0007542551355755e-09"]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert not report["certified"]
    (row,) = [c for c in report["checks"] if c["name"] == "mu"]
    assert not row["pass"]
    assert abs(row["value"] - 2.0) == pytest.approx(5.0015e-09, rel=1e-4)
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["mu"]


def test_cko_run_block_form_judges_mu_at_every_grid_point(tmp_path):
    constants = GOLDEN["cko-run-flat-form-n6"]["constants"]
    patch = orbit_patch_from_form(parse_constants(constants))
    mus = [shape_operator(patch, at).matrix[0, 0] for at in patch.grid(2, 4)]
    median_dev = abs(float(np.median(mus)) - 2.0)
    worst_dev = max(abs(m - 2.0) for m in mus)
    assert median_dev < worst_dev
    tol = float(0.5 * (median_dev + worst_dev))
    path = write_doc(tmp_path, "n6.json", constants)
    code, out = run_to_file(
        tmp_path, ["cko-run", "--constants", path, "--tol", f"mu={tol!r}"]
    )
    assert code == 1
    failing = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
    assert [c["name"] for c in failing] == ["mu"]
    assert failing[0]["value"] == max(mus, key=lambda m: abs(m - 2.0))


def test_cko_run_degenerate_constants(tmp_path, capsys):
    doc = {"kind": "one-param", "alpha0": 0.5, "alpha1": 0.5, "x": 1.0, "w": 0.5}
    path = write_doc(tmp_path, "degen.json", doc)
    code, out = run_to_file(tmp_path, ["cko-run", "--constants", path])
    assert code == 1
    report = json.loads(out.read_text())
    bad = [c for c in report["checks"] if not c["pass"]]
    assert any(c["name"].split("@")[0] == "immersion" for c in bad)
    assert "non-immersion" in capsys.readouterr().err


def test_cko_run_block_form(tmp_path):
    path = write_doc(tmp_path, "flat.json", FLAT_FORM_DOC)
    code, out = run_to_file(tmp_path, ["cko-run", "--constants", path])
    assert code == 0
    doc = json.loads(out.read_text())
    assert {"mc-residual", "two-path-witness", "immersion", "mu"} <= base_names(doc)


def _flat_block_form(n):
    """FLAT_FORM_DOC's form at dimension n: y0 = y1 = identity, all else 0."""
    m = n - 1
    zero, eye = np.zeros((m, m)).tolist(), np.eye(m).tolist()
    return {
        "kind": "block-form",
        "alpha0": [0.0] * m,
        "alpha1": [0.0] * m,
        "x_form": zero,
        "y0": eye,
        "y1": eye,
        "w1": np.zeros((m, m, m)).tolist(),
        "w2": np.zeros((m, m, m)).tolist(),
    }


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cko_run_seeded_draw_refuses_an_n_other_than_2(n, capsys):
    # The seeded draw is always an n = 2 form; a report must not echo an n
    # it did not certify.
    assert main(["cko-run", "--n", str(n), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["cko-run", "mc-check"])
def test_constants_refuse_a_different_n(command, tmp_path, capsys):
    path = write_doc(tmp_path, "flat.json", FLAT_FORM_DOC)  # an n = 3 form
    for n in ("2", "4"):
        assert main([command, "--n", n, "--constants", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.out == ""
    one_param = write_doc(tmp_path, "one.json", {"kind": "one-param", "x": 1.0, "w": 0.5})
    assert main([command, "--n", "3", "--constants", one_param]) == 2
    # The form's own n, given or not, gives the same report.
    omitted = main([command, "--constants", path, "--out", str(tmp_path / "a.json")])
    assert omitted == main([command, "--n", "3", "--constants", path, "--out", str(tmp_path / "b.json")])
    a, b = (json.loads((tmp_path / f).read_text()) for f in ("a.json", "b.json"))
    assert a["checks"] == b["checks"] and a["certified"] == b["certified"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_forms_certify_without_n(n, tmp_path):
    path = write_doc(tmp_path, "flat.json", _flat_block_form(n))
    code, out = run_to_file(tmp_path, ["cko-run", "--constants", path])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certified"]
    assert {"mc-residual", "immersion", "mu", "unit-multiplicity"} <= base_names(doc)


@pytest.mark.parametrize("command", ["cko-run", "mc-check"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_constants_echo_the_form_n(n, command, tmp_path):
    # Without --n the report names the dimension of the form it checked.
    path = write_doc(tmp_path, "flat.json", _flat_block_form(n))
    code, out = run_to_file(tmp_path, [command, "--constants", path])
    assert code == 0
    assert json.loads(out.read_text())["config"]["n"] == n


def _without_wall_time(err: str) -> str:
    return "".join(line for line in err.splitlines(True) if not line.startswith("wall_time_ms="))


def test_calls_in_one_process_equal_each_call_alone(tmp_path, capsys):
    # The parser is built once per process; neither it nor anything else may
    # carry a --tol list, a format or an error over to the next call.
    flat = write_doc(tmp_path, "flat.json", FLAT_FORM_DOC)
    sequence = [
        ["verify-hopf", "--n", "2", "--s", "zero", "--tol", "mu=0.5", "--tol", "eigenvalue=1e-3"],
        ["verify-hopf", "--n", "2", "--s", "zero"],
        ["verify-hopf", "--n", "2", "--s", "sideways"],
        ["mc-check", "--constants", flat, "--format", "csv"],
        ["mc-check", "--constants", flat, "--tol", "mc=1e-3"],
        ["verify-hopf", "--n", "2", "--s", "zero", "--tol", "foo=1"],
        ["cko-run", "--constants", flat],
        ["mc-check", "--constants", flat],
    ]
    together = []
    for argv in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        together.append((code, captured.out, _without_wall_time(captured.err)))
    alone = []
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-m", "hopftwistor.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
        alone.append((proc.returncode, proc.stdout, _without_wall_time(proc.stderr)))
    assert [code for code, _, _ in alone] == [0, 0, 2, 0, 0, 2, 0, 0]
    assert together == alone


def test_parser_is_built_on_first_use():
    code = "import hopftwistor.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    assert proc.stdout.strip() == "0"


def test_mc_check_requires_constants():
    assert main(["mc-check", "--n", "2"]) == 2


def test_mc_check_flat_and_corrupt(tmp_path):
    path = write_doc(tmp_path, "flat.json", FLAT_FORM_DOC)
    code, out = run_to_file(tmp_path, ["mc-check", "--constants", path])
    assert code == 0

    corrupt = json.loads(json.dumps(FLAT_FORM_DOC))
    corrupt["w1"][0][0][0] = 0.05
    path = write_doc(tmp_path, "corrupt.json", corrupt)
    assert main(["mc-check", "--constants", path]) == 2

    missing = str(tmp_path / "nowhere.json")
    assert main(["mc-check", "--constants", missing]) == 2


def test_mc_check_bent_form_fails_cleanly(tmp_path):
    bent = json.loads(json.dumps(FLAT_FORM_DOC))
    bent["alpha0"] = [1.0, 0.0]
    bent["x_form"] = [[1.0, 0.0], [0.0, 1.0]]
    bent["y0"] = [[0.0, 0.0], [0.0, 0.0]]
    bent["y1"] = [[0.0, 0.0], [0.0, 0.0]]
    path = write_doc(tmp_path, "bent.json", bent)
    code, out = run_to_file(tmp_path, ["mc-check", "--constants", path])
    assert code == 1
    doc = json.loads(out.read_text())
    failed = {c["name"].split("@")[0] for c in doc["checks"] if not c["pass"]}
    assert "mc-residual" in failed


def test_csv_output(tmp_path):
    code, out = run_to_file(
        tmp_path,
        ["verify-hopf", "--n", "2", "--s", "zero", "--format", "csv"],
        "out.csv",
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["name", "grid_point", "index", "value", "expected", "tolerance", "pass"]
    assert all(row[6] in ("true", "false") for row in rows[1:])


def test_stdout_when_no_out(capsys):
    code = main(["mc-check", "--constants", "/definitely/missing.json"])
    assert code == 2
    # config errors print a diagnostic, not a report
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert captured.out == ""


def test_json_to_stdout(capsys):
    code = main(["verify-curves", "--n", "2", "--r", "0.4"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["certified"] is True
    assert "wall_time_ms=" in captured.err


def test_byte_determinism(tmp_path):
    args = ["cko-run", "--n", "2", "--seed", "9"]
    _, a = run_to_file(tmp_path, args, "a.json")
    _, b = run_to_file(tmp_path, args, "b.json")
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["mc-check", "cko-run"])
@pytest.mark.parametrize("kind", ["one-param", "block-form"])
def test_integer_beyond_float_range_is_config_error(tmp_path, capsys, command, kind):
    huge = 10**400
    if kind == "one-param":
        doc = {"kind": "one-param", "x": huge}
    else:
        doc = json.loads(json.dumps(FLAT_FORM_DOC))
        doc["y0"][1][1] = huge
    path = write_doc(tmp_path, "huge.json", doc)
    assert main([command, "--constants", path]) == 2
    captured = capsys.readouterr()
    assert "config error: field" in captured.err
    assert "too large for a float" in captured.err
    assert captured.out == ""


FAMILY_ARGS = {"plus": ["--s", "plus", "--k", "1"], "minus": ["--s", "minus"], "zero": ["--s", "zero"]}


@pytest.mark.parametrize("command", ["verify-hopf", "build-example", "verify-curves"])
@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
@pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
def test_non_finite_radius_is_config_error(capsys, command, family, r):
    assert main([command, "--n", "2", *FAMILY_ARGS[family], f"--r={r}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: r must be a finite number, got {float(r)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify-hopf", "build-example", "verify-curves"])
@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
@pytest.mark.parametrize("r", ["800", "-800"])
def test_radius_beyond_the_float_range_is_config_error(capsys, command, family, r):
    assert main([command, "--n", "2", *FAMILY_ARGS[family], f"--r={r}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: r = {r} overflows a closed form (math range error)\n"
    assert captured.out == ""


def test_plus_family_overflows_at_half_the_radius(capsys):
    # -2coth(2r), the plus family's structure eigenvalue, overflows first.
    assert main(["verify-hopf", "--n", "2", "--s", "plus", "--k", "1", "--r", "400"]) == 2
    assert "config error: r = 400 overflows a closed form" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["cko-run", "--n", "2", "--seed", "-1"],
        ["verify-curves", "--n", "2", "--s", "plus", "--r", "0.5", "--seed", "-3"],
    ],
)
def test_negative_seed_is_config_error(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: seed must be >= 0, got {args[-1]}\n"
    assert captured.out == ""


# Recorded before the stencils carried their center point: the first grid
# point fails the hyperquadric check, in verify_hopf for verify-hopf and in
# the construction checks for build-example.
@pytest.mark.parametrize(
    "args, err",
    [
        (
            ["verify-hopf", "--n", "2", "--s", "zero", "--r", "8"],
            "verification error: not on the hyperquadric: |((w,w))+1| = 3.730e-09\n",
        ),
        (
            ["build-example", "--n", "3", "--s", "minus", "--r", "8"],
            "verification error: not on the hyperquadric: |((w,w))+1| = 2.794e-09\n",
        ),
    ],
)
def test_large_radius_stderr_is_pinned(capsys, args, err):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == ""


# Past the float range the Hermitian form gives NaN or inf; a NaN membership
# residual must fail like a large one: exit 1, one stderr line, no report.
@pytest.mark.parametrize(
    "command, family, r, value",
    [
        (command, family, r, "inf" if r == "356" else "nan")
        for command in ("verify-hopf", "build-example")
        for family in ("minus", "zero")
        for r in ("356", "500", "700")
    ],
)
def test_overflowing_lift_is_a_verification_error(capsys, command, family, r, value):
    assert main([command, "--n", "2", "--s", family, "--r", r]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"verification error: not on the hyperquadric: |((w,w))+1| = {value}\n"
    assert captured.out == ""


def _block_form_with(x_scale):
    doc = json.loads(json.dumps(FLAT_FORM_DOC))
    doc["x_form"] = [[x_scale, 0.0], [0.0, x_scale]]
    return doc


# A curve past the float range has a NaN tangency defect, which fails the
# horizontal projection's tangency test.
@pytest.mark.parametrize(
    "family, r",
    [(family, r) for family in ("plus", "minus", "zero") for r in ("150", "200", "300", "356", "500", "700")],
)
def test_overflowing_curve_is_a_verification_error(capsys, family, r):
    assert main(["verify-curves", "--n", "2", "--s", family, "--r", r]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verification error: not tangent to the hyperquadric: <X,w> = nan\n"
    assert captured.out == ""


# A non-finite check value is refused by the report writer; the CLI names the
# check in one verification-error line and exits 1.
@pytest.mark.parametrize("command", ["mc-check", "cko-run"])
def test_non_finite_check_value_is_a_verification_error(tmp_path, capsys, command):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(_block_form_with(1e200)))
    assert main([command, "--constants", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "verification error: non-finite value for 'commutator-residual' in report: inf\n"
    )
    assert captured.out == ""


def test_overflow_errors_print_one_line_and_no_traceback():
    for args in (
        ["verify-hopf", "--n", "2", "--s", "minus", "--r", "500"],
        ["verify-curves", "--n", "2", "--s", "minus", "--r", "150"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "hopftwistor.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("verification error: "), proc.stderr


# A grid of more than 2^63 - 1 points has no int64 index: one config-error
# line, before any grid array is allocated.
@pytest.mark.parametrize(
    "args",
    [
        ["--n", "6", "--s", "zero", "--grid", "1000"],
        ["--n", "40", "--s", "zero", "--grid", "3"],
        ["--n", "20", "--s", "zero"],
        ["--n", "2", "--s", "zero", "--grid", "100000000000"],
    ],
)
@pytest.mark.parametrize("command", ["verify-hopf", "build-example"])
def test_grid_past_the_int64_range_is_config_error(capsys, command, args):
    tracemalloc.start()
    try:
        code = main([command, *args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("config error: cannot build the grid: a grid of ")
    assert lines[0].endswith(" points exceeds the int64 index range")
    assert captured.out == ""
    assert peak < 2**24


def test_orbit_grid_past_the_int64_range_is_config_error(tmp_path, capsys, monkeypatch):
    # A block form reaches such a grid only at n >= 33, where the flatness
    # checks alone take seconds; the grid's refusal is stood in for here.
    def refuse(self, density, cap):
        raise InputError("a grid of 2^66 points exceeds the int64 index range")

    monkeypatch.setattr(HypersurfacePatch, "grid", refuse)
    path = write_doc(tmp_path, "form.json", FLAT_FORM_DOC)
    assert main(["cko-run", "--constants", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: cannot build the grid: a grid of 2^66 points exceeds the int64 index range\n"
    )
    assert captured.out == ""


def _point_construction_checks(patch, grid):
    """Reference: the construction checks one grid point at a time, with
    patch.point and patch.normal."""
    rows = []
    for at in grid[:: max(1, len(grid) // 5)][:5]:
        pair = np.array([patch.point(at), patch.normal(at)])
        gram = herm_form(pair[:, None], pair[None])
        rows += [abs(gram[0, 0] + 1.0), abs(gram[1, 1] - 1.0), abs(gram[1, 0])]
        if patch.sign == "zero":
            rows.append(horosphere_defining_residual(pair[0], patch.r))
    return rows


def _construction_args():
    return argparse.Namespace(tol=dict(DEFAULT_TOLERANCES))


@pytest.mark.parametrize("patch", [tube_complex(3, 1, 0.7), tube_real(4, 2.3), horosphere(2, 0.5)])
def test_construction_checks_equal_the_point_by_point_rows(patch):
    grid = patch.grid()
    got = [c["value"] for c in cli._construction_checks(_construction_args(), patch, grid)]
    assert got == _point_construction_checks(patch, grid)


def test_construction_checks_raise_for_the_first_point_off_the_quadric():
    # Chart points with t > 0 are pushed off the hyperquadric; the stacked
    # checks must raise what patch.point raises for the first of them.
    base = horosphere(2, 0.5)
    bent = dataclasses.replace(
        base, eval_func=lambda at: base.eval_func(at) * (1.0 + 1e-6 * (at[..., 1:2] > 0))
    )
    grid = bent.grid()
    with pytest.raises(ValidationError) as want:
        _point_construction_checks(bent, grid)
    with pytest.raises(ValidationError) as got:
        cli._construction_checks(_construction_args(), bent, grid)
    assert str(got.value) == str(want.value)
    assert got.value.residual == want.value.residual


# One injected fault per construction row: the certifying patch, the fault,
# and tolerance overrides.  A point off the hyperquadric by more than
# STRUCTURE_TOL = 1e-10 is refused by AdSPoint before any row is judged, so
# the quadric fault stays below it (2e-11) under a "structure" tolerance of
# 1e-12.  It is put on a tube: on the horosphere, scaling the point also
# moves |z_0 - z_1| and fails the defining relation.
CONSTRUCTION_FAULTS = {
    "normal-unit": (
        horosphere(2, 0.3),
        lambda p: dataclasses.replace(p, normal_func=lambda at: p.normal_func(at) * (1 + 1e-6)),
        {},
    ),
    "normal-orthogonal": (
        horosphere(2, 0.3),
        lambda p: dataclasses.replace(
            p, normal_func=lambda at: p.normal_func(at) + 1e-6 * p.eval_func(at)
        ),
        {},
    ),
    "defining-relation": (horosphere(2, 0.3), lambda p: dataclasses.replace(p, r=p.r + 1e-6), {}),
    "quadric-residual": (
        tube_complex(2, 0, 0.5),
        lambda p: dataclasses.replace(p, eval_func=lambda at: p.eval_func(at) * (1 + 1e-11)),
        {"structure": 1e-12},
    ),
}


@pytest.mark.parametrize("row", sorted(CONSTRUCTION_FAULTS))
def test_each_construction_row_fails_its_own_fault(row):
    """The certifying patch passes every construction row; its fault fails
    exactly the named row."""
    patch, fault, overrides = CONSTRUCTION_FAULTS[row]
    args = _construction_args()
    args.tol.update(overrides)
    grid = patch.grid()

    def failing(p):
        return {c["name"] for c in cli._construction_checks(args, p, grid) if not c["pass"]}

    assert failing(patch) == set()
    assert failing(fault(patch)) == {row}

import csv
import json

import pytest

from hopftwistor.cli import main


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

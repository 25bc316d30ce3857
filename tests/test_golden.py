"""Reports pinned against golden records (tests/golden_reports.json).

Each case stores the command arguments, the constants document (written to a
temporary file and passed with --constants), the exit code and the parsed
JSON report.  Check names, pass flags, the certified flag and the echoed
config must match exactly; values and expected values to within 1e-12
relative (with a 1e-12 floor for values at the noise level), so that a
different BLAS build can still pass.

The mc-check case on a one-parameter document carries the four flatness
rows of every generator form, commutator-residual included.
"""

import json
import math
import pathlib

import pytest

from hopftwistor.cli import main

GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("golden_reports.json")).read_text()
)


def close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_matches_golden(case, tmp_path):
    want = GOLDEN[case]
    args = list(want["args"])
    if want["constants"] is not None:
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(want["constants"]))
        args += ["--constants", str(path)]
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == want["exit"]
    got = json.loads(out.read_text())
    report = want["report"]
    for key in ("artifact_version", "command", "certified", "config"):
        assert got[key] == report[key], key
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in report["checks"]]
    for g, w in zip(got["checks"], report["checks"]):
        assert g["pass"] == w["pass"], w["name"]
        assert g["tolerance"] == w["tolerance"], w["name"]
        assert close(g["value"], w["value"]), (w["name"], g["value"], w["value"])
        assert close(g["expected"], w["expected"]), w["name"]

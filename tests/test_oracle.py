"""The 50-digit oracle of scripts/oracle.py, spot-checked.

tests/oracle_reference.json holds the oracle's values for the checks of the
golden commands (written by `python3 scripts/oracle.py record`).  Here one
grid point per family at n = 4 is recomputed at 50 digits and must give the
recorded values; the package's float64 values at that point must lie within
32 u max|Psi| / h of them (u = 2^-53, h the step; measured up to about 5).
The n = 6 form's two-path witness and one curvature, circle and parallel
row of verify-curves are recomputed the same way, and compare's
perturbation of the parent's outputs is checked on one orbit patch.
"""

import importlib.util
import json
import math
import pathlib
import types
from unittest import mock

import mpmath  # noqa: F401  (the oracle needs it; a missing mpmath fails here)
import numpy as np
import pytest

from hopftwistor import (
    StiefelPoint,
    cli,
    curve_curvature,
    generator,
    hypersurface,
    linalg,
    model_curve,
    twistor,
)
from hopftwistor.fibration import FD_STEP
from hopftwistor.generator import parse_constants

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("oracle", ROOT / "scripts" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

REFERENCE = json.loads((ROOT / "tests" / "oracle_reference.json").read_text())
GOLDEN = json.loads((ROOT / "tests" / "golden_reports.json").read_text())
ROUNDING_MULTIPLE = 32


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-13, abs_tol=1e-60)


@pytest.mark.parametrize("case", oracle.SPOT_CASES)
def test_oracle_recomputes_its_reference_point(case):
    patch, _, at = oracle.spot_patch(GOLDEN[case])
    want = REFERENCE["spot"][case]
    assert [float(a) for a in at] == want["at"]
    got = oracle.spot_values(GOLDEN[case])["values"]
    assert sorted(got) == sorted(want["values"])
    for key, value in want["values"].items():
        values = value if isinstance(value, list) else [value]
        mine = got[key] if isinstance(got[key], list) else [got[key]]
        assert len(mine) == len(values), key
        assert all(_close(a, b) for a, b in zip(mine, values)), key

    # The package at the same point: float64 rounding away from the oracle.
    package = hypersurface._point_report(patch, at, FD_STEP, hypersurface.shape_operator(patch, at))
    bound = ROUNDING_MULTIPLE * 2.0**-53 * got["psi_max"] / FD_STEP
    for key in ("mu", "hopf", "symmetry", "lsq"):
        assert abs(package[key] - got[key]) <= bound, key
    for key in ("eigvals", "pairings"):
        assert len(package[key]) == len(got[key]), key
        assert np.abs(np.subtract(package[key], got[key])).max(initial=0.0) <= bound, key


def test_reference_covers_the_golden_checks():
    assert sorted(REFERENCE["cases"]) == sorted(GOLDEN)
    for name, case in REFERENCE["cases"].items():
        report = GOLDEN[name]["report"]
        assert case["args"] == GOLDEN[name]["args"]
        assert case["exit"] == GOLDEN[name]["exit"]
        assert case["certified"] == report["certified"]
        assert [row for row, _ in case["checks"]] == [c["name"] for c in report["checks"]]


def test_oracle_recomputes_a_curve_row():
    # The curvature and circle rows of the verify-curves case at one t on the
    # canonical pair, and one parallel row, recomputed at 50 digits from the
    # exact curve derivatives; the package's values lie within the rounding
    # bound 100 u e^{2|r|} of test_fibration (12 u measured at r = 0.5 and t
    # in {-0.5, 0.5, 1} in each family).
    case = REFERENCE["cases"]["verify-curves-n3-seed5"]
    rows = dict(case["checks"])
    pair = StiefelPoint(*np.eye(4, dtype=complex)[:2])
    mp_pair = oracle._mp_pair(pair)
    r, t = oracle._mpf(0.5), oracle._mpf(-0.5)
    kappa, residual = oracle.curvature_values(*(oracle.curve_point("minus", r, mp_pair, t, which) for which in (0, 2, 3)))
    assert _close(float(kappa), rows["curvature@s=minus,r=0.5,t=-0.5,b0"])
    assert _close(float(residual), rows["circle-residual@s=minus,r=0.5,t=-0.5,b0"])
    parallel = oracle.parallel_value("minus", r, oracle._mpf(0.4), mp_pair, t)
    assert _close(float(parallel), rows["parallel-residual@s=minus,r=0.5,rp=0.4,t=-0.5"])

    package = curve_curvature(model_curve("minus", 0.5, pair, -0.5), -0.5)
    bound = 100 * 2.0**-53 * math.exp(1.0)
    assert abs(package.kappa - float(kappa)) <= bound
    assert abs(package.residual - float(residual)) <= bound


# The acceptance rule on synthetic check values: a value may move away from
# the oracle by max(u max|Psi| / h, 2 s), s the parent's spread under
# perturbed lifts; a value without an oracle value must keep its bits.
@pytest.mark.parametrize(
    "change, outcome",
    [
        (1.0 + 3e-12, oracle.SAME),
        (1.0 + 2e-12, oracle.CLOSER),
        (1.0 + 4.5e-12, oracle.WITHIN_ROUNDING),
        (1.0 + 4.9e-12, oracle.WITHIN_ROUNDING),
        (1.0 - 4.9e-12, oracle.WITHIN_ROUNDING),
        (1.0 + 6e-12, oracle.WITHIN_SPREAD),
        (1.0 + 6.9e-12, oracle.WITHIN_SPREAD),
        (1.0 + 7.5e-12, oracle.BEYOND),
        (1.0 - 8e-12, oracle.BEYOND),
    ],
)
def test_rule_bounds_the_move_away_from_the_oracle(change, outcome):
    # |parent - oracle| = 3e-12; rounding bound 2e-12; spread 2e-12, so 2 s = 4e-12.
    parent, truth = 1.0 + 3e-12, 1.0
    assert oracle.classify_row(parent, change, truth, 2e-12, 2e-12) == outcome
    # A spread below half the rounding bound leaves the rounding bound.
    small = oracle.classify_row(parent, change, truth, 2e-12, 1e-13)
    assert small == (oracle.BEYOND if outcome == oracle.WITHIN_SPREAD else outcome)


def test_rule_keeps_the_bits_of_values_without_an_oracle_value():
    assert oracle.classify_row(0.25, 0.25, None, 1.0, 1.0) == oracle.KEPT
    assert oracle.classify_row(0.25, math.nextafter(0.25, 1.0), None, 1.0, 1.0) == oracle.MOVED


def _report(values):
    return {"report": {"checks": [{"name": n, "value": v} for n, v in values]}}


def test_spread_is_pooled_per_check_name_of_a_case():
    names = ["mu", "sample-eigenvalue[0]@(0)", "sample-eigenvalue[1]@(1)"]
    parent = {"case": _report(zip(names, [1.0, 2.0, 3.0]))}
    runs = [
        {"case": _report(zip(names, [1.0 + 1e-12, 2.0, 3.0 - 4e-12]))},
        {"case": _report(zip(names, [1.0 - 2e-12, 2.0 + 1e-12, 3.0]))},
    ]
    spread = oracle._spreads(parent, runs)["case"]
    assert spread[0] == pytest.approx(2e-12, rel=1e-3)
    assert spread[1] == spread[2] == pytest.approx(4e-12, rel=1e-3)
    renamed = [{"case": _report(zip(["mu", "rho", "rho"], [1.0, 2.0, 3.0]))}]
    assert oracle._spreads(parent, renamed)["case"] is None


def test_two_path_witness_is_judged_against_its_oracle_value():
    # The n = 6 golden form's witness, recomputed with mpmath.expm: a value
    # that moves toward it is closer, not a move of a value without one.
    case = "cko-run-flat-form-n6"
    truth = dict(REFERENCE["cases"][case]["checks"])[oracle.ORACLE_WITNESS]
    form = parse_constants(GOLDEN[case]["constants"])
    assert _close(float(oracle.two_path_value(form)), truth)
    checks = GOLDEN[case]["report"]["checks"]
    (value,) = [c["value"] for c in checks if c["name"] == oracle.ORACLE_WITNESS]
    closer = 0.5 * (value + truth)
    assert abs(closer - truth) < abs(value - truth)
    assert oracle.classify_row(value, closer, truth, 0.0, 0.0) == oracle.CLOSER
    assert oracle.classify_row(value, closer, None, 0.0, 0.0) == oracle.MOVED


def test_perturbed_runs_move_orbit_chart_values_by_rounding():
    # The perturbed runs move every entry of every matrix_exp output one
    # ulp, so an orbit chart value moves by a few u of its largest entry.
    # Each value need only move under one of four seeds.
    form = parse_constants(GOLDEN["cko-run-flat-form-n6"]["constants"])
    patch = generator.orbit_patch_from_form(form)
    lo, hi = np.array(patch.ranges).T
    inside = np.random.default_rng(0).uniform(lo, hi, (20, lo.size))
    points = np.concatenate([patch.grid(2, cap=4), inside])
    for func in (patch.eval_func, patch.normal_func):
        plain = func(points)
        moved = np.zeros(len(points), dtype=bool)
        for seed in range(4):
            with oracle.perturb_outputs(hypersurface, generator, twistor, seed):
                change = np.abs(func(points) - plain)
            assert np.all(change <= 8 * 2.0**-53 * np.abs(plain).max(axis=-1, keepdims=True))
            moved |= change.max(axis=-1) > 0
        assert moved.all()
    assert generator.matrix_exp is linalg.matrix_exp


def test_perturbed_runs_move_every_entry_of_the_exponentials(tmp_path):
    # Each non-zero real and imaginary part of a perturbed matrix_exp output
    # sits one ulp from the plain one, so exactly representable entries (the
    # identity's 1.0) move too; a zero stays zero.
    outputs = []
    for seed in range(4):
        with oracle.perturb_outputs(hypersurface, generator, twistor, seed):
            perturbed = generator.matrix_exp

            def spy(*args, **kwargs):
                g = perturbed(*args, **kwargs)
                outputs.append((linalg.matrix_exp(*args, **kwargs).matrix, g.matrix))
                return g

            with mock.patch.object(generator, "matrix_exp", spy):
                oracle._run_case(cli, GOLDEN["cko-run-n2-block-form"], str(tmp_path))
    assert outputs
    for plain, moved in outputs:
        for a, b in ((plain.real, moved.real), (plain.imag, moved.imag)):
            assert np.array_equal(a == b, a == 0)
            assert np.array_equal(np.nextafter(a, b), b)


def _seam_run(run, case, work):
    """(exit code, report) of a golden case under the seam of record (the
    oracle's per-point values) or of compare (the package's, passed through)."""
    if run == "record":
        return oracle._oracle_report(cli, hypersurface, case, work)[:2]
    with oracle._seam(cli, hypersurface, hypersurface._point_report):
        return oracle._run_case(cli, case, work)[:2]


@pytest.mark.parametrize("run", ["record", "compare"])
def test_a_verify_hopf_that_bypasses_the_seam_is_refused(run, monkeypatch, tmp_path):
    # A verify_hopf bound to the package's own per-point stage, as a seam
    # left stale by a change of the verifier would leave it: record would
    # aggregate float64 values in place of the oracle's.
    case = GOLDEN["verify-hopf-zero"]
    rc, report = _seam_run(run, case, str(tmp_path))
    assert rc == 0 and report["certified"]
    verify_hopf = hypersurface.verify_hopf
    stale = types.FunctionType(
        verify_hopf.__code__, dict(vars(hypersurface)), None, verify_hopf.__defaults__
    )
    monkeypatch.setattr(cli, "verify_hopf", stale)
    with pytest.raises(RuntimeError, match="passed 0 of its 81 grid points"):
        _seam_run(run, case, str(tmp_path))

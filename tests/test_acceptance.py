"""End-to-end acceptance battery.

Each test covers one numbered criterion, prints a single summary line
(visible with pytest -s) and asserts the stated tolerances and runtime
budgets.  Oracle values are closed forms evaluated through the math module
or frozen rationals; nothing is read back from the implementation.
"""

import functools
import json
import math
import time

import numpy as np

from hopftwistor import (
    GeneratorForm,
    ValidationError,
    curve_curvature,
    extra_curvature,
    group_residual,
    horosphere,
    horosphere_defining_residual,
    matrix_exp,
    maurer_cartan_residual,
    model_curve,
    orbit_patch_from_form,
    parse_constants,
    parallel_shift_residual,
    tube_complex,
    tube_real,
    two_path_residual,
    verify_hopf,
)
from hopftwistor.cli import main
from hopftwistor.sampling import (
    random_algebra,
    random_one_param,
    random_stiefel,
)
from hopftwistor.twistor import FRAME


RADII = (-1.0, -0.5, 0.2, 0.5, 1.0)
TS = (-0.8, -0.3, 0.0, 0.4, 0.7)
SIGNS = ("plus", "minus", "zero")


def coth(x: float) -> float:
    return math.cosh(x) / math.sinh(x)


def closed_form_curvature(sign: str, r: float) -> float:
    if sign == "plus":
        return abs(2.0 * coth(2.0 * r))
    if sign == "minus":
        return abs(2.0 * math.tanh(2.0 * r))
    return 2.0


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


# The chart points (theta, x, h, lam) of the one-parameter battery.
BATTERY_GRID = (
    np.array([0.0, 0.0, 0.0, 0.5]),
    np.array([0.0, 0.0, 0.0, 1.0]),
    np.array([0.0, 0.0, 0.0, 2.0]),
    np.array([0.1, -0.2, 0.15, 1.0]),
    np.array([-0.05, 0.1, -0.1, 0.8]),
)


@functools.lru_cache(maxsize=1)
def one_param_battery():
    """Ten seeded draws with their orbit reports on BATTERY_GRID; shared by
    criteria 8-10."""
    rng = np.random.default_rng(814)
    out = []
    for _ in range(10):
        gen = random_one_param(rng)
        rep = verify_hopf(orbit_patch_from_form(gen), list(BATTERY_GRID))
        out.append((gen, rep))
    return out


def test_criterion_01_curve_curvatures(canonical_pair, rng):
    start = time.perf_counter()
    bases = [canonical_pair, random_stiefel(rng, 2)]
    worst_kappa = worst_circle = 0.0
    for sign in SIGNS:
        for r in RADII:
            want = closed_form_curvature(sign, r)
            for base in bases:
                for t in TS:
                    res = curve_curvature(model_curve(sign, r, base, t), t)
                    worst_kappa = max(worst_kappa, abs(res.kappa - want))
                    worst_circle = max(worst_circle, res.residual)
    elapsed = time.perf_counter() - start
    ok = worst_kappa <= 1e-4 and worst_circle <= 1e-4 and elapsed <= 5.0
    announce(
        1,
        ok,
        f"kappa dev {worst_kappa:.2e}, circle residual {worst_circle:.2e}, "
        f"{elapsed:.2f}s over {len(SIGNS) * len(RADII) * len(bases) * len(TS)} measurements",
    )


def test_criterion_02_parallel_identity(canonical_pair):
    start = time.perf_counter()
    shifts = (-0.7, -0.3, 0.0, 0.4, 0.8)
    worst = 0.0
    for sign in SIGNS:
        for r in RADII:
            for rp in shifts:
                for t in TS:
                    worst = max(
                        worst,
                        parallel_shift_residual(sign, r, rp, canonical_pair, t),
                    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 1.0
    announce(2, ok, f"residual {worst:.2e} on 5x5x5 per sign, {elapsed:.2f}s")


def test_criterion_03_para_quaternionic_frame(rng, pair_form):
    start = time.perf_counter()
    worst_mult = worst_skew = 0.0

    def apply(k, x):
        # (X-, X+) -> (X-, X+) J_k on a (2, n+1) pair of rows.
        return FRAME[k - 1].T @ x

    def gap(a, b, flip=1.0):
        return float(np.abs(a - flip * b).max())

    for i in range(100):
        shape = (2, 3 + i % 3)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        i1, i2, i3 = (apply(k, v) for k in (1, 2, 3))
        worst_mult = max(
            worst_mult,
            gap(apply(1, i1), v, -1.0),
            gap(apply(2, i2), v),
            gap(apply(3, i3), v),
            gap(apply(1, i2), i3),
            gap(apply(2, i1), i3, -1.0),
            gap(apply(2, i3), i1, -1.0),
            gap(apply(3, i2), i1),
            gap(apply(3, i1), i2),
            gap(apply(1, i3), i2, -1.0),
        )
        for k in (1, 2, 3):
            worst_skew = max(worst_skew, abs(pair_form(apply(k, v), w) + pair_form(v, apply(k, w))))
    elapsed = time.perf_counter() - start
    ok = worst_mult <= 1e-12 and worst_skew <= 1e-12 and elapsed <= 1.0
    announce(
        3,
        ok,
        f"multiplication dev {worst_mult:.2e}, skew dev {worst_skew:.2e}, "
        f"{elapsed:.2f}s on 100 pairs",
    )


def test_criterion_04_complex_tube_spectra():
    start = time.perf_counter()
    cases = [
        (2, 0, 0.5, {(-2.0 * coth(1.0)): 1, (-coth(0.5)): 2}),
        (
            3,
            1,
            0.4,
            {(-2.0 * coth(0.8)): 1, (-math.tanh(0.4)): 2, (-coth(0.4)): 2},
        ),
    ]
    worst = 0.0
    ok = True
    for n, k, r, want in cases:
        rep = verify_hopf(tube_complex(n, k, r))
        got = dict(rep.eigenvalues)
        if len(got) != len(want):
            ok = False
            continue
        for value, mult in sorted(got.items()):
            target = min(want, key=lambda t: abs(t - value))
            worst = max(worst, abs(value - target))
            if want[target] != mult:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-4 and elapsed <= 10.0
    announce(
        4,
        ok,
        f"eigenvalue dev {worst:.2e}, multiplicities exact, {elapsed:.2f}s "
        f"for (2,0,0.5) and (3,1,0.4)",
    )


def test_criterion_05_real_tube_pairing(row_value):
    rep = verify_hopf(tube_real(2, 0.3))
    mu_dev = abs(abs(rep.mu) - 2.0 * math.tanh(0.6))
    # The pairing-max row exists exactly when the tube produced phi-pairs.
    pair_max = row_value(rep, "pairing-max")
    ok = (
        rep.certified
        and mu_dev <= 1e-4
        and pair_max <= 1e-4
        and rep.exceptional_pairs == 0
    )
    announce(5, ok, f"|mu| dev {mu_dev:.2e}, max pairing residual {pair_max:.2e}")


def test_criterion_06_horosphere():
    worst_def = worst_eig = 0.0
    ok = True
    for n in (2, 3):
        patch = horosphere(n, 0.3)
        grid = patch.grid()
        for at in grid:
            worst_def = max(
                worst_def, horosphere_defining_residual(patch.point(at), 0.3)
            )
        rep = verify_hopf(patch, grid)
        ok = ok and rep.certified
        flipped = {-v: m for v, m in rep.eigenvalues}
        vals = sorted(flipped)
        if len(vals) != 2 or flipped[vals[0]] != 2 * n - 2 or flipped[vals[1]] != 1:
            ok = False
            continue
        worst_eig = max(worst_eig, abs(vals[0] - 1.0), abs(vals[1] - 2.0))
    ok = ok and worst_def <= 1e-12 and worst_eig <= 1e-4
    announce(
        6,
        ok,
        f"defining residual {worst_def:.2e}, spectrum dev {worst_eig:.2e} "
        f"for n in (2, 3)",
    )


def test_criterion_07_trichotomy(row_value):
    reps = {
        "plus": verify_hopf(tube_complex(2, 0, 0.5), tube_complex(2, 0, 0.5).grid(2)),
        "minus": verify_hopf(tube_real(2, 0.3), tube_real(2, 0.3).grid(2)),
        "zero": verify_hopf(horosphere(2, 0.0), horosphere(2, 0.0).grid(2)),
    }
    margin_plus = abs(reps["plus"].mu) - 2.0
    margin_minus = 2.0 - abs(reps["minus"].mu)
    gap_zero = abs(abs(reps["zero"].mu) - 2.0)
    const_dev = max(row_value(rep, "mu-constancy") for rep in reps.values())
    ok = (
        margin_plus > 0
        and margin_minus > 0
        and gap_zero <= 1e-4
        and const_dev <= 1e-4
        and all(rep.certified for rep in reps.values())
    )
    announce(
        7,
        ok,
        f"|mu|-2 margins: +{margin_plus:.4f} (tube/complex), "
        f"+{margin_minus:.4f} (tube/real), |gap| {gap_zero:.2e} (horosphere), "
        f"mu constancy {const_dev:.2e}",
    )


def test_criterion_08_structure_eigenvalue_two(row_value):
    start = time.perf_counter()
    battery = one_param_battery()
    worst_hopf = max(row_value(rep, "hopf-residual") for _, rep in battery)
    worst_mu = max(abs(rep.mu - 2.0) for _, rep in battery)
    min_unit = min(row_value(rep, "unit-multiplicity") for _, rep in battery)
    elapsed = time.perf_counter() - start
    ok = (
        all(rep.certified for _, rep in battery)
        and worst_hopf <= 1e-4
        and worst_mu <= 1e-4
        and min_unit >= 1
        and elapsed <= 30.0
    )
    announce(
        8,
        ok,
        f"10 draws x 5 points: structure residual {worst_hopf:.2e}, "
        f"mu dev {worst_mu:.2e}, unit multiplicity >= {min_unit:g}, {elapsed:.1f}s",
    )


def test_criterion_09_transverse_curvature_formula(rho_values):
    battery = one_param_battery()
    worst = 0.0
    for gen, rep in battery:
        for lam, measured in rho_values(rep, BATTERY_GRID, lam_slot=3):
            if lam not in (0.5, 1.0, 2.0):
                continue
            worst = max(worst, abs(measured - extra_curvature(gen, lam)))
    reference = parse_constants({"kind": "one-param", "x": 1.0, "y0": 1.0})
    grid = [np.array([0.0, 0.0, 0.0, 1.0])]
    rep = verify_hopf(orbit_patch_from_form(reference), grid)
    measured_ref = rho_values(rep, grid, lam_slot=3)[0][1]
    ref_dev = abs(measured_ref - 0.6)
    ok = worst <= 1e-4 and ref_dev <= 1e-4
    announce(
        9,
        ok,
        f"rho formula dev {worst:.2e} at lam in (0.5, 1, 2); reference draw "
        f"rho(1) = {measured_ref:.6f} vs 0.6",
    )


def test_criterion_10_horosphere_dichotomy(rho_values):
    rng = np.random.default_rng(815)
    grid = [
        np.array([0.0, 0.0, 0.0, 0.5]),
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([0.0, 0.0, 0.0, 2.0]),
    ]
    worst_const = 0.0
    for _ in range(3):
        gen = random_one_param(rng, horosphere=True)
        rep = verify_hopf(orbit_patch_from_form(gen), grid)
        for _, measured in rho_values(rep, grid, lam_slot=3):
            worst_const = max(worst_const, abs(measured - 1.0))
    reference = parse_constants({"kind": "one-param", "x": 1.0, "y0": 1.0})
    rep = verify_hopf(orbit_patch_from_form(reference), grid)
    by_lam = dict(rho_values(rep, grid, lam_slot=3))
    contrast = abs(by_lam[1.0] - by_lam[2.0])
    ok = worst_const <= 1e-4 and contrast > 0.1
    announce(
        10,
        ok,
        f"y0 = y1 draws: |rho - 1| <= {worst_const:.2e}; reference contrast "
        f"|rho(1) - rho(2)| = {contrast:.3f} > 0.1",
    )


def test_criterion_11_flatness_witness():
    z2 = np.zeros((2, 2))
    z3 = np.zeros((2, 2, 2))
    flats = [
        GeneratorForm(np.zeros(2), np.zeros(2), np.eye(2), z2, z2, z3, z3),
        GeneratorForm(np.zeros(2), np.zeros(2), z2, np.eye(2), np.eye(2), z3, z3),
    ]
    worst_mc = max(maurer_cartan_residual(f) for f in flats)
    worst_witness = max(two_path_residual(f) for f in flats)
    w1 = np.zeros((2, 2, 2))
    w1[0] = [[0.0, 1.0], [-1.0, 0.0]]
    w1[0, 0, 0] = 0.05  # symmetric part injected
    rejected = False
    try:
        GeneratorForm(np.zeros(2), np.zeros(2), z2, z2, z2, w1, z3)
    except ValidationError:
        rejected = True
    ok = worst_mc <= 1e-12 and worst_witness <= 1e-6 and rejected
    announce(
        11,
        ok,
        f"flat dim_g=2 forms: residual {worst_mc:.2e}, two-path witness "
        f"{worst_witness:.2e}; corrupted rotation block rejected: {rejected}",
    )


def test_criterion_12_infrastructure(rng, tmp_path):
    worst = 0.0
    for _ in range(30):
        x = random_algebra(rng, 2, scale=1.0)
        for t in (0.5, 2.0, 10.0):
            worst = max(worst, group_residual(matrix_exp(x, t).matrix))
    for _ in range(10):
        x = random_algebra(rng, 3, scale=2.5)
        worst = max(worst, group_residual(matrix_exp(x, 4.0).matrix))

    args = ["cko-run", "--n", "2", "--seed", "3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    parses = json.loads(a.read_text())["command"] == "cko-run"
    ok = worst <= 1e-10 and identical and parses and code_a == code_b == 0
    announce(
        12,
        ok,
        f"group residual {worst:.2e} over ||tX|| <= 10; identical seeds give "
        f"byte-identical reports: {identical}",
    )

"""Command-line driver: build the classical examples, run the verification
batteries, emit machine-readable reports.

Exit status: 0 when every check passed, 1 when a verification check failed or
a geometric error surfaced mid-run, 2 for configuration problems (bad flags,
malformed constants files, invalid parameter combinations).

Reports go to stdout or --out; wall time goes to stderr only, keeping the
payload byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, GeometryError, InputError, NonFiniteCheckError
from .fibration import FD_STEP, AdSPoint, curve_curvature
from .generator import (
    RHO_HEIGHTS,
    GeneratorForm,
    commutator_residual,
    constants_document,
    extra_curvature,
    maurer_cartan_residual,
    orbit_patch_from_form,
    parse_constants,
    two_path_residual,
)
from .hypersurface import (
    DEFAULT_TOLERANCES,
    GRID_CAP,
    GRID_DENSITY,
    HypersurfacePatch,
    ShapeReport,
    grid_key,
    horosphere,
    horosphere_defining_residual,
    pick_extra_eigenvalue,
    tube_complex,
    tube_real,
    verify_hopf,
)
from .linalg import algebra_residual, herm_form
from .report import envelope_to_csv, envelope_to_json, make_check, make_envelope
from .sampling import random_one_param, random_stiefel
from .twistor import SIGNS, StiefelPoint, model_curve, parallel_shift_residual

DEFAULT_RADII = (-1.0, -0.5, 0.2, 0.5, 1.0)
PARALLEL_SHIFTS = (-0.7, -0.3, 0.0, 0.4, 0.8)

# The rows that cko-run prints for a block form.  The filter exists only
# because perfbench pins the check names of `cko-run|flat`; the one-parameter
# battery prints every row the verifier judged.
ORBIT_ROWS = ("immersion", "mu", "hopf-residual", "unit-multiplicity")

__all__ = ["main"]


def _g(x: float) -> str:
    return format(float(x), "g")


def _parse_tols(pairs: Optional[Sequence[str]]) -> Dict[str, float]:
    tols: Dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, _, raw = item.partition("=")
        try:
            tols[name.strip()] = float(raw)
        except ValueError:
            raise ConfigError(f"--tol {name!r}: {raw!r} is not a number")
    return tols


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: parsing leaves
    it unchanged, and each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hopftwistor",
        description="Certify curve, hypersurface and generator-form claims "
        "with finite-difference measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, name: str, needs_sign: bool):
        # None until _validate: cko-run and mc-check tell a given --n apart
        # from the default 2.
        p.add_argument("--n", type=int, default=None, help="ambient complex dimension")
        p.add_argument(
            "--s",
            choices=list(SIGNS),
            required=needs_sign,
            help="twistor sign / example family",
        )
        p.add_argument("--r", type=float, default=None, help="radius parameter")
        p.add_argument("--k", type=int, default=0, help="complex subspace dimension")
        p.add_argument("--grid", type=int, default=GRID_DENSITY, help="grid density per axis")
        step_help = "echoed; curves take exact derivatives" if name == "verify-curves" else "finite-difference step"
        p.add_argument("--step", type=float, default=FD_STEP, help=step_help)
        p.add_argument(
            "--tol", action="append", metavar="NAME=VAL", help="override a tolerance"
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--constants", default=None, help="JSON constants file")

    for name, help_text, needs_sign in (
        ("verify-curves", "measure projected-curve curvatures", False),
        ("build-example", "construct a classical example and its spectrum", True),
        ("verify-hopf", "run the Hopf battery on a classical example", True),
        ("cko-run", "verify a generator-form construction", False),
        ("mc-check", "flatness checks for a constants file", False),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p, name, needs_sign)
    return parser


def _validate(args: argparse.Namespace) -> argparse.Namespace:
    """Check what argparse cannot and replace args.tol by the full tolerance
    table with the --tol overrides merged in."""
    overrides = _parse_tols(args.tol)
    args.n_given = args.n is not None
    if not args.n_given:
        args.n = 2
    if args.n < 2:
        raise ConfigError(f"n must be >= 2, got {args.n}")
    if args.grid < 2:
        raise ConfigError(f"grid density must be >= 2, got {args.grid}")
    if not (0.0 < args.step <= 1e-2):
        raise ConfigError(f"fd step must lie in (0, 1e-2], got {args.step}")
    if args.r is not None and not math.isfinite(args.r):
        raise ConfigError(f"r must be a finite number, got {args.r}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    args.tol = dict(DEFAULT_TOLERANCES)
    for name, val in overrides.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}")
        if not (math.isfinite(val) and val >= 0):
            raise ConfigError(f"tolerance {name!r} must be a finite number >= 0")
        args.tol[name] = val
    return args


def _echo(args: argparse.Namespace, constants: Optional[dict] = None) -> dict:
    return {
        "command": args.command,
        "n": args.n,
        "s": args.s,
        "r": args.r,
        "k": args.k,
        "grid_density": args.grid,
        "fd_step": args.step,
        "seed": args.seed,
        "format": args.format,
        "constants": constants,
        "tolerances": dict(sorted(args.tol.items())),
    }


def _load_constants(args: argparse.Namespace) -> Optional[Tuple[str, GeneratorForm]]:
    """The document kind and its form; the kind, not dim_g, picks the battery.
    A --n given on the command line must be the form's n; the report echoes
    the form's n."""
    if args.constants is None:
        return None
    try:
        with open(args.constants, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read constants file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"constants file is not valid JSON: {exc}")
    form = parse_constants(data)
    if args.n_given and args.n != form.dim_n:
        raise ConfigError(f"--n {args.n} does not match the n = {form.dim_n} of the constants")
    args.n = form.dim_n
    return data["kind"], form


# ---------------------------------------------------------------- commands


def _cmd_verify_curves(args: argparse.Namespace) -> dict:
    checks: List[dict] = []
    signs = [args.s] if args.s else list(SIGNS)
    radii = [args.r] if args.r is not None else list(DEFAULT_RADII)
    ts = np.linspace(-1.0, 1.0, 5)
    rng = np.random.default_rng(args.seed)
    n = args.n
    canonical = StiefelPoint(
        np.eye(n + 1, dtype=complex)[0], np.eye(n + 1, dtype=complex)[1]
    )
    bases = [("b0", canonical), ("b1", random_stiefel(rng, n))]

    def rows(name: str, where: str, suffix: str, values, expected: float, tol: str) -> List[dict]:
        # One check per t of a stacked measurement.
        return [
            make_check(name, v, expected, args.tol[tol], grid_point=f"{where},t={_g(t)}{suffix}")
            for t, v in zip(ts, values)
        ]

    for s in signs:
        for r in radii:
            where = f"s={s},r={_g(r)}"
            if s == "plus" and abs(r) < 1e-14:
                checks.append(make_check("degenerate-radius", 0.0, 0.0, 0.0, passed=False, grid_point=where))
                continue
            expected = {
                "plus": abs(2.0 / math.tanh(2.0 * r)) if r else float("inf"),
                "minus": abs(2.0 * math.tanh(2.0 * r)),
                "zero": 2.0,
            }[s]
            for bname, base in bases:
                res = curve_curvature(model_curve(s, r, base, ts), ts)
                checks += rows("curvature", where, f",{bname}", res.kappa, expected, "curvature")
                checks += rows("circle-residual", where, f",{bname}", res.residual, 0.0, "circle")
            for rp in PARALLEL_SHIFTS:
                residuals = parallel_shift_residual(s, r, rp, canonical, ts)
                checks += rows("parallel-residual", f"{where},rp={_g(rp)}", "", residuals, 0.0, "parallel")
    return make_envelope(args.command, _echo(args), checks)


def _build_classical(args: argparse.Namespace) -> HypersurfacePatch:
    if args.s == "zero":
        r = 0.0 if args.r is None else args.r
        return horosphere(args.n, r)
    if args.r is None:
        raise ConfigError("--r is required for the tube families")
    if abs(args.r) < 1e-14:
        raise ConfigError("r = 0 is the degenerate radius for the tube families")
    try:
        if args.s == "plus":
            if not (0 <= args.k <= args.n - 1):
                raise ConfigError(
                    f"k must lie in [0, n-1] = [0, {args.n - 1}], got {args.k}"
                )
            return tube_complex(args.n, args.k, args.r)
        return tube_real(args.n, args.r)
    except GeometryError as exc:
        raise ConfigError(f"cannot build the requested example: {exc}")


def _grid(patch: HypersurfacePatch, density: int, cap: int = GRID_CAP) -> list:
    """patch.grid; a grid too large to index is a configuration error."""
    try:
        return patch.grid(density, cap)
    except InputError as exc:
        raise ConfigError(f"cannot build the grid: {exc}")


def _spectrum_checks(
    args: argparse.Namespace, patch: HypersurfacePatch, rep: ShapeReport
) -> List[dict]:
    expected = patch.expected_spectrum
    if not expected:
        return []
    measured = rep.eigenvalues
    checks = [make_check("spectrum-size", float(len(measured)), float(len(expected)), 0.0)]
    if len(measured) == len(expected):
        flip = lambda table: tuple((-v, m) for v, m in reversed(table))
        tables = (
            ("eigenvalue", "multiplicity", measured, expected),
            ("eigenvalue-opposite", "multiplicity-opposite", flip(measured), flip(expected)),
        )
        for vname, mname, got, want in tables:
            for i, ((gv, gm), (wv, wm)) in enumerate(zip(got, want)):
                checks.append(
                    make_check(vname, gv, wv, args.tol["eigenvalue"], index=i)
                )
                checks.append(make_check(mname, float(gm), float(wm), 0.0, index=i))
    values = [v for v, _ in expected]
    for gp, eigs in rep.samples:
        for i, v in enumerate(eigs):
            nearest = min(values, key=lambda e: abs(v - e))
            checks.append(
                make_check(
                    "sample-eigenvalue",
                    v,
                    nearest,
                    args.tol["eigenvalue"],
                    grid_point=gp,
                    index=i,
                )
            )
    return checks


def _construction_checks(
    args: argparse.Namespace, patch: HypersurfacePatch, grid
) -> List[dict]:
    checks: List[dict] = []
    stride = max(1, len(grid) // 5)
    picked = grid[::stride][:5]
    # One stack per chart map; each point is judged as patch.point judges it,
    # in grid order.
    stack = np.array(picked, dtype=float)
    points = [AdSPoint(v).vec for v in np.asarray(patch.eval_func(stack), dtype=complex)]
    normals = np.asarray(patch.normal_func(stack), dtype=complex)
    for at, point, normal in zip(picked, points, normals):
        gp = grid_key(at)
        pair = np.array([point, normal])
        gram = herm_form(pair[:, None], pair[None])
        rows = [
            ("quadric-residual", abs(gram[0, 0] + 1.0), "structure"),
            ("normal-unit", abs(gram[1, 1] - 1.0), "structure"),
            ("normal-orthogonal", abs(gram[1, 0]), "structure"),
        ]
        if patch.sign == "zero":
            residual = horosphere_defining_residual(pair[0], patch.r or 0.0)
            rows.append(("defining-relation", residual, "defining"))
        checks += [
            make_check(name, value, 0.0, args.tol[tol], grid_point=gp)
            for name, value, tol in rows
        ]
    return checks


def _cmd_classical(args: argparse.Namespace) -> dict:
    """build-example and verify-hopf: the Hopf battery and the construction
    rows; build-example adds the spectrum table, verify-hopf the trichotomy
    row."""
    patch = _build_classical(args)
    grid = _grid(patch, args.grid)
    rep = verify_hopf(patch, grid, step=args.step, tolerances=args.tol)
    checks = _construction_checks(args, patch, grid) + list(rep.checks)
    mu_abs = abs(rep.mu)
    if args.command == "build-example":
        checks += _spectrum_checks(args, patch, rep)
    elif args.s == "zero":
        checks.append(make_check("trichotomy-margin", abs(mu_abs - 2.0), 0.0, args.tol["mu"]))
    else:
        margin = mu_abs - 2.0 if args.s == "plus" else 2.0 - mu_abs
        checks.append(make_check("trichotomy-margin", margin, 0.0, 0.0, passed=margin > 0))
    return make_envelope(args.command, _echo(args), checks)


def _orbit_checks(
    args: argparse.Namespace, form: GeneratorForm, grid
) -> Tuple[List[dict], Optional[ShapeReport]]:
    """The immersion row and every verifier row of the form's orbit patch;
    no report when the construction or a measurement degenerates.
    """
    try:
        patch = orbit_patch_from_form(form)
        rep = verify_hopf(
            patch,
            _grid(patch, 2, cap=4) if grid is None else grid,
            step=args.step,
            tolerances=args.tol,
        )
    except GeometryError as exc:
        print(f"non-immersion: {exc}", file=sys.stderr)
        return [make_check("immersion", 1.0, 0.0, 0.0, passed=False)], None
    checks = [make_check("immersion", 0.0, 0.0, 0.0, passed=True)]
    return checks + list(rep.checks), rep


def _one_param_checks(args: argparse.Namespace, form: GeneratorForm) -> List[dict]:
    offsets = ((0.0, 0.0, 0.0), (0.3, -0.2, 0.25), (-0.25, 0.3, -0.2))
    grid = [
        np.array([th, x, h, lam])
        for lam in RHO_HEIGHTS
        for (th, x, h) in offsets
    ]
    checks, rep = _orbit_checks(args, form, grid)
    if rep is None:
        return checks
    try:
        predicted = {lam: extra_curvature(form, lam) for lam in RHO_HEIGHTS}
    except GeometryError as exc:
        print(f"non-immersion: {exc}", file=sys.stderr)
        return [make_check("immersion", 1.0, 0.0, 0.0, passed=False)]
    # rho: the transverse eigenvalue of each sampled spectrum (grid column 3 is lam).
    by_height: Dict[float, List[float]] = {}
    for at, (gp, eigs) in zip(grid, rep.samples):
        lam, rho = float(at[3]), pick_extra_eigenvalue(eigs, 2.0)
        checks.append(make_check("rho", rho, predicted[lam], args.tol["rho"], grid_point=gp))
        by_height.setdefault(lam, []).append(rho)
    for lam in sorted(by_height):
        vals = by_height[lam]
        checks.append(
            make_check(
                "rho-constancy",
                max(vals) - min(vals),
                0.0,
                args.tol["rho"],
                grid_point=f"lam={_g(lam)}",
            )
        )
    _, _, _, y0, y1, _ = form.scalars()
    checks.append(
        make_check("horosphere-data", abs(y0 - y1), 0.0, 0.0, passed=True)
    )
    return checks


def _form_checks(args: argparse.Namespace, f: GeneratorForm) -> List[dict]:
    """Flatness rows; the first is the mc-residual row."""
    checks = [
        make_check("mc-residual", maurer_cartan_residual(f), 0.0, args.tol["mc"]),
        make_check("commutator-residual", commutator_residual(f), 0.0, args.tol["mc"]),
        make_check("two-path-witness", two_path_residual(f), 0.0, args.tol["witness"]),
    ]
    membership = 0.0
    for x in f.basis:
        membership = max(membership, algebra_residual(x.matrix))
    checks.append(
        make_check("algebra-membership", membership, 0.0, args.tol["structure"])
    )
    return checks


def _cmd_cko_run(args: argparse.Namespace) -> dict:
    loaded = _load_constants(args)
    if loaded is None:
        if args.n != 2:
            raise ConfigError(f"the seeded draw is an n = 2 form; --n {args.n} needs --constants")
        loaded = ("one-param", random_one_param(np.random.default_rng(args.seed)))
    kind, form = loaded
    if kind == "one-param":
        checks = _one_param_checks(args, form)
    else:
        checks = _form_checks(args, form)
        if checks[0]["pass"]:
            checks += [c for c in _orbit_checks(args, form, None)[0] if c["name"] in ORBIT_ROWS]
    return make_envelope(args.command, _echo(args, constants_document(kind, form)), checks)


def _cmd_mc_check(args: argparse.Namespace) -> dict:
    if args.constants is None:
        raise ConfigError("mc-check needs --constants")
    kind, form = _load_constants(args)
    checks = _form_checks(args, form)
    return make_envelope(args.command, _echo(args, constants_document(kind, form)), checks)


_COMMANDS = {
    "verify-curves": _cmd_verify_curves,
    "build-example": _cmd_classical,
    "verify-hopf": _cmd_classical,
    "cko-run": _cmd_cko_run,
    "mc-check": _cmd_mc_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.monotonic()
    try:
        # Values that overflow are judged where they land (a NaN or infinite
        # residual fails its check), so numpy's overflow warnings add nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = _COMMANDS[args.command](_validate(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # Only math.cosh and sinh of r or 2r and exp of 2r in the closed
        # forms raise it; cko-run and mc-check call none, and matrix_exp
        # refuses a 1-norm whose squarings would overflow.
        print(f"config error: r = {_g(args.r)} overflows a closed form ({exc})", file=sys.stderr)
        return 2
    except (GeometryError, NonFiniteCheckError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1

    text = (
        envelope_to_json(envelope)
        if args.format == "json"
        else envelope_to_csv(envelope)
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    elapsed = int((time.monotonic() - start) * 1000)
    print(f"wall_time_ms={elapsed}", file=sys.stderr)
    return 0 if envelope["certified"] else 1


if __name__ == "__main__":
    sys.exit(main())

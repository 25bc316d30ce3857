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
import json
import math
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, GeometryError
from .fibration import curve_curvature
from .generator import (
    GeneratorForm,
    commutator_residual,
    extra_curvature,
    form_value,
    is_horosphere_data,
    maurer_cartan_residual,
    orbit_patch_from_form,
    parse_constants,
    two_path_residual,
)
from .hypersurface import (
    DEFAULT_TOLERANCES,
    HypersurfacePatch,
    ShapeReport,
    grid_key,
    horosphere,
    horosphere_defining_residual,
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
RHO_HEIGHTS = (0.5, 1.0, 2.0)

# Verifier rows that the orbit commands print; the one-parameter battery adds
# the symmetry and least-squares rows.  "mu" is the median over the grid.
ORBIT_ROWS = ("mu", "hopf-residual", "unit-multiplicity")
ONE_PARAM_ROWS = ORBIT_ROWS + ("symmetry-residual", "lsq-residual")

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopftwistor",
        description="Certify curve, hypersurface and generator-form claims "
        "with finite-difference measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_sign: bool = False):
        p.add_argument("--n", type=int, default=2, help="ambient complex dimension")
        p.add_argument(
            "--s",
            choices=list(SIGNS),
            required=needs_sign,
            help="twistor sign / example family",
        )
        p.add_argument("--r", type=float, default=None, help="radius parameter")
        p.add_argument("--k", type=int, default=0, help="complex subspace dimension")
        p.add_argument("--grid", type=int, default=3, help="grid density per axis")
        p.add_argument("--step", type=float, default=1e-4, help="finite-difference step")
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
        common(p, needs_sign)
    return parser


def _validate(args: argparse.Namespace) -> argparse.Namespace:
    """Check what argparse cannot and replace args.tol by the full tolerance
    table with the --tol overrides merged in."""
    overrides = _parse_tols(args.tol)
    if args.n < 2:
        raise ConfigError(f"n must be >= 2, got {args.n}")
    if args.grid < 2:
        raise ConfigError(f"grid density must be >= 2, got {args.grid}")
    if not (0.0 < args.step <= 1e-2):
        raise ConfigError(f"fd step must lie in (0, 1e-2], got {args.step}")
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


def _constants_doc(kind: str, form: GeneratorForm) -> dict:
    if kind == "one-param":
        keys = ("alpha0", "alpha1", "x", "y0", "y1", "w")
        return {"kind": kind, **dict(zip(keys, form.scalars()))}
    return {
        "kind": kind,
        "alpha0": form.alpha0.tolist(),
        "alpha1": form.alpha1.tolist(),
        "x_form": form.x_form.tolist(),
        "y0": form.y0.tolist(),
        "y1": form.y1.tolist(),
        "w1": form.w1.tolist(),
        "w2": form.w2.tolist(),
    }


def _load_constants(args: argparse.Namespace) -> Optional[Tuple[str, GeneratorForm]]:
    """The document kind and its form; the kind, not dim_g, picks the battery."""
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

    for s in signs:
        for r in radii:
            if s == "plus" and abs(r) < 1e-14:
                checks.append(
                    make_check(
                        "degenerate-radius",
                        0.0,
                        0.0,
                        0.0,
                        passed=False,
                        grid_point=f"s={s},r={_g(r)}",
                    )
                )
                continue
            expected = {
                "plus": abs(2.0 / math.tanh(2.0 * r)) if r else float("inf"),
                "minus": abs(2.0 * math.tanh(2.0 * r)),
                "zero": 2.0,
            }[s]
            for bname, base in bases:
                curve = model_curve(s, r, base)
                for t in ts:
                    gp = f"s={s},r={_g(r)},t={_g(t)},{bname}"
                    res = curve_curvature(curve, float(t), step=args.step)
                    checks.append(
                        make_check(
                            "curvature",
                            res.kappa,
                            expected,
                            args.tol["curvature"],
                            grid_point=gp,
                        )
                    )
                    checks.append(
                        make_check(
                            "circle-residual",
                            res.residual,
                            0.0,
                            args.tol["circle"],
                            grid_point=gp,
                        )
                    )
            for rp in PARALLEL_SHIFTS:
                for t in ts:
                    gp = f"s={s},r={_g(r)},rp={_g(rp)},t={_g(t)}"
                    val = parallel_shift_residual(s, r, rp, canonical, float(t))
                    checks.append(
                        make_check(
                            "parallel-residual",
                            val,
                            0.0,
                            args.tol["parallel"],
                            grid_point=gp,
                        )
                    )
    return make_envelope(args.command, _echo(args), checks)


def _build_classical(args: argparse.Namespace) -> HypersurfacePatch:
    if args.s is None:
        raise ConfigError("--s is required for this command")
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


def _spectrum_checks(
    args: argparse.Namespace, patch: HypersurfacePatch, rep: ShapeReport
) -> List[dict]:
    checks: List[dict] = []
    expected = patch.expected_spectrum
    if not expected:
        return checks
    checks.append(
        make_check(
            "spectrum-size",
            float(len(rep.eigenvalues)),
            float(len(expected)),
            0.0,
        )
    )
    if len(rep.eigenvalues) == len(expected):
        opposite = tuple((-v, m) for v, m in reversed(expected))
        tables = (
            ("eigenvalue", "multiplicity", rep.eigenvalues, expected),
            ("eigenvalue-opposite", "multiplicity-opposite", rep.eigenvalues_opposite, opposite),
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
    for at in grid[::stride][:5]:
        gp = grid_key(at)
        pair = np.array([patch.point(at), patch.normal(at)])
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


def _cmd_build_example(args: argparse.Namespace) -> dict:
    patch = _build_classical(args)
    grid = patch.grid(args.grid)
    checks = _construction_checks(args, patch, grid)
    rep = verify_hopf(patch, grid, step=args.step, tolerances=args.tol)
    checks += rep.checks
    checks += _spectrum_checks(args, patch, rep)
    return make_envelope(args.command, _echo(args), checks)


def _cmd_verify_hopf(args: argparse.Namespace) -> dict:
    patch = _build_classical(args)
    grid = patch.grid(args.grid)
    rep = verify_hopf(patch, grid, step=args.step, tolerances=args.tol)
    checks = _construction_checks(args, patch, grid)
    checks += rep.checks
    mu_abs = abs(rep.mu)
    if args.s == "plus":
        checks.append(
            make_check(
                "trichotomy-margin", mu_abs - 2.0, 0.0, 0.0, passed=mu_abs - 2.0 > 0
            )
        )
    elif args.s == "minus":
        checks.append(
            make_check(
                "trichotomy-margin", 2.0 - mu_abs, 0.0, 0.0, passed=2.0 - mu_abs > 0
            )
        )
    else:
        checks.append(
            make_check("trichotomy-margin", abs(mu_abs - 2.0), 0.0, args.tol["mu"])
        )
    return make_envelope(args.command, _echo(args), checks)


def _orbit_checks(
    args: argparse.Namespace, form: GeneratorForm, grid, rows: Sequence[str]
) -> Tuple[List[dict], Optional[ShapeReport]]:
    """The immersion row and the named verifier rows of the form's orbit
    patch; no report when the construction or a measurement degenerates.
    """
    try:
        patch = orbit_patch_from_form(form)
        rep = verify_hopf(
            patch,
            patch.grid(2, cap=4) if grid is None else grid,
            step=args.step,
            tolerances=args.tol,
        )
    except GeometryError as exc:
        print(f"non-immersion: {exc}", file=sys.stderr)
        return [make_check("immersion", 1.0, 0.0, 0.0, passed=False)], None
    checks = [make_check("immersion", 0.0, 0.0, 0.0, passed=True)]
    return checks + [c for c in rep.checks if c["name"] in rows], rep


def _one_param_checks(args: argparse.Namespace, form: GeneratorForm) -> List[dict]:
    offsets = ((0.0, 0.0, 0.0), (0.3, -0.2, 0.25), (-0.25, 0.3, -0.2))
    grid = [
        np.array([th, x, h, lam])
        for lam in RHO_HEIGHTS
        for (th, x, h) in offsets
    ]
    checks, rep = _orbit_checks(args, form, grid, ONE_PARAM_ROWS)
    if rep is None:
        return checks
    try:
        predicted = {lam: extra_curvature(form, lam) for lam in RHO_HEIGHTS}
    except GeometryError as exc:
        print(f"non-immersion: {exc}", file=sys.stderr)
        return [make_check("immersion", 1.0, 0.0, 0.0, passed=False)]
    by_height: Dict[float, List[float]] = {}
    for at, (lam, rho) in zip(grid, rep.rho_values):
        gp = grid_key(at)
        checks.append(
            make_check("rho", rho, predicted[lam], args.tol["rho"], grid_point=gp)
        )
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
    if is_horosphere_data(form):
        for lam in sorted(by_height):
            for rho in by_height[lam]:
                checks.append(
                    make_check(
                        "rho-horosphere",
                        rho,
                        1.0,
                        args.tol["rho"],
                        grid_point=f"lam={_g(lam)}",
                    )
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
    for e in np.eye(f.dim_g):
        membership = max(membership, algebra_residual(form_value(f, e).matrix))
    checks.append(
        make_check("algebra-membership", membership, 0.0, args.tol["structure"])
    )
    return checks


def _cmd_cko_run(args: argparse.Namespace) -> dict:
    loaded = _load_constants(args)
    if loaded is None:
        loaded = ("one-param", random_one_param(np.random.default_rng(args.seed)))
    kind, form = loaded
    if kind == "one-param":
        checks = _one_param_checks(args, form)
    else:
        checks = _form_checks(args, form)
        if checks[0]["pass"]:
            checks += _orbit_checks(args, form, None, ORBIT_ROWS)[0]
    return make_envelope(args.command, _echo(args, _constants_doc(kind, form)), checks)


def _cmd_mc_check(args: argparse.Namespace) -> dict:
    if args.constants is None:
        raise ConfigError("mc-check needs --constants")
    kind, form = _load_constants(args)
    checks = _form_checks(args, form)
    return make_envelope(args.command, _echo(args, _constants_doc(kind, form)), checks)


_COMMANDS = {
    "verify-curves": _cmd_verify_curves,
    "build-example": _cmd_build_example,
    "verify-hopf": _cmd_verify_hopf,
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
        envelope = _COMMANDS[args.command](_validate(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
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

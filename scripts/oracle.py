"""A 50-digit oracle for the certification values of the golden commands,
and the acceptance rule for changes that cannot keep the report bytes.

    python3 scripts/oracle.py record [--out tests/oracle_reference.json]
    python3 scripts/oracle.py compare PARENT_SRC CHANGE_SRC [--reference FILE]

The oracle evaluates, with mpmath at 50 significant digits, the lifts of the
three classical families (tube_complex, tube_real through mpmath.expm of the
full (n+1) x (n+1) generator, horosphere) and of the generator-form orbit
patches (an ordered product of mpmath.expm of the form's basis values; the
package takes one exponential of their sum, so the oracle keeps the product
as an independent route, equal to it for a flat form).  At each grid
point it takes the shape operator as hypersurface.shape_operator does: the
same central-difference stencil and step (the stencil points are
exact, not rounded to floats), the same horizontal frame sweep, least-squares
velocities (minimum norm), the normal stencil along them, and the same
eigenvalue pairing selection.  Only float64 rounding then separates the
package's values from the oracle's, to within the O(h^2) truncation that
both share.

`record` runs every case of tests/golden_reports.json through this
checkout's hopftwistor.cli.main with hypersurface._point_report replaced by
the oracle's, so the verifier and the CLI aggregate oracle values with their
own rules; the per-point values are rounded to float64 first, which is far
below the differences the rule measures.  Rows are then classed:
- shape rows (anything the verifier or the spectrum table derives from the
  shape operators) take the value of that run;
- construction rows (quadric-residual, normal-unit, normal-orthogonal,
  defining-relation) are exactly 0 for these lifts;
- every other row (flatness, immersion, constants echoes) has no oracle
  value (null).
The file also keeps, per case, max|Psi| (the largest modulus of a point
coordinate over the grid) and, for one grid point per family at n = 4, the
oracle's per-point values, which the test suite recomputes.

`compare` runs the same cases on two source trees (each in a child process
importing hopftwistor from that tree) and applies the rule: exit codes,
check names and order, pass flags and `certified` are unchanged, a value
without an oracle value is bitwise unchanged, and every value with one is
no farther from it than the parent's distance plus max(u max|Psi| / h, 2 s)
(u = 2^-53, h the finite-difference step).  u max|Psi| / h is the rounding
of one central difference; carried through the least-squares solve and the
eigenproblem it grows to about ten times that, which s measures.  compare
runs the parent 8 more times (seeds 0-7), each time multiplying every entry
of every lift output of the classical families (each StiefelPoint that
hypersurface builds) by 1 + u eps, eps uniform in [-1, 1] + i[-1, 1]; s is
the largest move, over those runs, of any value of the case with the same
check name (grid point and index dropped).  Orbit patches are not perturbed, so their
values keep the rounding bound alone.  compare prints the worst distances,
spreads and excesses per check name, and a tally of the values, and exits 1
on any violation.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_reports.json")
REFERENCE = os.path.join(ROOT, "tests", "oracle_reference.json")
DIGITS = 50
U = 2.0**-53
# Seeded runs of the parent with perturbed lifts, from which compare takes
# each check value's spread s.
PERTURBED_RUNS = 8
CONSTRUCTION_ROWS = ("quadric-residual", "normal-unit", "normal-orthogonal", "defining-relation")
SHAPE_ROWS = (
    "hopf-residual", "symmetry-residual", "lsq-residual", "mu", "mu-constancy",
    "pairing-max", "multiplicity-pattern", "unit-multiplicity",
    "trichotomy-margin", "spectrum-size", "eigenvalue", "multiplicity",
    "eigenvalue-opposite", "multiplicity-opposite", "sample-eigenvalue",
    "rho", "rho-constancy",
)
# One grid point per family at n = 4 (the first of the CLI's grid), whose
# per-point values the test suite recomputes.
SPOT_CASES = ("verify-hopf-plus-n4", "verify-hopf-minus-n4", "verify-hopf-zero-n4")

mp.mp.dps = DIGITS


# ------------------------------------------------------------ vector algebra


def herm(z, w):
    """((z, w)) = -z0 conj(w0) + sum_k zk conj(wk)."""
    return -z[0] * mp.conj(w[0]) + mp.fsum(a * mp.conj(b) for a, b in zip(z[1:], w[1:]))


def real(z, w):
    return mp.re(herm(z, w))


def axpy(a, x, y):
    """a x + y."""
    return [a * xi + yi for xi, yi in zip(x, y)]


def scale(a, x):
    return [a * xi for xi in x]


def tangent_project(x, w):
    return axpy(real(x, w), w, x)


def horizontal(x, w):
    iw = scale(1j, w)
    return axpy(real(x, iw), iw, x)


def space_norm(x):
    return mp.sqrt(max(real(x, x), 0))


def realify(z):
    return [mp.re(c) for c in z] + [mp.im(c) for c in z]


# -------------------------------------------------------------------- models


def _mpf(x):
    return mp.mpf(float(x))


def _curve(sign, r, t):
    """(curve, tangent) coefficient pairs of twistor.curve_coefficients and
    twistor._tangent_coefficients."""
    ch, sh = mp.cosh(r), mp.sinh(r)
    if sign == "plus":
        e, f = mp.expj(t), mp.expj(-t)
        return (e * ch, f * sh), (-1j * e * sh, -1j * f * ch)
    if sign == "minus":
        ct, st = mp.cosh(t), mp.sinh(t)
        return (ch * ct + 1j * sh * st, ch * st + 1j * sh * ct), (
            ch * st - 1j * sh * ct,
            ch * ct - 1j * sh * st,
        )
    er = mp.exp(r)
    return (ch + 1j * t * er, t * er + 1j * sh), (t * er - 1j * sh, ch - 1j * t * er)


def _complexify(q):
    return [q[2 * i] + 1j * q[2 * i + 1] for i in range(len(q) // 2)]


def _norm2(z):
    return mp.fsum(mp.re(c * mp.conj(c)) for c in z)


def lift_complex(n, k):
    def lift(q):
        z, w = _complexify(q[: 2 * k]), _complexify(q[2 * k :])
        um = [mp.sqrt(1 + _norm2(z))] + z + [mp.mpc(0)] * (n - k)
        up = [mp.mpc(0)] * (k + 1) + [mp.sqrt(1 - _norm2(w))] + w
        return um, up

    return lift


def lift_real(n):
    """The first two columns of mpmath.expm of the full generator (boosts
    e0^ej on q[:n-1], rotations e1^ej on q[n-1:])."""

    def lift(q):
        gen = mp.zeros(n + 1, n + 1)
        for j in range(2, n + 1):
            gen[0, j] = gen[j, 0] = q[j - 2]
            gen[j, 1] = q[n - 1 + j - 2]
            gen[1, j] = -q[n - 1 + j - 2]
        g = mp.expm(gen)
        return [mp.mpc(g[i, 0]) for i in range(n + 1)], [mp.mpc(g[i, 1]) for i in range(n + 1)]

    return lift


def lift_horosphere(n):
    def lift(q):
        p = _complexify(q)
        a = _norm2(p)
        um = [1 + a / 2, a / 2] + p
        up = [-1j * a / 2, 1j * (1 - a / 2)] + [-1j * c for c in p]
        return [mp.mpc(c) for c in um], [mp.mpc(c) for c in up]

    return lift


# The mp chart maps of one patch: point(at) and normal(at) for a chart point
# given as mp numbers.
Model = collections.namedtuple("Model", "point normal")


def classical_model(sign, n, r, lift):
    r = _mpf(r)

    def chart(at, which):
        theta, t, q = at[0], at[1], at[2:]
        um, up = lift(q)
        cm, cp = _curve(sign, r, t)[which]
        vec = axpy(cm, um, scale(cp, up))
        return scale(mp.expj(theta) * (1j if which else 1), vec)

    return Model(lambda at: chart(at, 0), lambda at: chart(at, 1))


def orbit_model(form):
    """generator.orbit_patch_from_form in mp: e^{i theta} g(x) profile(h,
    lam, p), g the ordered product of exp(x_k X_k)."""
    from hopftwistor.generator import _basis_values

    basis = [mp.matrix([[mp.mpc(complex(v)) for v in row] for row in x.matrix.tolist()])
             for x in _basis_values(form)]
    nx = len(basis)

    def chart(at, normal):
        h, lam, c = at[1 + nx], at[2 + nx], at[3 + nx :]
        p = [mp.sqrt(1 - mp.fsum(ci * ci for ci in c))] + list(c)
        if normal:
            head = [-lam * lam / 2 + 1j * h, lam * lam / 2 - 1 - 1j * h]
            tail = [-lam * pi for pi in p]
        else:
            head = [1 + lam * lam / 2 - 1j * h, -lam * lam / 2 + 1j * h]
            tail = [lam * pi for pi in p]
        g = mp.expm(at[1] * basis[0])
        for k in range(1, nx):
            g = g * mp.expm(at[1 + k] * basis[k])
        moved = g * mp.matrix(head + tail)
        return [mp.expj(at[0]) * moved[i] for i in range(moved.rows)]

    return Model(lambda at: chart(at, False), lambda at: chart(at, True))


# ----------------------------------------------------------- shape operator


def _stencil(func, at, directions, h):
    """Central differences of func along each direction, and func(at)."""
    rows = []
    for d in directions:
        plus = func([a + h * di for a, di in zip(at, d)])
        minus = func([a - h * di for a, di in zip(at, d)])
        rows.append([(p - m) / (2 * h) for p, m in zip(plus, minus)])
    return rows, func(at)


def _lstsq(jac, target):
    """Minimum-norm least squares through the normal equations (the charts
    here have full column rank) and the misfit norm |jac v - target|."""
    a = mp.matrix(jac)
    v = mp.lu_solve(a.T * a, a.T * mp.matrix(target))
    misfit = a * v - mp.matrix(target)
    return [v[i] for i in range(v.rows)], mp.sqrt(mp.fsum(x * x for x in misfit))


def _argmax(values):
    return max(range(len(values)), key=lambda i: values[i])


def point_values(model, t_index, at, step):
    """The per-point values of hypersurface._point_report, in mp: mu, hopf,
    symmetry, lsq, eigvals (ascending), pairings, exceptional, and max|Psi|
    at the point."""
    at = [_mpf(a) for a in at]
    h = _mpf(step)
    d = len(at)
    eye = [[mp.mpf(int(i == j)) for j in range(d)] for i in range(d)]
    columns, psi0 = _stencil(model.point, at, eye, h)
    projected = [horizontal(tangent_project(c, psi0), psi0) for c in columns[1:]]

    seed = projected[t_index - 1]
    frame = [scale(1 / space_norm(seed), seed)]
    rest = [v for i, v in enumerate(projected) if i != t_index - 1]
    rest = [axpy(-real(v, frame[0]), frame[0], v) for v in rest]
    for i in range(len(rest)):
        norm = space_norm(rest[i])
        if norm < 1e-8:
            continue
        e = scale(1 / norm, rest[i])
        frame.append(e)
        rest[i + 1 :] = [axpy(-real(v, e), e, v) for v in rest[i + 1 :]]

    jac = [list(row) for row in zip(*[realify(c) for c in columns])]
    solved = [_lstsq(jac, realify(e)) for e in frame]
    velocities = [v for v, _ in solved]
    lsq = max(m for _, m in solved)
    derivatives, normal = _stencil(model.normal, at, velocities, h)
    w = [scale(-1, horizontal(tangent_project(x, psi0), psi0)) for x in derivatives]
    dim = len(frame)
    a = [[real(w[j], frame[i]) for j in range(dim)] for i in range(dim)]

    sym = max(abs(a[i][j] - a[j][i]) for i in range(dim) for j in range(dim))
    values, vectors = mp.eigsy(mp.matrix([[(a[i][j] + a[j][i]) / 2 for j in range(dim)] for i in range(dim)]))
    order = sorted(range(dim), key=lambda i: values[i])
    eigvals = [values[i] for i in order]
    eigvecs = [[vectors[r, i] for i in order] for r in range(dim)]  # columns as in numpy
    mu = a[0][0]
    hopf = mp.sqrt(mp.fsum(a[i][0] ** 2 for i in range(1, dim)))

    xi = _argmax([abs(eigvecs[0][j]) for j in range(dim)])
    others = [i for i in range(dim) if i != xi]
    regular = [i for i in others if abs(2 * eigvals[i] - mu) > 1e-3]
    pairings = []
    for i in regular:
        x = [mp.fsum(eigvecs[r][i] * frame[r][k] for r in range(dim)) for k in range(len(psi0))]
        ix = scale(1j, x)
        phi = axpy(-real(ix, normal), normal, ix)
        coupling = [real(phi, frame[r]) for r in range(dim)]
        weights = [abs(mp.fsum(coupling[r] * eigvecs[r][j] for r in range(dim))) for j in range(dim)]
        j = _argmax(weights)
        lam = eigvals[i]
        pairings.append(abs(eigvals[j] - (lam * mu - 2) / (2 * lam - mu)))
    return {
        "mu": mu,
        "hopf": hopf,
        "symmetry": sym,
        "lsq": lsq,
        "eigvals": eigvals,
        "pairings": pairings,
        "exceptional": len(others) - len(regular),
        "psi_max": max(abs(c) for c in psi0),
    }


# --------------------------------------------------------------- the record


def _models_for_cli(cli, models):
    """Wrappers of the patch constructors the CLI calls: every patch they
    build gets its mp model in models, keyed by id."""
    builders = {
        "tube_complex": lambda n, k, r: classical_model("plus", n, r, lift_complex(n, k)),
        "tube_real": lambda n, r: classical_model("minus", n, r, lift_real(n)),
        "horosphere": lambda n, r: classical_model("zero", n, r, lift_horosphere(n)),
        "orbit_patch_from_form": orbit_model,
    }

    def wrap(original, build):
        def make(*args):
            patch = original(*args)
            # Keeping the patch keeps its id from being reused in this run.
            models[id(patch)] = (patch, build(*args))
            return patch

        return make

    return {name: wrap(getattr(cli, name), build) for name, build in builders.items()}


def _run_case(cli, case, work):
    """(exit code, parsed report or None, stderr) of one golden case."""
    argv = list(case["args"])
    if case["constants"] is not None:
        path = os.path.join(work, "constants.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case["constants"], fh)
        argv += ["--constants", path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    return rc, (json.loads(text) if text else None), err.getvalue()


def _oracle_report(cli, hypersurface, case, work):
    models = {}
    psi = []

    def point_report(patch, at, step, rank_tol):
        _, model = models[id(patch)]
        v = point_values(model, patch.t_index, at, step)
        psi.append(float(v["psi_max"]))
        return {
            "at": at,
            "mu": float(v["mu"]),
            "hopf": float(v["hopf"]),
            "symmetry": float(v["symmetry"]),
            "lsq": float(v["lsq"]),
            "eigvals": [float(x) for x in v["eigvals"]],
            "pairings": [float(x) for x in v["pairings"]],
            "exceptional": v["exceptional"],
        }

    with contextlib.ExitStack() as stack:
        for name, fn in _models_for_cli(cli, models).items():
            stack.enter_context(mock.patch.object(cli, name, fn))
        stack.enter_context(mock.patch.object(hypersurface, "_point_report", point_report))
        rc, report, err = _run_case(cli, case, work)
    return rc, report, err, (max(psi) if psi else None)


def _base(name):
    return name.split("[")[0].split("@")[0]


def record(out_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hopftwistor import cli, hypersurface

    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    cases = {}
    spots = {}
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(golden):
            case = golden[name]
            rc, report, err, psi_max = _oracle_report(cli, hypersurface, case, work)
            if report is None:
                raise SystemExit(f"{name}: the oracle run wrote no report ({err.strip()})")
            rows = []
            for c in report["checks"]:
                base = _base(c["name"])
                if base in CONSTRUCTION_ROWS:
                    value = 0.0
                elif base in SHAPE_ROWS and psi_max is not None:
                    value = c["value"]
                else:
                    value = None
                rows.append([c["name"], value])
            cases[name] = {
                "args": case["args"],
                "constants": case["constants"],
                "exit": rc,
                "certified": report["certified"],
                "psi_max": psi_max,
                "checks": rows,
            }
            print(f"{name}: {len(rows)} rows, max|Psi| = {psi_max}", file=sys.stderr)
        for name in SPOT_CASES:
            spots[name] = spot_values(golden[name])
    doc = {
        "digits": DIGITS,
        "what": "50-digit oracle values of the golden commands' checks (scripts/oracle.py record)",
        "cases": cases,
        "spot": spots,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(_layout(doc))
    return 0


def _layout(doc):
    """JSON with one check row per line."""
    cases = []
    for name, case in doc["cases"].items():
        head = {k: v for k, v in case.items() if k != "checks"}
        rows = ",\n".join("    " + json.dumps(row) for row in case["checks"])
        cases.append(f"  {json.dumps(name)}: {json.dumps(head)[:-1]}, \"checks\": [\n{rows}\n  ]}}")
    spot = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc["spot"].items())
    return (
        f"{{\"digits\": {doc['digits']}, \"what\": {json.dumps(doc['what'])},\n"
        f"\"cases\": {{\n" + ",\n".join(cases) + "\n},\n"
        f"\"spot\": {{\n{spot}\n}}}}\n"
    )


def spot_patch(case):
    """The float patch, the mp model and the first CLI grid point of a
    classical golden case."""
    from hopftwistor import hypersurface

    args = case["args"]
    opt = dict(zip(args[1::2], args[2::2]))
    n, sign = int(opt["--n"]), opt["--s"]
    r = float(opt.get("--r", 0.0))
    if sign == "plus":
        k = int(opt.get("--k", 0))
        patch, model = hypersurface.tube_complex(n, k, r), classical_model(sign, n, r, lift_complex(n, k))
    elif sign == "minus":
        patch, model = hypersurface.tube_real(n, r), classical_model(sign, n, r, lift_real(n))
    else:
        patch, model = hypersurface.horosphere(n, r), classical_model(sign, n, r, lift_horosphere(n))
    return patch, model, patch.grid(int(opt.get("--grid", 3)))[0]


def spot_values(case, step=1e-4):
    patch, model, at = spot_patch(case)
    v = point_values(model, patch.t_index, at, step)
    return {
        "at": [float(a) for a in at],
        "values": {
            key: ([float(x) for x in v[key]] if isinstance(v[key], list) else float(v[key]))
            for key in ("mu", "hopf", "symmetry", "lsq", "eigvals", "pairings", "psi_max")
        },
    }


# --------------------------------------------------------------- the compare


def _tree_reports(src, reference, perturb=None):
    """Run the reference's cases on the tree at src, in a child process;
    perturb is the seed of a run with perturbed lifts (_reports)."""
    argv = [sys.executable, os.path.abspath(__file__), "_reports", src, reference]
    if perturb is not None:
        argv += ["--perturb", str(perturb)]
    proc = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        check=True,
    )
    return json.loads(proc.stdout)


def _perturb_lifts(hypersurface, seed):
    """Multiply every entry of every lift output of the classical families
    (each StiefelPoint that hypersurface builds) by 1 + u eps, eps uniform in
    the complex box [-1, 1] + i[-1, 1], drawn from a generator seeded with
    seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    original = hypersurface.StiefelPoint

    def jitter(u):
        u = np.asarray(u, dtype=complex)
        eps = rng.uniform(-1.0, 1.0, u.shape) + 1j * rng.uniform(-1.0, 1.0, u.shape)
        return u + u * (U * eps)

    def perturbed(u_minus, u_plus, *args, **kwargs):
        return original(jitter(u_minus), jitter(u_plus), *args, **kwargs)

    return mock.patch.object(hypersurface, "StiefelPoint", perturbed)


def _reports(src, reference, perturb=None):
    sys.path.insert(0, os.path.abspath(src))
    from hopftwistor import cli, hypersurface

    with open(reference, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    out = {}
    with contextlib.ExitStack() as stack:
        work = stack.enter_context(tempfile.TemporaryDirectory())
        if perturb is not None:
            stack.enter_context(_perturb_lifts(hypersurface, perturb))
        for name, case in cases.items():
            rc, report, _ = _run_case(cli, case, work)
            out[name] = {"exit": rc, "report": report}
    json.dump(out, sys.stdout)
    return 0


# The outcomes of one check value under the rule, in the order of the tally.
SAME = "as close"
CLOSER = "closer"
WITHIN_ROUNDING = "farther within u max|Psi| / h"
WITHIN_SPREAD = "farther within 2 s"
BEYOND = "farther beyond both"
KEPT = "unchanged without an oracle value"
MOVED = "moved without an oracle value"


def classify_row(parent, change, oracle, bound, spread):
    """The outcome of one check value: the parent's and the change's values,
    the oracle's (None when there is none), the rounding bound u max|Psi| / h
    and the parent's spread s under perturbed lifts.  BEYOND and MOVED break
    the rule."""
    if oracle is None:
        return KEPT if parent == change else MOVED
    da, db = abs(parent - oracle), abs(change - oracle)
    if db == da:
        return SAME
    if db < da:
        return CLOSER
    if db <= da + bound:
        return WITHIN_ROUNDING
    if db <= da + 2.0 * spread:
        return WITHIN_SPREAD
    return BEYOND


def _spreads(parent, perturbed):
    """Per case, the spread s of each check value: the largest move, over
    the perturbed runs of the parent, of any value of the case with the same
    check name (grid point and index dropped); None for a case whose runs
    disagree in their checks."""
    out = {}
    for name, plain in parent.items():
        report = plain["report"]
        if report is None:
            out[name] = None
            continue
        rows = [_base(c["name"]) for c in report["checks"]]
        moves = dict.fromkeys(rows, 0.0)
        for run in perturbed:
            other = run[name]["report"]
            if other is None or [c["name"] for c in other["checks"]] != [c["name"] for c in report["checks"]]:
                moves = None
                break
            for row, a, b in zip(rows, report["checks"], other["checks"]):
                moves[row] = max(moves[row], abs(b["value"] - a["value"]))
        out[name] = None if moves is None else [moves[row] for row in rows]
    return out


def compare(parent_src, change_src, reference):
    with open(reference, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    parent = _tree_reports(parent_src, reference)
    change = _tree_reports(change_src, reference)
    perturbed = [_tree_reports(parent_src, reference, seed) for seed in range(PERTURBED_RUNS)]
    spreads = _spreads(parent, perturbed)
    violations = 0
    tally = dict.fromkeys((SAME, CLOSER, WITHIN_ROUNDING, WITHIN_SPREAD, BEYOND, KEPT, MOVED), 0)
    worst = {}
    for name, case in cases.items():
        a, b = parent[name], change[name]
        problems = []
        if a["exit"] != b["exit"]:
            problems.append(f"exit {a['exit']} -> {b['exit']}")
        ra, rb = a["report"], b["report"]
        if ra is None or rb is None:
            if ra != rb:
                problems.append("report present on one side only")
        else:
            if ra["certified"] != rb["certified"]:
                problems.append("certified differs")
            names = [c["name"] for c in ra["checks"]]
            if names != [c["name"] for c in rb["checks"]] or names != [r[0] for r in case["checks"]]:
                problems.append("check names or order differ")
            else:
                if spreads[name] is None:
                    print(f"{name}: a perturbed run of the parent changed its checks; s = 0")
                spread = spreads[name] or [0.0] * len(names)
                bound = U * case["psi_max"] / ra["config"]["fd_step"] if case["psi_max"] else 0.0
                for ca, cb, (row, oracle), s in zip(ra["checks"], rb["checks"], case["checks"], spread):
                    if ca["pass"] != cb["pass"]:
                        problems.append(f"{row}: pass {ca['pass']} -> {cb['pass']}")
                    outcome = classify_row(ca["value"], cb["value"], oracle, bound, s)
                    tally[outcome] += 1
                    if outcome == MOVED:
                        problems.append(f"{row}: no oracle value and {ca['value']!r} -> {cb['value']!r}")
                    if oracle is None:
                        continue
                    da, db = abs(ca["value"] - oracle), abs(cb["value"] - oracle)
                    entry = worst.setdefault(_base(row), [0.0, 0.0, 0.0, 0.0, -math.inf])
                    entry[0], entry[1] = max(entry[0], da), max(entry[1], db)
                    entry[2] = max(entry[2], s)
                    entry[3] = max(entry[3], db - da - bound)
                    entry[4] = max(entry[4], db - da - max(bound, 2.0 * s))
                    if outcome == BEYOND:
                        problems.append(
                            f"{row}: |change - oracle| {db:.3e} > |parent - oracle| {da:.3e}"
                            f" + max({bound:.3e}, 2 s = {2.0 * s:.3e})"
                        )
        if problems:
            violations += len(problems)
            print(f"{name}:")
            for p in problems:
                print(f"  {p}")
    print(
        f"{'check':<22} {'max parent dist':>15} {'max change dist':>15} {'max s':>10}"
        f" {'excess u|Psi|/h':>15} {'excess rule':>11}"
    )
    # excess u|Psi|/h: the largest |change - oracle| - |parent - oracle| - u max|Psi| / h;
    # excess rule: the same less max(u max|Psi| / h, 2 s) (<= 0 when the rule holds).
    for row in sorted(worst):
        da, db, s, old, new = worst[row]
        print(f"{row:<22} {da:>15.3e} {db:>15.3e} {s:>10.3e} {old:>15.3e} {new:>11.3e}")
    print("check values, change against parent: " + ", ".join(f"{v} {k}" for k, v in tally.items()))
    print(f"{len(cases)} cases, {PERTURBED_RUNS} perturbed runs of the parent, {violations} violations of the oracle rule")
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record", help="write the oracle values of the golden cases")
    rec.add_argument("--out", default=REFERENCE)
    cmp_ = sub.add_parser("compare", help="apply the oracle rule to two source trees")
    cmp_.add_argument("parent_src")
    cmp_.add_argument("change_src")
    cmp_.add_argument("--reference", default=REFERENCE)
    rep = sub.add_parser("_reports", help=argparse.SUPPRESS)
    rep.add_argument("src")
    rep.add_argument("reference")
    rep.add_argument("--perturb", type=int, default=None)
    args = parser.parse_args(argv)
    if args.action == "record":
        return record(args.out)
    if args.action == "compare":
        return compare(args.parent_src, args.change_src, args.reference)
    return _reports(args.src, args.reference, args.perturb)


if __name__ == "__main__":
    sys.exit(main())

"""Same-bytes check: run a fixed set of CLI commands on one source tree and
record what each prints, then compare two such records.

    python3 scripts/same_bytes.py record before.json --src /path/to/old/src
    python3 scripts/same_bytes.py record after.json
    python3 scripts/same_bytes.py diff before.json after.json

`record` runs every command in-process through hopftwistor.cli.main(argv),
with the package imported from --src (default: this checkout's src/) and
BLAS pinned to one thread.  Per command it keeps the exit code, stdout,
stderr without the wall_time_ms line, and the --out file.  Warnings are
written as "Category: message", without the source path and line, so that
moved code does not show as a difference.  Constants files and --out files
go under --work (default .same_bytes/); record both sides with the same
--work, because error texts can name these paths.

`diff` compares two records command by command, by position, and exits 1
when any field differs.

    python3 scripts/same_bytes.py diff --values before.json after.json

`diff --values` is for changes that are not bitwise.  It exits 1 when any
command differs in exit code, in the check names or their order, in a pass
flag, in `certified`, or anywhere else in a report (config echo, expected
values, tolerances) but the check values, or in stderr beyond its numbers.
It prints, per check name (without grid point and index), how many values
moved and the largest absolute and relative change of `value`, over the
JSON and CSV reports on stdout and in --out files; then the stderr lines
that differ only in numbers.

The command set (482 commands):
- the first 4 cycles of each benchmark workload (perfbench/inputs.py,
  seed 1) and the 24 commands of its full-range probe (seed 1);
- the README commands;
- cko-run on the y0 = y1 constants of
  random_one_param(default_rng(0), horosphere=True);
- cko-run on two one-parameter forms that are not immersions, one refused
  by its constants and one by the rank gate, which print only a failing
  immersion row; the second again with --tol rank=0, in JSON and CSV,
  where the frame collapses instead;
- verify-hopf and build-example for n = 2..5, each family (--k n-1 for
  plus), r in {0.02, 0.1, 0.5, 1.5, 4};
- cko-run --n 2 --seed 0..39;
- 28 commands that exercise flag validation, the output paths, the
  degenerate-radius row and the closed-form overflow;
- verify-hopf / build-example --n 6 --s minus --r 2.3, verify-hopf --n 6
  --r 0.7 in each family, and cko-run (json and csv) and mc-check on the
  n = 6 form of tests/golden_reports.json;
- verify-hopf and build-example at r = 8 for n = 2..5 in each family, which
  fail on the hyperquadric check;
- verify-curves at n = 5 and 6, with --step 1e-3, at r = -0.5 in each
  family, and at the two radii of sign plus that stop the run: r = 1e-12
  (vanishing horizontal speed) and r = 150 (a NaN tangency defect);
- verify-curves --n 2 at r = -3 of sign zero, which certifies with exact
  curve derivatives, and at r = -19 of sign plus, which stops on its
  tangency gate with one error line on stderr;
- cko-run --n 2 --seed 1206163822, a draw whose symmetry-residual sat at
  its tolerance, and verify-hopf --n 2 and 3 at r = 0.01 for plus (--k 1)
  and minus, the smallest radius of ROADMAP item 1's sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAMILIES = ("plus", "minus", "zero")

FLAT_FORM = {
    "kind": "block-form",
    "alpha0": [0.0, 0.0],
    "alpha1": [0.0, 0.0],
    "x_form": [[0.0, 0.0], [0.0, 0.0]],
    "y0": [[1.0, 0.0], [0.0, 1.0]],
    "y1": [[1.0, 0.0], [0.0, 1.0]],
    "w1": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "w2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
}

# random_one_param(np.random.default_rng(0), horosphere=True): y0 = y1.
HOROSPHERE_CONSTANTS = {
    "kind": "one-param",
    "alpha0": 0.7148085531751387,
    "alpha1": -0.9328288493890713,
    "x": 0.45931089285988813,
    "y0": -0.648688758794882,
    "y1": -0.648688758794882,
    "w": 0.08292244049818343,
}

# The documented non-immersion: y0 = y1 = 0 with alpha0 + alpha1 = 2w != 0.
FLAT_Y_CONSTANTS = {"kind": "one-param", "alpha0": 1, "alpha1": 1, "w": 1}
# An immersion in its constants whose orbit chart is rank deficient at
# (0, 0, 0, 1).
RANK_DEFICIENT_CONSTANTS = {"kind": "one-param", "alpha0": 1, "alpha1": 1, "y0": 1, "y1": 1}


def _classical(command: str, n: int, s: str, r: float) -> list:
    argv = [command, "--n", str(n), "--s", s, "--r", repr(r)]
    return argv + (["--k", str(n - 1)] if s == "plus" else [])


def commands(work: str) -> list:
    """Every command of the set, in order, as argv lists; writes the
    constants files they name into work."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs

    def doc_file(name: str, doc: dict) -> str:
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    out: list = []
    for workload in inputs.WORKLOADS:
        folder = os.path.join(work, workload)
        os.makedirs(folder, exist_ok=True)
        for cycle in inputs.generate(workload, 1, folder)[:4]:
            out += [list(item.argv) for item in cycle]
    out += [list(item.argv) for item in inputs.full_range_probe(1)]

    form = doc_file("form.json", FLAT_FORM)
    out += [
        ["verify-curves", "--n", "2"],
        ["build-example", "--n", "3", "--s", "plus", "--r", "0.4", "--k", "1"],
        ["verify-hopf", "--n", "2", "--s", "minus", "--r", "0.3"],
        ["cko-run", "--n", "2", "--seed", "7"],
        ["cko-run", "--constants", form],
        ["mc-check", "--constants", form],
        ["cko-run", "--constants", doc_file("horosphere.json", HOROSPHERE_CONSTANTS)],
        ["cko-run", "--constants", doc_file("flat-y.json", FLAT_Y_CONSTANTS)],
    ]
    rank_deficient = doc_file("rank-deficient.json", RANK_DEFICIENT_CONSTANTS)
    out += [
        ["cko-run", "--constants", rank_deficient],
        ["cko-run", "--constants", rank_deficient, "--tol", "rank=0"],
        ["cko-run", "--constants", rank_deficient, "--tol", "rank=0", "--format", "csv"],
    ]
    for n in (2, 3, 4, 5):
        for s in FAMILIES:
            for r in (0.02, 0.1, 0.5, 1.5, 4.0):
                out += [_classical("verify-hopf", n, s, r), _classical("build-example", n, s, r)]
    out += [["cko-run", "--n", "2", "--seed", str(seed)] for seed in range(40)]

    report = os.path.join(work, "report.out")
    hopf = ["verify-hopf", "--n", "2", "--s", "zero"]
    out += [
        hopf + ["--n", "1"],
        hopf + ["--grid", "1"],
        hopf + ["--step", "0"],
        hopf + ["--step", "0.1"],
        hopf + ["--tol", "foo=1"],
        hopf + ["--tol", "mu=-1"],
        hopf + ["--tol", "mu=nan"],
        hopf + ["--tol", "mu"],
        hopf + ["--tol", "mu=abc"],
        hopf + ["--n", "1", "--tol", "foo=1"],
        hopf + ["--n", "1", "--tol", "mu=abc"],
        ["verify-hopf", "--n", "2"],
        hopf + ["--format", "xml"],
        [],
        ["--help"],
        ["verify-hopf", "--help"],
        ["verify-hopf", "--n", "2", "--s", "plus"],
        ["verify-hopf", "--n", "2", "--s", "minus", "--r", "0"],
        ["verify-hopf", "--n", "2", "--s", "plus", "--r", "0.5", "--k", "5"],
        ["mc-check"],
        ["mc-check", "--constants", os.path.join(work, "missing.json")],
        ["verify-hopf", "--n", "3", "--s", "minus", "--r", "0.6", "--format", "csv"],
        ["build-example", "--n", "2", "--s", "plus", "--r", "0.5", "--out", report],
        hopf + ["--tol", "mu=1e-3", "--tol", "hopf=1e-6"],
        ["cko-run", "--n", "2", "--seed", "3", "--tol", "rho=1e-9", "--tol", "lsq=1"],
        ["verify-curves", "--n", "3", "--format", "csv"],
        ["verify-curves", "--n", "2", "--s", "plus", "--r", "0"],
        ["verify-hopf", "--n", "2", "--s", "plus", "--r", "400"],
    ]

    with open(os.path.join(ROOT, "tests", "golden_reports.json"), encoding="utf-8") as fh:
        form6 = doc_file("form6.json", json.load(fh)["cko-run-flat-form-n6"]["constants"])
    out += [
        ["verify-hopf", "--n", "6", "--s", "minus", "--r", "2.3"],
        ["build-example", "--n", "6", "--s", "minus", "--r", "2.3"],
    ]
    out += [_classical("verify-hopf", 6, s, 0.7) for s in FAMILIES]
    out += [
        ["cko-run", "--constants", form6],
        ["cko-run", "--constants", form6, "--format", "csv"],
        ["mc-check", "--constants", form6],
    ]
    for n in (2, 3, 4, 5):
        for s in FAMILIES:
            out += [_classical("verify-hopf", n, s, 8.0), _classical("build-example", n, s, 8.0)]
    curves = ["verify-curves", "--n", "2"]
    out += [["verify-curves", "--n", "5"], ["verify-curves", "--n", "6"], curves + ["--step", "1e-3"]]
    out += [curves + ["--s", s, "--r=-0.5"] for s in FAMILIES]
    out += [curves + ["--s", "plus", "--r", "1e-12"], curves + ["--s", "plus", "--r", "150"]]
    out += [curves + ["--s", "zero", "--r=-3"], curves + ["--s", "plus", "--r=-19"]]
    out += [["cko-run", "--n", "2", "--seed", "1206163822"]]
    for n in (2, 3):
        hopf = ["verify-hopf", "--n", str(n), "--r", "0.01"]
        out += [hopf + ["--s", "plus", "--k", "1"], hopf + ["--s", "minus"]]
    return out


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run(argv: list, main) -> dict:
    """One command's exit code, stdout, stderr without wall_time_ms, and the
    text of its --out file (read, then deleted)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is an outcome too
            rc = f"raised {type(exc).__name__}: {exc}"
    stderr = "".join(
        line for line in err.getvalue().splitlines(True) if not line.startswith("wall_time_ms=")
    )
    report = None
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                report = fh.read()
            os.remove(path)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": stderr, "out": report}


def record(path: str, src: str, work: str) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(src))
    from hopftwistor import cli

    warnings.simplefilter("always")
    warnings.showwarning = _show_warning
    os.makedirs(work, exist_ok=True)
    results = [run(argv, cli.main) for argv in commands(os.path.abspath(work))]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"src": os.path.abspath(src), "results": results}, fh, indent=1)
    codes: dict = {}
    for r in results:
        codes[str(r["rc"])] = codes.get(str(r["rc"]), 0) + 1
    print(f"{len(results)} commands from {cli.__file__}; exit codes {codes}")
    return 0


def diff(path_a: str, path_b: str, values: bool = False) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["results"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["results"]
    if len(a) != len(b):
        print(f"different command counts: {len(a)} vs {len(b)}")
        return 1
    if values:
        return diff_values(a, b)
    differing = 0
    for i, (x, y) in enumerate(zip(a, b)):
        fields = [k for k in ("argv", "rc", "stdout", "stderr", "out") if x[k] != y[k]]
        if fields:
            differing += 1
            print(f"#{i} {' '.join(x['argv'])}: {', '.join(fields)} differ")
            if "stderr" in fields:
                print(f"  a: {x['stderr'].strip()[-300:]}\n  b: {y['stderr'].strip()[-300:]}")
    print(f"{len(a) - differing} of {len(a)} commands identical")
    return 1 if differing else 0


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
CSV_HEADER = "name,grid_point,index,value,expected,tolerance,pass\n"


def _report(text):
    """(everything but the check values, [(check name, value)]) of a JSON or
    CSV report; None for any other text."""
    if text and text.startswith(CSV_HEADER):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [r[:3] + r[4:] for r in rows], [(r[0], float(r[3])) for r in rows]
    try:
        doc = json.loads(text or "")
    except ValueError:
        return None
    if not isinstance(doc, dict) or "checks" not in doc:
        return None
    rest = dict(doc, checks=[{k: v for k, v in c.items() if k != "value"} for c in doc["checks"]])
    return rest, [(re.split(r"[\[@]", c["name"])[0], c["value"]) for c in doc["checks"]]


def diff_values(a: list, b: list) -> int:
    failing = 0
    moves: dict = {}
    stderr_moves = []
    for i, (x, y) in enumerate(zip(a, b)):
        problems = [k for k in ("argv", "rc") if x[k] != y[k]]
        for field in ("stdout", "out"):
            if x[field] == y[field]:
                continue
            rx, ry = _report(x[field]), _report(y[field])
            if rx is None or ry is None or rx[0] != ry[0]:
                problems.append(field)
                continue
            for (name, vx), (_, vy) in zip(rx[1], ry[1]):
                change = abs(vy - vx)
                rel = change / abs(vx) if vx else (0.0 if change == 0 else math.inf)
                count, worst, worst_rel = moves.get(name, (0, 0.0, 0.0))
                moves[name] = (count + (change > 0), max(worst, change), max(worst_rel, rel))
        if x["stderr"] != y["stderr"]:
            if NUMBER.sub("#", x["stderr"]) == NUMBER.sub("#", y["stderr"]):
                stderr_moves.append((i, x, y))
            else:
                problems.append("stderr")
        if problems:
            failing += 1
            print(f"#{i} {' '.join(x['argv'])}: {', '.join(problems)} differ beyond values")
    print(f"{'check':<24} {'moved':>6} {'max |change|':>13} {'max relative':>13}")
    for name in sorted(moves):
        count, worst, worst_rel = moves[name]
        print(f"{name:<24} {count:>6} {worst:>13.3e} {worst_rel:>13.3e}")
    for i, x, y in stderr_moves:
        print(f"#{i} {' '.join(x['argv'])}: stderr differs in numbers only")
        for lx, ly in zip(x["stderr"].splitlines(), y["stderr"].splitlines()):
            if lx != ly:
                print(f"  a: {lx}\n  b: {ly}")
    print(f"{len(a) - failing} of {len(a)} commands agree in everything but values")
    return 1 if failing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record", help="run the command set and write a record")
    rec.add_argument("path")
    rec.add_argument("--src", default=os.path.join(ROOT, "src"))
    rec.add_argument("--work", default=".same_bytes")
    cmp_ = sub.add_parser("diff", help="compare two records")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.add_argument(
        "--values", action="store_true", help="allow check values to move; report by how much"
    )
    args = parser.parse_args(argv)
    if args.action == "record":
        return record(args.path, args.src, args.work)
    return diff(args.a, args.b, args.values)


if __name__ == "__main__":
    sys.exit(main())

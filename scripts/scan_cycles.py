"""Run every input of a benchmark workload once and list the wrong outcomes.

    python3 scripts/scan_cycles.py WORKLOAD SEEDS [--src PATH]

SEEDS is a comma-separated list of seeds and ranges, e.g. 1-5,101-110,707.
For each seed, every input of all perfbench/inputs.py cycles (CYCLES of
them) goes once through hopftwistor.cli.main(argv), with the package
imported from --src (default: this checkout's src/) and BLAS pinned to one
thread, as perfbench/run.py runs it.  Each outcome is judged with
perfbench/checks.evaluate against perfbench/expected_checks.json; perfbench
is only read.  Every wrong outcome (a benchmark failure) and every incorrect
report is printed with its seed and cycle index.  Exit status 1 when there
is any, 0 otherwise.

A timed benchmark run stops after as many cycles as fit in its time, so a
faster change reaches cycles that its parent never ran.  Scanning all cycles
on both trees shows whether a change adds failures or only reaches ones
that were there before.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(cli, argv) -> tuple:
    """(exit code, stdout, error raised out of the program or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv)), out.getvalue(), None
        except Exception as exc:  # a crash is a wrong outcome
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"


def scan(workload: str, seeds: list, src: str) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("HOPF_TWISTOR_THREADS", None)
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "perfbench")]
    import checks
    import inputs
    from hopftwistor import cli

    if workload not in inputs.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of {inputs.WORKLOADS}")
    expected = checks.load_expected()
    attempted = wrong = incorrect = 0
    for seed in seeds:
        with tempfile.TemporaryDirectory() as folder:
            for index, cycle in enumerate(inputs.generate(workload, seed, folder)):
                for item in cycle:
                    rc, out, raised = run(cli, item.argv)
                    is_wrong, correct, reason = checks.evaluate(item, expected, rc, out, raised)
                    attempted += 1
                    wrong += is_wrong
                    incorrect += not correct
                    if is_wrong or not correct:
                        kind = ("wrong " if is_wrong else "") + ("incorrect" if not correct else "")
                        print(f"seed {seed} cycle {index}: {' '.join(item.argv)}: {kind.strip()}: {reason}")
    print(
        f"{workload}: {len(seeds)} seeds, {attempted} certifications from {cli.__file__}; "
        f"{wrong} wrong, {incorrect} incorrect"
    )
    return 1 if wrong or incorrect else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seeds", type=parse_seeds)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    return scan(args.workload, args.seeds, args.src)


if __name__ == "__main__":
    sys.exit(main())

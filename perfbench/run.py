"""Certification benchmark for hopftwistor.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hopf-n6 --seed 1 --seconds 30 --trace 0

Every certification goes in-process through hopftwistor.cli.main(argv), the
path a user's `hopftwistor ...` call takes.  Load model: a closed loop with
one client in one process and no threads; each certification starts when
the previous one returns.  The timed loop runs whole input cycles (see
inputs.py) until --seconds have passed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the same inputs untraced and then traced (layers.py) and prints the
per-layer metrics, the tracing overhead, the wrong-outcome ratio and that
of a full-radius-range probe run after the timed phase (inputs.py).  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the line before it ("perfbench {...}") holds the environment, the
sample counts and the first wrong or incorrect reports.  Spans of a traced
run and every result go to .perfbench_work/ in the checkout.

Exit status 2, without a result line, when the checkout holds no hopftwistor
sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def fix_environment() -> None:
    """Pin the environment before numpy is imported: no grid thread pool and
    single-threaded BLAS, so runs on the 2-core reference machine compare."""
    os.environ.pop("HOPF_TWISTOR_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


class Run(NamedTuple):
    item: object
    seconds: float
    rc: Optional[int]
    out: str
    err: str
    raised: Optional[str]


class Bench:
    """One workload's inputs and the program, set up once per process."""

    def __init__(self, workload: str, seed: int, folder: str):
        clock = time.perf_counter
        t0 = clock()
        from hopftwistor import cli

        t1 = clock()
        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"hopftwistor imported from {cli.__file__}, not {SRC}")
        import checks
        import inputs

        self.cli = cli
        self.checks = checks
        self.expected = checks.load_expected()
        t2 = clock()
        self.cycles = inputs.generate(workload, seed, folder)
        t3 = clock()
        self.warmup = self.run(self.cycles[0][0])
        t4 = clock()
        self.setup_parts = {"import_s": t1 - t0, "inputs_s": t3 - t2, "warmup_s": t4 - t3}
        self.setup_s = sum(self.setup_parts.values())

    def run(self, item) -> Run:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(item.argv))
            except Exception as exc:  # a crash is a wrong outcome, not a benchmark failure
                rc, raised = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        return Run(item, seconds, rc, out.getvalue(), err.getvalue(), raised)

    def timed(self, seconds: float, after_cycle=None) -> List[List[Run]]:
        """Whole cycles, until they have taken at least `seconds`.

        after_cycle(cycle) runs after each cycle and counts towards
        `seconds`, so that a traced run lasts as long as an untraced one.
        """
        cycles: List[List[Run]] = []
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < seconds:
            cycle = self.cycles[len(cycles) % len(self.cycles)]
            cycles.append([self.run(item) for item in cycle])
            if after_cycle is not None:
                after_cycle(cycle)
        return cycles

    def judge(self, runs: List[Run]) -> dict:
        wrong, incorrect = [], []
        for r in runs:
            is_wrong, correct, reason = self.checks.evaluate(
                r.item, self.expected, r.rc, r.out, r.raised
            )
            if is_wrong:
                wrong.append(f"{' '.join(r.item.argv)}: {reason}")
            if not correct:
                incorrect.append(f"{' '.join(r.item.argv)}: {reason}")
        return {"wrong": wrong, "incorrect": incorrect}


def p90(values: List[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "HOPF_TWISTOR_THREADS": os.environ.get("HOPF_TWISTOR_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_probe(workload: str, seed: int) -> dict:
    """Set up in a fresh process and report the set-up time."""
    with tempfile.TemporaryDirectory(dir=WORK) as folder:
        bench = Bench(workload, seed, folder)
        verdict = bench.judge([bench.warmup])
    return {"setup_s": bench.setup_s, "parts": bench.setup_parts, "incorrect": verdict["incorrect"]}


def _child_setup(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(bench: Bench, args) -> tuple:
    warm = bench.judge([bench.warmup])
    probes = [{"setup_s": bench.setup_s, "parts": bench.setup_parts, "incorrect": warm["incorrect"]}]
    probes += [_child_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    cycles = bench.timed(args.seconds)
    runs = [r for cycle in cycles for r in cycle]
    ms = [1000.0 * r.seconds for r in runs]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        # Certifications per second of program time over the whole timed
        # phase: the inputs are stratified over the run, not over a cycle.
        "certs_per_s": len(runs) / sum(r.seconds for r in runs),
        "cert_ms_p50": statistics.median(ms),
        "cert_ms_p90": p90(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    verdict = bench.judge(runs)
    verdict["incorrect"] += [msg for p in probes for msg in p["incorrect"]]
    extra = {
        "setup_samples": probes,
        "certifications": len(runs),
        "cycle_s": [sum(r.seconds for r in c) for c in cycles],
        "cert_ms": ms,
        "cert_ms_p90_samples_beyond": len(runs) - math.ceil(0.9 * len(runs)),
    }
    return runs, metrics, verdict, extra


def traced(bench: Bench, args) -> tuple:
    import inputs
    import layers

    # Each untraced cycle is followed by the same cycle traced, so that a
    # change in machine load hits both sides of the overhead alike.
    tracer = layers.Tracer()
    traced_runs: List[Run] = []

    def run_traced(cycle) -> None:
        tracer.install()
        try:
            for item in cycle:
                tracer.begin()
                traced_runs.append(bench.run(item))
                tracer.end()
        finally:
            tracer.uninstall()

    plain = [r for cycle in bench.timed(args.seconds, run_traced) for r in cycle]

    # Report bytes must not depend on the wrappers: compare every input.
    mismatched = [
        " ".join(p.item.argv) for p, t in zip(plain, traced_runs) if p.out != t.out
    ]

    # grid() peak memory, one input per ambient dimension, outside the timing.
    probes, seen = [], set()
    for item in bench.cycles[0]:
        builds_grid = item.command in ("verify-hopf", "build-example") or (
            item.command == "cko-run" and item.variant == "flat"
        )
        if builds_grid and item.n not in seen:
            seen.add(item.n)
            probes.append(item)
    memory_runs: List[Run] = []
    peak = layers.grid_peak_mb(lambda: memory_runs.extend(bench.run(i) for i in probes))

    metrics = layers.layer_metrics(tracer.certs)
    plain_ms = [1000.0 * r.seconds for r in plain]
    traced_ms = [1000.0 * r.seconds for r in traced_runs]
    sums_ms = [1000.0 * layers.layer_sum_s(c) for c in tracer.certs]
    median_cert = sorted(range(len(traced_ms)), key=traced_ms.__getitem__)[(len(traced_ms) - 1) // 2]
    all_runs = plain + traced_runs + memory_runs
    verdict = bench.judge(all_runs)
    verdict["incorrect"] += bench.judge([bench.warmup])["incorrect"]

    # Not part of the workload, so not in attempted or failed; a false
    # certificate here still makes the run incorrect.
    probe_runs = [bench.run(item) for item in inputs.full_range_probe(args.seed)]
    probe = bench.judge(probe_runs)
    verdict["incorrect"] += probe["incorrect"]
    metrics.update(
        {
            "hypersurface.grid_peak_mb": peak,
            "report.bytes": statistics.mean(len(r.out.encode()) for r in traced_runs),
            "cli.errors": statistics.mean(
                1.0 if (r.raised or "error:" in r.err) else 0.0 for r in traced_runs
            ),
            "trace.cert_ms_p50": statistics.median(traced_ms),
            "trace.untraced_cert_ms_p50": statistics.median(plain_ms),
            "trace.overhead_ms": statistics.median(traced_ms) - statistics.median(plain_ms),
            "trace.cert_ms_mean": statistics.mean(traced_ms),
            "trace.untraced_cert_ms_mean": statistics.mean(plain_ms),
            "trace.layer_sum_ms": statistics.mean(sums_ms),
            "trace.p50_layer_sum_ms": sums_ms[median_cert],
            "trace.spans_per_cert": len(tracer.spans) / len(traced_runs),
            "wrong_outcome_ratio": len(verdict["wrong"]) / len(all_runs),
            "full_range_wrong_ratio": len(probe["wrong"]) / len(probe_runs),
        }
    )
    if mismatched:
        verdict["incorrect"] += [f"traced report bytes differ: {m}" for m in mismatched]
    spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
            },
            fh,
            separators=(",", ":"),
        )
    extra = {
        "certifications": len(plain),
        "report_mismatches": len(mismatched),
        "grid_peak_inputs": [" ".join(i.argv) for i in probes],
        "full_range_probe": {"attempted": len(probe_runs), "wrong": probe["wrong"]},
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return all_runs, metrics, verdict, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopftwistor", "cli.py")):
        print(f"perfbench: no hopftwistor sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    fix_environment()
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    with tempfile.TemporaryDirectory(dir=WORK) as folder:
        bench = Bench(args.workload, args.seed, folder)
        if args.trace:
            runs, values, verdict, extra = traced(bench, args)
            declared = spec["per_layer"]
        else:
            runs, values, verdict, extra = end_to_end(bench, args)
            declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not verdict["incorrect"],
        "attempted": len(runs),
        "failed": len(verdict["wrong"]),
        "metrics": metrics,
    }
    summary = {
        "environment": environment(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "wrong_outcome_ratio": len(verdict["wrong"]) / len(runs),
        **extra,
        "wrong": verdict["wrong"][:10],
        "incorrect": verdict["incorrect"][:10],
        "result": result,
    }
    with open(
        os.path.join(WORK, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(summary, fh, indent=1)
    print("perfbench " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

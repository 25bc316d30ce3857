"""Per-layer tracing from outside the program, for the traced run only.

Tracer.install() replaces every public function of each hopftwistor module
(and every public method and __post_init__ of its public classes) with a
timing wrapper, in every module namespace that binds it, plus
numpy.linalg.lstsq/svd/eigh for the LAPACK layer.  No source file changes;
uninstall() puts the originals back.

Coarse boundaries (SPANS) record a span (name, start, end, parent) kept in
memory and written at the end.  Every other wrapped call is a leaf and only
adds to a call count and an accumulated time, because per-vector calls run
tens of thousands of times per certification.  Both kinds keep self time:
a call's duration minus the durations of the wrapped calls inside it, so the
self times of one certification sum to its duration.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
import types
from typing import Callable, Dict, List

import numpy as np

import hopftwistor
from hopftwistor import cli, fibration, generator, hypersurface, linalg, report, sampling, twistor

MODULES = (cli, report, hypersurface, generator, linalg, fibration, twistor, sampling)
LAPACK = ("lstsq", "svd", "eigh")
GRID = "hypersurface.HypersurfacePatch.grid"
BUILDERS = {
    "hypersurface.build_patch",
    "hypersurface.tube_complex",
    "hypersurface.tube_real",
    "hypersurface.horosphere",
    "generator.orbit_patch",
    "generator.orbit_patch_from_omega",
    "generator.orbit_patch_from_form",
}
SPANS = BUILDERS | {
    "cli.main",
    GRID,
    "hypersurface.verify_hopf",
    "generator.verify_hopf_two",
    "hypersurface.shape_operator",
    "linalg.matrix_exp",
    "generator.product_group_map",
    "generator.maurer_cartan_residual",
    "report.envelope_to_json",
    "report.envelope_to_csv",
}


def _short(module: types.ModuleType) -> str:
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    """Spans and per-certification call statistics of one traced run."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent span index or -1]
        self.certs: List[Dict[str, list]] = []  # per certification: name -> [calls, self s, total s]
        self._open: List[list] = []  # child-time accumulators of the calls in progress
        self._open_spans: List[int] = []
        self._stats: Dict[str, list] = {}
        self._undo: List[tuple] = []

    # ------------------------------------------------------------ wrappers

    def wrap(self, name: str, fn: Callable, span: bool) -> Callable:
        clock = time.perf_counter
        opened = self._open
        spans = self.spans
        open_spans = self._open_spans
        tracer = self

        def traced(*args, **kwargs):
            if span:
                record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
                open_spans.append(len(spans))
                spans.append(record)
            child = [0.0]
            opened.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                duration = end - start
                if opened:
                    opened[-1][0] += duration
                entry = tracer._stats.get(name)
                if entry is None:
                    entry = tracer._stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - child[0]
                entry[2] += duration
                if span:
                    open_spans.pop()
                    record[1] = start
                    record[2] = end

        functools.update_wrapper(traced, fn)
        traced.__perfbench__ = True
        return traced

    def _builder(self, name: str, fn: Callable) -> Callable:
        """Span for a patch builder that also counts the patch's chart calls."""
        traced = self.wrap(name, fn, span=True)

        def build(*args, **kwargs):
            patch = traced(*args, **kwargs)
            for attr in ("eval_func", "normal_func"):
                func = getattr(patch, attr)
                if not getattr(func, "__perfbench__", False):
                    layer = func.__module__.rsplit(".", 1)[1]
                    object.__setattr__(patch, attr, self.wrap(f"{layer}.chart_eval", func, False))
            return patch

        functools.update_wrapper(build, fn)
        return build

    # --------------------------------------------------------- installation

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = (hopftwistor,) + MODULES
        for module in MODULES:
            layer = _short(module)
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{layer}.{public}"
                    if name in BUILDERS:
                        wrapped = self._builder(name, obj)
                    else:
                        wrapped = self.wrap(name, obj, name in SPANS)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, attr, wrapped)
                elif isinstance(obj, type):
                    for attr, value in list(vars(obj).items()):
                        if isinstance(value, types.FunctionType) and (
                            not attr.startswith("_") or attr == "__post_init__"
                        ):
                            name = f"{layer}.{public}.{attr}"
                            self._set(obj, attr, self.wrap(name, value, name in SPANS))
        for attr in LAPACK:
            self._set(np.linalg, attr, self.wrap(f"lapack.{attr}", getattr(np.linalg, attr), False))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------- certifications

    def begin(self) -> None:
        self._stats = {}

    def end(self) -> None:
        self.certs.append(self._stats)
        self._stats = {}


def grid_peak_mb(run: Callable[[], None]) -> float:
    """Peak traced allocation of any grid() call made by run(), in MB.

    tracemalloc runs only inside grid(), and only here, outside the timed
    phases, because it slows every allocation it sees.
    """
    original = hypersurface.HypersurfacePatch.grid
    peaks = [0]

    def measured(self, *args, **kwargs):
        tracemalloc.start()
        try:
            return original(self, *args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    hypersurface.HypersurfacePatch.grid = measured
    try:
        run()
    finally:
        hypersurface.HypersurfacePatch.grid = original
    return max(peaks) / 2**20


# --------------------------------------------------------------- metrics

def _select(prefixes) -> Callable[[str], bool]:
    return lambda name: any(name == p or name.startswith(p + ".") for p in prefixes)


_VALIDATE = (
    "linalg.GroupElement.__post_init__",
    "linalg.AlgebraElement.__post_init__",
    "linalg.group_residual",
    "linalg.algebra_residual",
    "linalg.validate_group",
    "linalg.validate_algebra",
)
_BUILD = ("hypersurface.build_patch", "hypersurface.tube_complex", "hypersurface.tube_real", "hypersurface.horosphere")
_VERIFY = ("hypersurface.verify_hopf", "generator.verify_hopf_two")

# metric: (statistic, wrapped names or layer prefixes), as a mean per
# certification; "self" sums self time in seconds, "calls" counts calls.
# Units and directions are declared in BENCHMARK.json.
LAYER_TABLE = {
    "hypersurface.grid_s": ("self", (GRID,)),
    "hypersurface.build_s": ("self", _BUILD),
    "twistor.lift_check_s": ("self", ("twistor.lift_coefficients", "twistor.is_horizontal")),
    "hypersurface.shape_operator_s": ("self", ("hypersurface.shape_operator",)),
    "hypersurface.shape_operator_calls": ("calls", ("hypersurface.shape_operator",)),
    "hypersurface.chart_evals": ("calls", ("hypersurface.chart_eval", "generator.chart_eval")),
    "linalg.matrix_exp_s": ("self", ("linalg.matrix_exp",)),
    "linalg.matrix_exp_calls": ("calls", ("linalg.matrix_exp",)),
    "linalg.validate_s": ("self", _VALIDATE),
    "linalg.validations": ("calls", _VALIDATE[:2]),
    "linalg.herm_form_s": ("self", ("linalg.herm_form", "linalg.real_form", "linalg.pair_form")),
    "linalg.herm_form_calls": ("calls", ("linalg.herm_form",)),
    "fibration.project_s": ("self", ("fibration.horizontal_part", "fibration.tangent_project_ads")),
    "fibration.project_calls": ("calls", ("fibration.horizontal_part", "fibration.tangent_project_ads")),
    "twistor.validate_s": ("self", ("twistor.StiefelPoint.__post_init__", "twistor.TangentPair.__post_init__")),
    "twistor.stiefel_validations": ("calls", ("twistor.StiefelPoint.__post_init__",)),
    "generator.mc_residual_s": ("self", ("generator.maurer_cartan_residual",)),
    "generator.mc_residual_calls": ("calls", ("generator.maurer_cartan_residual",)),
    "generator.product_map_s": ("self", ("generator.product_group_map",)),
    "generator.product_map_calls": ("calls", ("generator.product_group_map",)),
    "generator.form_value_calls": ("calls", ("generator.form_value",)),
    "lapack.s": ("self", tuple(f"lapack.{a}" for a in LAPACK)),
    "lapack.lstsq_calls": ("calls", ("lapack.lstsq",)),
    "lapack.svd_calls": ("calls", ("lapack.svd",)),
    "lapack.eigh_calls": ("calls", ("lapack.eigh",)),
    "fibration.curvature_s": ("self", ("fibration.curve_curvature",)),
    "twistor.parallel_s": ("self", ("twistor.parallel_shift_residual",)),
    "report.serialize_s": ("self", ("report.envelope_to_json", "report.envelope_to_csv", "report.canonical_json")),
    "report.checks": ("calls", ("report.make_check",)),
    "cli.other_s": ("self", ("cli",)),
    "sampling.draw_s": ("self", ("sampling",)),
}
# Self time per module.  With cli.other_s, sampling.draw_s and lapack.s these
# cover every wrapped call, so they sum to the traced certification time.
for _layer in ("report", "hypersurface", "generator", "linalg", "fibration", "twistor"):
    LAYER_TABLE[f"{_layer}.self_s"] = ("self", (_layer,))
_FIELD = {"calls": 0, "self": 1}


def _sum(cert: Dict[str, list], names, field: int) -> float:
    chosen = _select(names)
    return sum(entry[field] for key, entry in cert.items() if chosen(key))


def layer_metrics(certs: List[Dict[str, list]]) -> Dict[str, float]:
    """Mean per certification of every LAYER_TABLE entry, plus ratios."""
    count = len(certs)
    out = {}
    for metric, (stat, names) in LAYER_TABLE.items():
        out[metric] = sum(_sum(c, names, _FIELD[stat]) for c in certs) / count
    points = sum(_sum(c, ("hypersurface.shape_operator",), 0) for c in certs)
    verify = sum(_sum(c, _VERIFY, 2) for c in certs)
    out["hypersurface.point_ms"] = 1000.0 * verify / points if points else 0.0
    patches = sum(_sum(c, ("generator.orbit_patch_from_form",), 0) for c in certs)
    mc_calls = sum(_sum(c, ("generator.maurer_cartan_residual",), 0) for c in certs)
    out["generator.mc_per_patch"] = mc_calls / patches if patches else 0.0
    return out


def layer_sum_s(cert: Dict[str, list]) -> float:
    """Self time of every layer in one certification: its traced duration."""
    return sum(entry[1] for entry in cert.values())

"""Seeded inputs for the certification benchmark.

Every workload is a list of cycles.  A cycle fixes the command mix, so the
share of each command, ambient dimension and family is the same on every
seed; the seed only draws the continuous parameters (radius, subspace
dimension, generator constants, the one-parameter seed).  The timed loop
runs whole cycles, which keeps the mix exact in every run.

The continuous parameters that set a certification's cost (the radius, k,
the size of the generator constants) are stratified across cycles: slot s
of cycle c draws the base-2 van der Corput point of c, rotated by a seeded
offset of the slot.  Any 2^j leading cycles then cover each slot's range
evenly, so the cost of a run does not hinge on which values its seed drew.

The program sees only the argv built here and, for the orbit workload, the
constants files written here.  The expected outcome of each input comes from
the geometry: valid classical and flat inputs must certify, non-flat forms
must not.  The check-name sets expected for each command variant were
recorded once from the baseline commit (record_checks.py).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

FAMILIES = ("plus", "minus", "zero")
R_RANGE = (0.3, 2.5)

# Distinct cycles drawn per run.  A run that finishes all of them starts
# over; at the baseline commit a 30 s run uses at most 10 of them.
CYCLES = 32

# The program reports the pairing check only when some principal curvature
# lam has |2 lam - mu| above this gap (hypersurface.PAIRING_DEGENERATE_TOL).
# The benchmark keeps its own copy so that the closed form says whether a
# tube must report "pairing-max".  Within AMBIGUOUS of the gap either counts.
PAIRING_GAP = 1e-3
AMBIGUOUS = 1e-4
PAIRING_CHECK = "pairing-max"

# The 1-norm of a flat form's Y, per row of Y: uniform on [-1, 1] entries
# give about 0.5 to 0.9 per row at n = 3..6.
Y_NORM1_PER_ROW = (0.4, 0.9)

# Non-flat draws must miss flatness by a wide margin (the program's flatness
# tolerance is 1e-12).
NONFLAT_MARGIN = 1e-2

@dataclass(frozen=True)
class Item:
    """One certification: the argv the program sees and what it must report."""

    argv: Tuple[str, ...]
    command: str
    n: int
    variant: str
    fmt: str = "json"
    s: Optional[str] = None
    r: Optional[float] = None
    k: Optional[int] = None
    seed: Optional[int] = None
    constants: Optional[dict] = None
    expect_certified: bool = True
    closed_mu: Optional[float] = None
    closed_kappa: Optional[float] = None
    # Whether the report must carry the pairing check; None accepts both.
    pairs: Optional[bool] = True


def closed_mu(family: str, r: float) -> float:
    """Structure eigenvalue for the normal e^{i theta} i T (Berndt 1989)."""
    if family == "plus":
        return -2.0 / math.tanh(2.0 * r)
    if family == "minus":
        return -2.0 * math.tanh(2.0 * r)
    return -2.0


def closed_kappa(family: str, r: float) -> float:
    """Geodesic curvature of the projected model curve."""
    if family == "plus":
        return abs(2.0 / math.tanh(2.0 * r))
    if family == "minus":
        return abs(2.0 * math.tanh(2.0 * r))
    return 2.0


def _pairing_gap(family: str, r: float) -> float:
    """Smallest |2 lam - mu| over the closed-form principal curvatures."""
    if family == "zero":
        return 0.0
    t = math.tanh(r)
    mu = closed_mu(family, r)
    return min(abs(2.0 * lam - mu) for lam in (-t, -1.0 / t))


def _classical(command: str, n: int, s: str, r: float, k: int, fmt: str) -> Item:
    argv = [command, "--n", str(n), "--s", s, "--r", repr(r)]
    if s == "plus":
        argv += ["--k", str(k)]
    if fmt != "json":
        argv += ["--format", fmt]
    gap = _pairing_gap(s, r)
    pairs = None if abs(gap - PAIRING_GAP) < AMBIGUOUS else gap > PAIRING_GAP
    return Item(
        argv=tuple(argv),
        command=command,
        n=n,
        variant=s,
        fmt=fmt,
        s=s,
        r=r,
        k=k if s == "plus" else 0,
        closed_mu=closed_mu(s, r),
        pairs=pairs,
    )


def _curves(n: int, s: str, r: float, seed: int, fmt: str) -> Item:
    argv = ["verify-curves", "--n", str(n), "--s", s, "--r", repr(r), "--seed", str(seed)]
    if fmt != "json":
        argv += ["--format", fmt]
    return Item(
        argv=tuple(argv),
        command="verify-curves",
        n=n,
        variant=s,
        fmt=fmt,
        s=s,
        r=r,
        k=0,
        seed=seed,
        closed_kappa=closed_kappa(s, r),
    )


def van_der_corput(i: int) -> float:
    """Base-2 radical inverse of i."""
    x, f = 0.0, 0.5
    while i:
        if i & 1:
            x += f
        i >>= 1
        f /= 2.0
    return x


class Draws:
    """Seeded draws for one workload; uniform() is stratified across cycles."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.offsets: List[float] = []
        self.cycle = 0
        self.slot = 0

    def start(self, cycle: int) -> None:
        self.cycle, self.slot = cycle, 0

    def uniform(self, lo: float, hi: float) -> float:
        if self.slot == len(self.offsets):
            self.offsets.append(float(self.rng.uniform()))
        u = (van_der_corput(self.cycle) + self.offsets[self.slot]) % 1.0
        self.slot += 1
        return lo + u * (hi - lo)

    def r(self) -> float:
        return self.uniform(*R_RANGE)

    def k(self, n: int) -> int:
        return min(int(self.uniform(0.0, n)), n - 1)


def _hopf_n6(draws: Draws) -> List[Item]:
    n = 6
    return [_classical("verify-hopf", n, s, draws.r(), draws.k(n), "json") for s in FAMILIES]


def _mixed_small(draws: Draws, start: int) -> List[Item]:
    # n = 2 three times per cycle: that puts the median in the middle of the
    # n = 2 horosphere and verify-hopf tube runs, away from the 5 ms
    # verify-curves runs and the slower build-example tubes, and the 90th
    # percentile inside the n = 2 minus-family runs.
    items: List[Item] = []
    for n in (2, 2, 2, 4):
        for s in FAMILIES:
            for command in ("verify-curves", "build-example", "verify-hopf"):
                fmt = "json" if (start + len(items)) % 2 == 0 else "csv"
                r = draws.r()
                if command == "verify-curves":
                    seed = int(draws.rng.integers(0, 2**31))
                    items.append(_curves(n, s, r, seed, fmt))
                else:
                    items.append(_classical(command, n, s, r, draws.k(n), fmt))
    return items


def _flat_form(rng: np.random.Generator, n: int, norm1: float) -> dict:
    """y0 = y1 = Y, every other block zero: all nine structure equations
    vanish exactly, and Y^T Y is symmetric, so the wedge constraint holds.
    Y is uniform on [-1, 1] entrywise, rescaled to the given 1-norm (the
    norm that sets matrix_exp's squarings)."""
    m = n - 1
    y = rng.uniform(-1.0, 1.0, size=(m, m))
    y *= norm1 / np.abs(y).sum(axis=0).max()
    zeros = np.zeros((m, m))
    return {
        "kind": "block-form",
        "alpha0": [0.0] * m,
        "alpha1": [0.0] * m,
        "x_form": zeros.tolist(),
        "y0": y.tolist(),
        "y1": y.tolist(),
        "w1": np.zeros((m, m, m)).tolist(),
        "w2": np.zeros((m, m, m)).tolist(),
    }


def xy_flatness_defect(doc: dict) -> float:
    """max over pairs of |2 (x_i . Y_j - x_j . Y_i)|: the first structure
    equation, evaluated independently of the program."""
    x = np.array(doc["x_form"], dtype=float)
    y = np.array(doc["y0"], dtype=float)
    gram = x.T @ y
    return float(np.abs(2.0 * (gram - gram.T)).max())


def _nonflat_form(rng: np.random.Generator, n: int) -> dict:
    m = n - 1
    while True:
        doc = _flat_form(rng, n, Y_NORM1_PER_ROW[1] * (n - 1))
        doc["x_form"] = rng.uniform(-1.0, 1.0, size=(m, m)).tolist()
        if xy_flatness_defect(doc) > NONFLAT_MARGIN:
            return doc


def _orbit_forms(draws: Draws, cycle: int, folder: str) -> List[Item]:
    # Per cycle: two flat cko-runs at each n = 3..6, two flat mc-checks, two
    # one-parameter cko-runs and two non-flat inputs (one cko-run, one
    # mc-check), so 2 of 14 inputs are non-flat.  The median falls inside the
    # n = 3 cko-runs and the 90th percentile inside the n = 6 ones.
    items: List[Item] = []

    def form_item(command: str, n: int, flat: bool) -> Item:
        if flat:
            doc = _flat_form(draws.rng, n, draws.uniform(*Y_NORM1_PER_ROW) * (n - 1))
        else:
            doc = _nonflat_form(draws.rng, n)
        path = os.path.join(folder, f"c{cycle}-{len(items)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        kind = "flat" if flat else "nonflat"
        return Item(
            argv=(command, "--constants", path),
            command=command,
            n=n,
            variant=kind,
            constants=doc,
            expect_certified=flat,
            closed_mu=2.0 if (flat and command == "cko-run") else None,
        )

    for n in (3, 4, 5, 6):
        for _ in range(2):
            items.append(form_item("cko-run", n, True))
    for j in range(2):
        items.append(form_item("mc-check", 3 + (2 * cycle + j) % 4, True))
    for _ in range(2):
        seed = int(draws.rng.integers(0, 2**31))
        items.append(
            Item(
                argv=("cko-run", "--n", "2", "--seed", str(seed)),
                command="cko-run",
                n=2,
                variant="one-param",
                seed=seed,
                closed_mu=2.0,
            )
        )
    items.append(form_item("cko-run", 3 + cycle % 4, False))
    items.append(form_item("mc-check", 3 + (cycle + 2) % 4, False))
    return items


WORKLOADS = ("hopf-n6", "mixed-small", "orbit-forms")


def generate(workload: str, seed: int, folder: str) -> List[List[Item]]:
    """CYCLES cycles of inputs for a workload, drawn from the seed alone."""
    draws = Draws(np.random.default_rng([seed, WORKLOADS.index(workload)]))
    cycles: List[List[Item]] = []
    start = 0
    for c in range(CYCLES):
        draws.start(c)
        if workload == "hopf-n6":
            cycle = _hopf_n6(draws)
        elif workload == "mixed-small":
            cycle = _mixed_small(draws, start)
        else:
            cycle = _orbit_forms(draws, c, folder)
        start += len(cycle)
        cycles.append(cycle)
    return cycles


# The full-range probe also draws the radii the timed workloads leave out:
# [0.02, 5] holds the tubes that ROADMAP item 4 lists as failing at the
# baseline commit.
PROBE_R_RANGE = (0.02, 5.0)
PROBE_STRATA = 8


def full_range_probe(seed: int) -> List[Item]:
    """verify-hopf at n = 2 in each family, one radius in each of
    PROBE_STRATA equal strata of PROBE_R_RANGE.  It runs outside the timed
    phases and keeps the known failures in view: its wrong-outcome ratio is
    nonzero until they are fixed."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    lo, hi = PROBE_R_RANGE
    items: List[Item] = []
    for i in range(PROBE_STRATA):
        for s in FAMILIES:
            r = lo + (i + float(rng.uniform())) / PROBE_STRATA * (hi - lo)
            items.append(_classical("verify-hopf", 2, s, r, int(rng.integers(0, 2)), "json"))
    return items

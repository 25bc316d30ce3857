"""Output checks for the certification benchmark.

Each report is judged twice:

* outcome: (exit code, certified flag, set of check names) against the
  outcome the geometry fixes for the input.  Any difference, or an error
  raised out of the program, makes the certification wrong; wrong
  certifications are the benchmark's failed operations.
* correctness: the report parses, its exit code, certified flag and pass
  column agree, its echoed configuration is the input, and it issues no false
  certificate: a certified report must carry the closed-form structure
  eigenvalue (or curve curvature) within MU_TOL, checked here independently,
  and a non-flat form must never certify.  A conservative rejection of valid
  geometry is a wrong outcome but not an incorrect report.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import FrozenSet, List, Optional, Tuple

from inputs import PAIRING_CHECK, Item

# The baseline commit's tolerances for the structure eigenvalue and for curve
# curvature.  Fixed here so that a looser tolerance in the program cannot
# turn a wrong value into a certificate.
MU_TOL = 1e-4
KAPPA_TOL = 1e-4

CSV_HEADER = ["name", "grid_point", "index", "value", "expected", "tolerance", "pass"]

_EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_checks.json")


def load_expected() -> dict:
    """Check-name sets recorded from the baseline commit, keyed command|variant."""
    with open(_EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return {key: frozenset(names) for key, names in json.load(fh).items()}


def base_name(flat: str) -> str:
    """Strip the "[index]" and "@grid_point" decorations of a JSON check name."""
    return flat.split("@", 1)[0].split("[", 1)[0]


class Report:
    """The rows of one report, in either output format."""

    def __init__(self, fmt: str, text: str):
        self.config: Optional[dict] = None
        self.rows: List[Tuple[str, float, bool]] = []
        if fmt == "json":
            doc = json.loads(text)
            for c in doc["checks"]:
                self.rows.append((base_name(c["name"]), float(c["value"]), c["pass"]))
            self.config = doc["config"]
            self.certified = doc["certified"]
            if self.certified is not all(p for _, _, p in self.rows):
                raise ValueError("certified flag disagrees with the pass column")
        else:
            table = list(csv.reader(io.StringIO(text)))
            if not table or table[0] != CSV_HEADER:
                raise ValueError("CSV header differs")
            for row in table[1:]:
                if len(row) != len(CSV_HEADER) or row[6] not in ("true", "false"):
                    raise ValueError(f"malformed CSV row {row!r}")
                self.rows.append((row[0], float(row[3]), row[6] == "true"))
            self.certified = all(p for _, _, p in self.rows)
        if not self.rows:
            raise ValueError("report has no checks")

    @property
    def names(self) -> FrozenSet[str]:
        return frozenset(name for name, _, _ in self.rows)

    def values(self, name: str) -> List[float]:
        return [v for n, v, _ in self.rows if n == name]


def _config_mismatch(item: Item, config: dict) -> Optional[str]:
    want = {"command": item.command, "format": item.fmt}
    if item.constants is not None:
        want["constants"] = item.constants
    elif item.variant != "one-param":
        want.update(n=item.n, s=item.s, r=item.r, k=item.k)
    if item.seed is not None:
        want["seed"] = item.seed
    for key, value in want.items():
        if config.get(key) != value:
            return f"config {key} = {config.get(key)!r}, input {value!r}"
    return None


def _false_certificate(item: Item, rep: Report) -> Optional[str]:
    if not rep.certified:
        return None
    if not item.expect_certified:
        return "non-flat form certified"
    if item.closed_mu is not None:
        mus = rep.values("mu")
        if not mus or any(abs(v - item.closed_mu) > MU_TOL for v in mus):
            return f"certified with mu {mus} against closed form {item.closed_mu!r}"
    if item.closed_kappa is not None:
        kappas = rep.values("curvature")
        if not kappas or any(abs(v - item.closed_kappa) > KAPPA_TOL for v in kappas):
            return f"certified with curvature off the closed form {item.closed_kappa!r}"
    return None


def evaluate(
    item: Item, expected: dict, rc: Optional[int], out: str, raised: Optional[str]
) -> Tuple[bool, bool, str]:
    """(wrong outcome, correct report, reason) for one certification."""
    if raised is not None:
        return True, True, f"raised {raised}"
    try:
        rep = Report(item.fmt, out)
    except (ValueError, KeyError, TypeError) as exc:
        return True, False, f"unreadable report (exit {rc}): {exc}"
    if rc != (0 if rep.certified else 1):
        return True, False, f"exit code {rc} with certified={rep.certified}"
    if rep.config is not None:
        mismatch = _config_mismatch(item, rep.config)
        if mismatch:
            return True, False, mismatch
    false_cert = _false_certificate(item, rep)
    if false_cert:
        return True, False, false_cert
    want = expected[f"{item.command}|{item.variant}"]
    allowed = {want}
    if PAIRING_CHECK in want and item.pairs is not True:
        allowed.add(want - {PAIRING_CHECK})
        if item.pairs is False:
            allowed.remove(want)
    if rep.names not in allowed:
        return True, True, (
            f"check names differ: missing {sorted(want - rep.names)}, "
            f"extra {sorted(rep.names - want)}"
        )
    if rep.certified != item.expect_certified:
        failing = sorted({n for n, _, p in rep.rows if not p})
        return True, True, f"certified={rep.certified}, failing {failing}"
    return False, True, ""

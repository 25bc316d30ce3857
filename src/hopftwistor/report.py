"""Machine-readable run reports.

One flat schema for every command: an envelope with a sorted list of checks
{name, value, expected, tolerance, pass}.  Numbers are serialized with 17
significant digits so identical runs produce byte-identical output; entries
are sorted by grid-point key then check name, which makes the output
independent of evaluation order.  Timing never enters the payload.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import List, Optional

import numpy as np

from .errors import NonFiniteCheckError

ARTIFACT_VERSION = "0.1.0"

__all__ = [
    "ARTIFACT_VERSION",
    "make_check",
    "make_envelope",
    "canonical_json",
    "envelope_to_json",
    "envelope_to_csv",
]


def _as_float(x, label: str) -> float:
    f = float(x)
    if not math.isfinite(f):
        raise NonFiniteCheckError(f"non-finite {label} in report: {f}")
    return f


def make_check(
    name: str,
    value,
    expected,
    tolerance,
    passed: Optional[bool] = None,
    grid_point: str = "",
    index: Optional[int] = None,
) -> dict:
    """One verification record.  passed defaults to the tolerance test.

    Raises NonFiniteCheckError (a ValueError) for a non-finite value,
    expected value or tolerance."""
    value = _as_float(value, f"value for {name!r}")
    expected = _as_float(expected, f"expected for {name!r}")
    tolerance = _as_float(tolerance, f"tolerance for {name!r}")
    if passed is None:
        passed = abs(value - expected) <= tolerance
    return {
        "name": name,
        "grid_point": grid_point,
        "index": index,
        "value": value,
        "expected": expected,
        "tolerance": tolerance,
        "pass": bool(passed),
    }


def make_envelope(command: str, config: dict, checks: List[dict]) -> dict:
    ordered = sorted(
        checks,
        key=lambda c: (
            c["grid_point"],
            c["name"],
            -1 if c["index"] is None else c["index"],
        ),
    )
    return {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "config": config,
        "checks": ordered,
        "certified": all(c["pass"] for c in ordered),
    }


def _check_name(check: dict) -> str:
    name = check["name"]
    if check["index"] is not None:
        name = f"{name}[{check['index']}]"
    if check["grid_point"]:
        name = f"{name}@{check['grid_point']}"
    return name


def _write(obj, out: List[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            raise ValueError("non-finite number in report")
        out.append(format(f, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _write(val, out)
        out.append("]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: List[str] = []
    _write(obj, out)
    out.append("\n")
    return "".join(out)


def envelope_to_json(envelope: dict) -> str:
    flat = {
        "artifact_version": envelope["artifact_version"],
        "command": envelope["command"],
        "config": envelope["config"],
        "checks": [
            {
                "name": _check_name(c),
                "value": c["value"],
                "expected": c["expected"],
                "tolerance": c["tolerance"],
                "pass": c["pass"],
            }
            for c in envelope["checks"]
        ],
        "certified": envelope["certified"],
    }
    return canonical_json(flat)


def envelope_to_csv(envelope: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["name", "grid_point", "index", "value", "expected", "tolerance", "pass"]
    )
    for c in envelope["checks"]:
        writer.writerow(
            [
                c["name"],
                c["grid_point"],
                "" if c["index"] is None else str(c["index"]),
                format(c["value"], ".17g"),
                format(c["expected"], ".17g"),
                format(c["tolerance"], ".17g"),
                "true" if c["pass"] else "false",
            ]
        )
    return buf.getvalue()

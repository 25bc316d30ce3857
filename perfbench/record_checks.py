"""Record the check-name set of every command variant the benchmark runs.

Run once, from the root of a checkout of the commit whose check names are
the reference, and commit the output:

    python3 perfbench/record_checks.py

It writes perfbench/expected_checks.json: for each "command|variant" key the
sorted base names (no grid point, no index) of the checks the command
reports.  One certified input per variant suffices because the names depend
on the variant only, not on n, k or the radius; the script asserts that by
recording every variant at two dimensions.  The one exception, the pairing
check that tubes drop when every principal pair is exceptional, is decided
from the closed form in inputs.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hopftwistor import cli  # noqa: E402

import inputs  # noqa: E402
from checks import Report  # noqa: E402


def _names(item: inputs.Item) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(item.argv))
    report = Report(item.fmt, out.getvalue())
    if report.certified != item.expect_certified:
        raise SystemExit(f"{' '.join(item.argv)}: unexpected outcome, not recorded")
    return sorted(report.names)


def main() -> int:
    table = {}
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as folder:
        reps = []
        for n in (2, 4):
            for s in inputs.FAMILIES:
                reps.append(inputs._curves(n, s, 0.5, 0, "json"))
                for command in ("build-example", "verify-hopf"):
                    reps.append(inputs._classical(command, n, s, 0.5, 1, "json"))
        draws = inputs.Draws(np.random.default_rng(0))
        for c in range(2):
            draws.start(c)
            reps += inputs._orbit_forms(draws, c, folder)
        for item in reps:
            key = f"{item.command}|{item.variant}"
            names = _names(item)
            if table.setdefault(key, names) != names:
                raise SystemExit(f"check names of {key} depend on the input")
    with open(os.path.join(HERE, "expected_checks.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

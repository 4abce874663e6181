"""Rewrite ``known_answers.json``: the expected verdict of every check, and
the states the workload builds, for the default seed at full size.

    python3 bench/refresh_known.py

Run it only when the workloads themselves change.  A change to the
toolkit must leave these answers standing: they are what a faster
enumeration, a rewritten trace search or a merged kernel is held to.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def known_answers() -> dict:
    out = {}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
            plan = workloads.build(name, workloads.DEFAULT_SEED, "full", Path(work))
            built = plan.built_states + sum(c.states(c.run()) for c in plan.checks if c.states)
            out[name] = {"answers": plan.reference(), "built_states": built}
    return out


if __name__ == "__main__":
    with open(reference.KNOWN_ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(known_answers(), fh, indent=1, sort_keys=True)
        fh.write("\n")

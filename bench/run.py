#!/usr/bin/env python3
"""pictomata benchmark: time to a verified verdict on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the toolkit is imported from ``src/``.  The
seed alone determines the inputs.  Set-up (generating inputs, building
machines and constructions, writing CLI fixture files) runs several times
and its median is ``setup_s``.  The expected verdicts are then fixed
outside the timed section: committed in ``known_answers.json`` for the
default seed, recomputed by ``reference.py`` for any other seed.  The
timed section repeats the workload's whole check set until ``--seconds``
have passed, timing each check and comparing its verdict with the
expected one every time.  Timings are scaled to a nominal machine speed
gauged between checks (``speed.py``); the unscaled figures are printed
as well.

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` spends half the time untraced, then runs set-up and one pass
over the checks with span wrappers installed (``spans.py``) and prints the
per-layer metrics, including the tracing overhead and the time no layer
span covers; ``--spans FILE`` also writes the raw spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-up is repeated at least this many times, and until it has taken
#: SETUP_MIN_S in total (at most SETUP_MAX_REPS times), so that its median
#: is steady even when one set-up takes milliseconds.
SETUP_REPS = 5
SETUP_MAX_REPS = 25
SETUP_MIN_S = 1.0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Outcomes:
    """Running tally of check executions against expected verdicts."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.defects = 0
        self._reported: set[str] = set()

    def record(self, check, expected, raw, error) -> None:
        self.attempted += 1
        if error is None:
            if check.verdict(raw) == expected:
                self.ok += 1
                return
            self.failed += 1
            self._report(check.cid, f"verdict {check.verdict(raw)!r} != expected {expected!r}")
        elif check.defect is not None and isinstance(error, check.defect):
            self.defects += 1
        else:
            self.failed += 1
            self._report(check.cid, "".join(traceback.format_exception(error)).rstrip())

    def _report(self, cid: str, message: str) -> None:
        if cid not in self._reported:
            self._reported.add(cid)
            print(f"check {cid} failed: {message}", file=sys.stderr)


@contextlib.contextmanager
def collector_paused():
    """Automatic garbage collection off; ``timed`` collects after each call.

    Left on, a collection runs wherever allocation counts happen to
    trigger it, so one check can absorb a full collection on every pass:
    two identical copies of a workload then differ by a fifth.  Objects
    alive on entry are frozen, so the collections between calls only
    visit what the calls left behind.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def timed(fn):
    """Time one call, collecting its garbage afterwards, off the clock;
    returns (seconds, result, exception or None)."""
    t0 = time.perf_counter()
    try:
        raw = fn()
    except Exception as exc:  # reported per check; the run goes on
        dt, raw, error = time.perf_counter() - t0, None, exc
    else:
        dt, error = time.perf_counter() - t0, None
    gc.collect()
    return dt, raw, error


def set_up(workloads, workload, seed, size, work):
    """Build the plan repeatedly; returns (last plan, median seconds
    unscaled, speed factor)."""
    times = []
    plan = None
    gauge = speed.Gauge()
    with collector_paused():
        while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
            plan = None
            dt, plan, error = timed(lambda: workloads.build(workload, seed, size, work))
            if error is not None:
                raise error
            times.append(dt)
            gauge.tick()
    return plan, statistics.median(times), gauge.scale()


def timed_cycles(plan, expected, seconds, outcomes):
    """Repeat the check set until ``seconds`` have passed (at least once).

    Returns per-check lists of unscaled times, the speed factor of each
    pass, and the states built by the checks."""
    samples = [[] for _ in plan.checks]
    factors = []
    built = 0
    gauge = speed.Gauge()
    with collector_paused():
        deadline = time.perf_counter() + seconds
        while not factors or time.perf_counter() < deadline:
            for i, check in enumerate(plan.checks):
                dt, raw, error = timed(check.run)
                samples[i].append(dt)
                outcomes.record(check, expected[check.cid], raw, error)
                if not factors and check.states is not None and error is None:
                    built += check.states(raw)
                gauge.tick()
            factors.append(gauge.scale())
    return samples, factors, built


def timings(plan, samples, factors) -> dict:
    """Each check's median time stands for it, so a burst of load from
    elsewhere on the machine moves one sample, not the metric."""
    medians = [statistics.median(f * t for f, t in zip(factors, s)) for s in samples]
    words = sum(c.words for c in plan.checks)
    return {
        "inputs_per_s": words / sum(medians),
        "check_p50_ms": 1e3 * statistics.median(medians),
        "check_p90_ms": 1e3 * statistics.quantiles(medians, n=10, method="inclusive")[8],
    }


def traced_pass(workloads, tracer, workload, seed, size, work, expected, outcomes):
    """Set-up plus one pass over the checks, under the tracer; returns the
    wall time per traced check id and the traced inputs per second, scaled
    like the untraced figures."""
    walls = {}
    words = 0
    busy = 0.0
    gauge = speed.Gauge()
    with collector_paused():
        tracer.current_check = 0
        walls[0], plan, error = timed(lambda: workloads.build(workload, seed, size, work))
        if error is not None:
            raise error
        for i, check in enumerate(plan.checks, start=1):
            tracer.current_check = i
            dt, raw, error = timed(check.run)
            walls[i] = dt
            words += check.words
            busy += dt
            outcomes.record(check, expected[check.cid], raw, error)
            tracer.current_check = -1
            gauge.tick()
    return plan, walls, words / (busy * gauge.scale())


def measure(workload, seed, seconds, trace, size="full", spans_path=None, expected_override=None):
    """One benchmark run; returns the result object printed as JSON."""
    import reference
    import spans
    import workloads

    spec = _spec()
    outcomes = Outcomes()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        plan, setup_raw, setup_factor = set_up(workloads, workload, seed, size, work)
        known = None
        if expected_override is not None:
            expected = expected_override
        elif seed == workloads.DEFAULT_SEED and size == "full":
            known = reference.load_known(workload)
            expected = known["answers"]
        else:
            expected = plan.reference()
        budget = seconds / 2 if trace else seconds
        t0 = time.perf_counter()
        samples, factors, built = timed_cycles(plan, expected, budget, outcomes)
        elapsed = time.perf_counter() - t0
        e2e = {
            **timings(plan, samples, factors),
            "setup_s": setup_raw * setup_factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": outcomes.ok / outcomes.attempted,
            "built_states": plan.built_states + built,
        }
        unscaled = timings(plan, samples, [1.0] * len(factors))
        passes = len(factors)
        print(
            f"{workload} seed={seed}: {len(plan.checks)} checks x {passes} passes in {elapsed:.1f} s;"
            f" each check's time is its median over {passes} samples"
        )
        print(
            f"speed factors {min(factors):.3f}..{max(factors):.3f} (set-up {setup_factor:.3f}); unscaled:"
            + "".join(f" {k}={v:.6g}" for k, v in unscaled.items())
            + f" setup_s={setup_raw:.6g}"
        )
        if known is not None and known["built_states"] != e2e["built_states"]:
            print(f"note: built_states {e2e['built_states']} differs from the committed {known['built_states']}")
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_plan, walls, traced_rate = traced_pass(
                    workloads, tracer, workload, seed, size, work, expected, outcomes
                )
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(walls)
            metrics["trace.overhead_inputs_per_s"] = e2e["inputs_per_s"] - traced_rate
            if spans_path:
                names = ["setup"] + [c.cid for c in traced_plan.checks]
                tracer.write_spans(spans_path, names)
            wanted = spec["per_layer"]
        else:
            metrics = e2e
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"checks attempted={outcomes.attempted} ok={outcomes.ok} failed={outcomes.failed}"
          f" known-defect={outcomes.defects}")
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    return {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": result,
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in a process of its own so that its
    peak memory is its own; prints their metric lines, then one JSON line
    whose metric names carry the workload as a prefix."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="with --trace 1, write the raw spans to this file")
    args = parser.parse_args(argv)
    if not (SRC / "pictomata" / "__init__.py").is_file():
        print(f"error: toolkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all" and args.spans is None:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}"
              " (or 'all', without --spans)", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace, spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Machine-speed gauge: a fixed pure-Python loop timed between checks.

On a machine shared with other work, the speed at which Python runs can
drift by a quarter over tens of seconds: on a 2-vCPU shared Xeon VM, two
consecutive 15 s runs of one check set read 20k and 30k words/s.  Run
medians cannot remove a drift that outlasts the run.  So each pass's
timings are scaled by ``NOMINAL_S`` over the loop's median time during
that pass: a figure reads as it would on a machine on which the loop
takes ``NOMINAL_S``.  The loop does the set, dict and list work the
toolkit's searches do and never calls the toolkit, so a change to the
program moves the scaled figures while a change in machine speed does
not.
"""

import statistics
import time

#: Loop time at which scaled figures equal measured ones.
NOMINAL_S = 0.0025
#: Least time between two loop samples.
EVERY_S = 0.1

_GRAPH = {i: ((7 * i + 1) % 5003, (13 * i + 5) % 5003) for i in range(5003)}


def loop_seconds() -> float:
    """Time one breadth-first search over a fixed graph."""
    t0 = time.perf_counter()
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for y in _GRAPH[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return time.perf_counter() - t0


class Gauge:
    """Samples the loop at most every ``EVERY_S`` seconds between timed
    calls; ``scale`` turns the samples since its last call into a factor."""

    def __init__(self):
        self._times: list[float] = []
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self._times.append(loop_seconds())
            self._last = time.perf_counter()

    def scale(self) -> float:
        if not self._times:
            self._times.append(loop_seconds())
        factor = NOMINAL_S / statistics.median(self._times)
        self._times = []
        return factor

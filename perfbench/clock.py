"""A clock that reads seconds at a fixed reference speed of the host.

On a small shared machine the CPU's speed drifts by a quarter or more from
one second to the next, as other tenants come and go (a fixed pure-Python
loop, timed back to back for 20 s on a 2-core x86 host, took 23-35 ms in
its one-second medians). A fixed piece of pure-Python work, the probe, slows
down with the host by about the same share. It mixes integer arithmetic with
calls that split short paths, compare their components and update a dict,
the kinds of work hgrec's pure-Python paths do: an integer loop alone
tracked the call-heavy baselines poorly. The clock runs the probe when it is
read and a quarter second has passed since the last probe, and scales the
wall time since the previous reading by ``REFERENCE_PROBE_S / probe time``,
using the mean of the probes at both ends of the interval. A reading
excludes the probes' own time. Code that times a long step should read the
clock at its sub-steps too, so that probes fall inside it.

The result is in seconds as they would pass on a host where the probe takes
``REFERENCE_PROBE_S``. ``wall`` holds the raw seconds, probes excluded, as of
the last reading, and ``probes`` every probe time.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_PROBE_S = 0.010
PROBE_EVERY_S = 0.25
PATHS = [f"a{i % 13}/b{i % 7}/c{i % 5}/f{i}.c" for i in range(64)]


def _shared(x: str, y: str) -> float:
    a, b = x.split("/"), y.split("/")
    n = 0
    for p, q in zip(a, b):
        if p != q:
            break
        n += 1
    return n / max(len(a), len(b))


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    score = 0.0
    seen: dict[int, float] = {}
    for i in range(3_500):
        score += _shared(PATHS[i & 63], PATHS[(i * 7) & 63])
        seen[i & 255] = seen.get(i & 255, 0.0) + score
    return time.perf_counter() - start


class SpeedClock:
    def __init__(self):
        self.probes: list[float] = []
        self.wall = 0.0
        self._reading = 0.0
        self._factor = self._measure()
        self._mark = self._probed = time.perf_counter()

    def _measure(self) -> float:
        self.probes.append(probe())
        # The median of the last three damps a probe hit by an interrupt.
        return REFERENCE_PROBE_S / statistics.median(self.probes[-3:])

    def now(self) -> float:
        """Reference seconds since the clock was made, probes excluded."""
        t = time.perf_counter()
        factor, mark = self._factor, t
        if t - self._probed >= PROBE_EVERY_S:
            self._factor = self._measure()
            factor = (factor + self._factor) / 2
            mark = self._probed = time.perf_counter()
        self._reading += (t - self._mark) * factor
        self.wall += t - self._mark
        self._mark = mark
        return self._reading

"""Host-speed probe: times a fixed pure-Python task while the benchmark runs.

The benchmark's host is a shared VM whose speed drifts: the same sample
takes 1.3-1.8x longer from one minute to the next, with no steal time
recorded.  A fixed task timed at the same moments as the program slows down
with it, so the program's time scaled by the probe's speed reads the same
whatever the host is doing.  The probe is the benchmark's own code and does
not touch hyperarr, so a change to the package moves the program's time and
not the probe's.

Times are converted to reference seconds: the seconds the work would take on
a host where one probe takes PROBE_REF_S.  ``speed(durations)`` is the mean
of PROBE_REF_S / d over the probe durations d, that is the host's mean speed
over the moments probed, relative to the reference.

A Prober runs one probe every INTERVAL_S seconds of a timed window from a
SIGALRM handler, so the probes sample the host while the program runs; the
time they take is kept apart and taken out of the window.
"""

from __future__ import annotations

import gc
import signal
import time

# One probe's time on the reference host, about its time on a 2-vCPU Xeon VM.
PROBE_REF_S = 0.001
INTERVAL_S = 0.1
BURST = 8


def probe() -> int:
    """A fixed mix of interpreter work: int arithmetic, dicts, tuples, sets."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(1500):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        acc += (k * k) % 97
    seen = set()
    for i in range(300):
        t = tuple((i * j) % 31 for j in range(6))
        seen.add(frozenset(t))
        acc ^= hash(t)
    return acc + len(sorted(seen, key=len))


def timed_probe() -> float:
    """Seconds one probe takes, with the cyclic collector held off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def burst(n: int = BURST) -> list[float]:
    """n probes back to back, after one untimed warm-up probe."""
    probe()
    return [timed_probe() for _ in range(n)]


def speed(durations) -> float:
    """Mean host speed over the probes, relative to the reference host."""
    durations = list(durations)
    return sum(PROBE_REF_S / d for d in durations) / len(durations)


class Prober:
    """Probes the host every INTERVAL_S seconds between start() and stop()."""

    def __init__(self):
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.durations.append(timed_probe())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

"""Machine-speed correction: time measured in reference seconds.

The benchmark box is shared, and the speed of one core changes by up to a
factor of two from one second to the next (neighbours on the same physical
core), which shows in CPU time as much as in wall time.  So every timed region is
interleaved with a fixed reference burst: a SIGALRM every BURST_EVERY_S runs
`burst()`, which does not touch cf2, and records how long it took.  The work
time between bursts is rescaled by REF_BURST_S / (local burst time), where
the local burst time is the harmonic mean of the WINDOW nearest bursts.  The
harmonic mean averages speeds: the core flips between a fast and a slow
state, and a median would pick one state instead of their mix.  A change to
cf2 moves the work time and leaves the bursts alone; a slow spell of the
machine stretches both and cancels.

REF_BURST_S is the burst time in the fast state of the 2-core box the
baseline comes from, so one reference second is one wall second at that
speed.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_BURST_S = 170e-6
BURST_EVERY_S = 0.02
WINDOW = 11
CALIBRATION_BURSTS = 101
WARMUP_BURSTS = 10


def burst() -> int:
    """Fixed pure-Python reference work: Euclid expansions, rotations, dict traffic."""
    seen: dict[tuple[int, ...], int] = {}
    for n in range(1, 40):
        p, q = n * 7919 + 1, n * 104729 + 3
        digits = []
        while q:
            a, r = divmod(p, q)
            digits.append(a)
            p, q = q, r
        w = tuple(digits)
        key = min(w[i:] + w[:i] for i in range(len(w)))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def burst_seconds(count: int = CALIBRATION_BURSTS) -> float:
    """Harmonic mean time of `count` back-to-back bursts: the machine's current speed."""
    for _ in range(WARMUP_BURSTS):  # the first calls run before the interpreter specializes
        burst()
    times = []
    for _ in range(count):
        start = time.perf_counter()
        burst()
        times.append(time.perf_counter() - start)
    return statistics.harmonic_mean(times)


class SpeedSampler:
    """Context manager that runs a timed burst on SIGALRM every BURST_EVERY_S.

    `on_burst(start, end)`, if given, is called after each burst, so that a
    tracer can keep the burst out of the self time of the span it interrupted.
    """

    def __init__(self, on_burst=None):
        self.bursts: list[tuple[float, float]] = []  # (start, duration), perf_counter
        self._on_burst = on_burst
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        burst()
        end = time.perf_counter()
        self.bursts.append((start, end - start))
        if self._on_burst is not None:
            self._on_burst(start, end)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, BURST_EVERY_S, BURST_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, start: float, end: float) -> tuple[float, float]:
        """(work_s, reference_s) for the region [start, end] of perf_counter time.

        work_s is the wall time minus the bursts inside the region;
        reference_s is that time rescaled segment by segment to REF_BURST_S.
        """
        inside = [(t, d) for t, d in self.bursts if start <= t and t + d <= end]
        durations = [d for _, d in inside] or [burst_seconds()]
        edges = [start] + [x for t, d in inside for x in (t, t + d)] + [end]
        work = reference = 0.0
        for k in range(len(edges) // 2):
            segment = edges[2 * k + 1] - edges[2 * k]
            centre = min(k, len(durations) - 1)
            lo = max(0, centre - WINDOW // 2)
            local = statistics.harmonic_mean(durations[lo:lo + WINDOW])
            work += segment
            reference += segment * REF_BURST_S / local
        return work, reference

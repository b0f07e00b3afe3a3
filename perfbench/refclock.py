"""Run time rescaled to a reference speed, so that drift in the host's speed cancels.

On a shared host the same pure-Python code can run 1.3 to 1.7 times slower
for stretches of a fraction of a second up to minutes, whatever the process
does. Timing whole passes then measures the neighbours as much as ffax. A
``RefClock`` times a fixed probe -- a millisecond of interpreter work of the
kind ffax does (small-int arithmetic, dicts, frozensets, tuples, sorting) --
every ``PERIOD`` seconds from a ``SIGALRM`` handler while it runs, and once
right before and after each measured call. Each stretch of time between two
probes is rescaled by ``REF_PROBE_S`` over the mean duration of the probes at
its two ends, and probe time itself is left out. The sum is the measured
call's time in reference seconds: what it would take on this box while the
probe takes ``REF_PROBE_S``. The probe lives here, not in ``src/``, so a change
to ffax changes the measured calls and never the yardstick.

The signal handler runs between bytecodes of the main thread; it touches no
ffax state.
"""

import signal
from contextlib import contextmanager
from time import perf_counter

PERIOD = 0.05
# A round figure near the probe's duration on a 2-vCPU x86-64 box with
# CPython 3.11. Any constant would do: only ratios between runs on one box
# are compared.
REF_PROBE_S = 1.0e-3

_SETS = [frozenset((i * 7 + k * 13) % 48 for k in range(2 + i % 7)) for i in range(96)]
_PROBE_ROUNDS = 3


def _probe_work() -> int:
    """A fixed amount of interpreter work; the result keeps it from being skipped."""
    total = 0
    for r in range(_PROBE_ROUNDS):
        seen: dict[tuple, int] = {}
        hit: set[int] = set()
        for i, s in enumerate(_SETS):
            u = s | _SETS[i - 1 - r]
            if not (u & hit):
                hit.update(s)
            key = tuple(sorted(u))
            seen[key] = seen.get(key, 0) + len(key)
            total += (i * i + r) % 7
        total += len(seen) + len(hit)
    return total


class RefClock:
    """Probes the host's speed and turns wall time into reference seconds."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe
        self._busy = False

    def probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            _probe_work()
            self.samples.append((t0, perf_counter()))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    @contextmanager
    def running(self):
        """Probe every ``period`` seconds for the duration of the block."""
        for _ in range(5):
            _probe_work()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn, *args):
        """``(fn(*args), reference seconds, wall seconds without probes)``."""
        self.probe()
        first = len(self.samples) - 1
        result = fn(*args)
        self.probe()
        ref, wall = self.between(first, len(self.samples))
        return result, ref, wall

    def between(self, first: int, stop: int) -> tuple[float, float]:
        """Reference and wall seconds between probes ``first`` and ``stop - 1``."""
        ref = wall = 0.0
        probes = self.samples[first:stop]
        for (a0, a1), (b0, b1) in zip(probes, probes[1:]):
            stretch = b0 - a1
            ref += stretch * REF_PROBE_S * 2 / ((a1 - a0) + (b1 - b0))
            wall += stretch
        return ref, wall

    def slowdown(self, first: int = 0) -> float:
        """Median probe duration since probe ``first``, over ``REF_PROBE_S``."""
        durations = sorted(b - a for a, b in self.samples[first:])
        return durations[len(durations) // 2] / REF_PROBE_S if durations else 1.0

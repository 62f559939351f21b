"""Host speed, sampled with a fixed reference loop while the program runs.

The benchmark's host is a few cores of a shared machine whose speed
drifts by 20-60% in phases of seconds to minutes; CPU time drifts with
wall time, so the cause lies outside the process.  Medians over a run
remove short bursts but not a phase that covers the whole run.

So, while :meth:`HostSpeed.running` is active, an interval timer
(``SIGALRM``, handled in this process's main thread between bytecodes;
no thread or process is started) interrupts the program every
``EVERY_S`` seconds and times this module's loop, which imports nothing
from the program.  The time spent in the handler is paused out of the
command that was running.  Each command's time is then reported scaled
to the host speed at which the loop takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / reference

where ``reference`` is the mean of the loop samples taken during the
command and within ``EVERY_S`` of its start and end.  A change to the
program moves ``measured`` and not ``reference``, so the scaled time moves
with it; a slow phase of the host moves both.  Raw times are recorded
next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

# seconds between reference samples
EVERY_S = 0.2
# the loop's typical sample on the 2-core VM on which the benchmark was
# written, so scaled times there read close to measured ones
NOMINAL_S = 0.0025
_REPEATS = 3
_MASKS = [(0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 64) - 1) for i in range(64)]


def _loop() -> int:
    # the kind of work the program does in Python: big-int bit operations,
    # list indexing, small dict updates and a builtin call per step
    masks, seen, acc = _MASKS, {}, 0
    for i in range(4000):
        m = masks[i & 63]
        acc = (acc ^ (m & ~(acc << 1))) & 0xFFFFFFFFFFFF
        if acc & 1:
            seen[acc & 255] = bin(acc).count("1")
        acc += len(seen)
    return acc


def sample() -> float:
    """Fastest of a few runs of the reference loop: the host's speed now,
    without the bursts that stop a single run."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, reference_s: float) -> float:
    return seconds * NOMINAL_S / reference_s if reference_s else seconds


class HostSpeed:
    """Reference samples of one run, and the time spent taking them."""

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._busy = False

    def take(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.times.append(start)
        self.samples.append(sample())
        self.paused_s += time.perf_counter() - start
        self._busy = False

    @contextmanager
    def running(self):
        """Sample at entry, every ``EVERY_S`` seconds, and at exit."""
        previous = signal.signal(signal.SIGALRM, self.take)
        self.take()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.take()

    def reference(self, start: float, end: float) -> float:
        """Mean sample within ``EVERY_S`` of the interval [start, end], or
        the nearest sample if a long call held the timer back."""
        lo = bisect.bisect_left(self.times, start - EVERY_S)
        hi = bisect.bisect_right(self.times, end + EVERY_S)
        if lo < hi:
            return statistics.fmean(self.samples[lo:hi])
        near = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
        return self.samples[near]

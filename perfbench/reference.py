"""Host-speed reference: a fixed pure-Python loop, timed while a simulation
runs, by which the benchmark rescales host time to a nominal host speed.

The shared host this benchmark was written on changes speed by 30% or more
within minutes, and the simulator and a plain interpreter loop slow down
together. A simulation's wall time divided by the mean time of reference
samples taken during it therefore measures the simulator, not the host.

`Sampler` takes one reference sample at entry, one every `INTERVAL_S`
seconds from a SIGALRM handler while the block runs, and one at exit. The
handler touches nothing of the simulation, so outputs are unchanged; its
time is recorded so the caller can take it out of the measured wall time.

`KERNEL_ITERATIONS` and `_kernel` fix the scale of every normalised metric:
change them and earlier results are no longer comparable. `NOMINAL_S` is
the median time of one sample on a 2-vCPU Intel Xeon virtual machine, so a
normalised time reads as seconds on that machine at its usual speed.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_ITERATIONS = 150000
NOMINAL_S = 0.035
INTERVAL_S = 0.5


class _Slot:
    __slots__ = ("count", "last")

    def __init__(self):
        self.count = 0
        self.last = 0


_SLOTS = [_Slot() for _ in range(64)]
_TABLE = {i: _SLOTS[i] for i in range(64)}


def _touch(slot: _Slot, i: int) -> int:
    if slot.last < i:
        slot.count += 1
    slot.last = i
    return slot.count & 7


def _kernel(n: int) -> int:
    # attribute access, dict lookups, calls, branches and int arithmetic,
    # the operations a cycle-stepped interpreter-bound simulator is made of
    acc = 0
    table = _TABLE
    for i in range(n):
        acc += _touch(table[i & 63], i)
        if acc > 1000:
            acc -= 997
    return acc


def sample() -> float:
    """Seconds one reference sample takes now."""
    t0 = time.perf_counter()
    _kernel(KERNEL_ITERATIONS)
    return time.perf_counter() - t0


class Sampler:
    """Reference samples taken while a block runs, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the samples, entry and exit too
        self._old = None

    def _take(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self._take()

    def __enter__(self) -> Sampler:
        self._take()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._take()

    def scale(self) -> float:
        """Nominal over measured sample time: multiply host seconds by this
        to get seconds at the nominal host speed."""
        return NOMINAL_S / statistics.fmean(self.samples)

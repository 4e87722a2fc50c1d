"""Host-speed correction for wall times measured on a shared machine.

On a few cores of a shared host the same pure-Python loop runs at speeds
that differ by up to 2x from one stretch of seconds to the next, with CPU
time equal to wall time: the host, not this process, sets the pace. A
median over passes cannot remove a drift that lasts longer than a run, so
the benchmark measures the host's speed while it times the program.

`SpeedProbe` samples the speed all through a run: every `INTERVAL_S`
seconds of wall time a sampler thread times one `calibration_slice`, a
fixed piece of pure-Python work (tuple indexing and dict lookups, much
like the permutation code of gcompat). The slice lives here and not in
gcompat, so a change to the program does not move it.

`SpeedProbe.corrected(t0, t1)` turns a wall interval into reference
seconds: the interval minus the time the sampler spent in it, times the
mean relative speed (`NOMINAL_SLICE_S` over the slice's duration) of the
slices sampled in and around it. At the reference speed a reference
second is a wall second; when the host runs at half speed, a call that
takes 2 wall seconds is charged 1.
"""

from __future__ import annotations

import os
import threading
from array import array
from bisect import bisect_left
from time import perf_counter, sleep

INTERVAL_S = 0.02          # one calibration slice per 20 ms of wall time
WINDOW_S = 0.25            # slices this close to a short interval count too
SLICE_ROUNDS = 40          # about 0.2 ms of work at the reference speed
# The reference speed: about the slice's fastest duration on the 2-vCPU
# Xeon (KVM guest, Python 3.11) the benchmark was tuned on.
NOMINAL_SLICE_S = 0.0002

_PERM = tuple((7 * i + 3) % 61 for i in range(61))
_INDEX = {v: i for i, v in enumerate(_PERM)}


def calibration_slice() -> int:
    """A fixed piece of work: tuple indexing and dict lookups, the staple of
    permutation code. It makes no container objects, so it never starts or
    shifts a garbage collection of the program's objects."""
    x = acc = 0
    for _ in range(SLICE_ROUNDS):
        for i in range(61):
            x = _PERM[(x + i) % 61]
            acc += _INDEX[x]
    return acc


def _current_cpu(allowed) -> int:
    """The CPU this thread runs on (Linux), else the first allowed one."""
    try:
        with open("/proc/thread-self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(allowed)
    return cpu if cpu in allowed else min(allowed)


class SpeedProbe:
    """Samples the host's speed from a thread while it is active.

    Use as a context manager around the whole measured part of a run. The
    sampler sleeps `INTERVAL_S`, then takes the GIL and runs one slice, so
    it runs while the program waits and never beside it. The process is
    pinned to the CPU it is on, so that the slice runs on the CPU that runs
    the program; the old CPU set is put back on exit. The sampler makes no
    object that the garbage collector counts, so the program's collections
    happen where they would without it.
    """

    def __init__(self):
        self.starts, self.durations = array("d"), array("d")
        self.cpu = None
        self._running = False
        self._thread = None
        self._allowed = None

    def _sample(self):
        while self._running:
            sleep(INTERVAL_S)
            t0 = perf_counter()
            calibration_slice()
            self.durations.append(perf_counter() - t0)
            self.starts.append(t0)

    def __enter__(self):
        self._allowed = os.sched_getaffinity(0)
        self.cpu = _current_cpu(self._allowed)
        os.sched_setaffinity(0, {self.cpu})
        self._running = True
        self._thread = threading.Thread(target=self._sample,
                                        name="speed-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._running = False
        self._thread.join()
        os.sched_setaffinity(0, self._allowed)
        return False

    def corrected(self, t0: float, t1: float) -> float:
        """Reference seconds of the program's work between t0 and t1."""
        s, d = self.starts, self.durations
        own = t1 - t0 - sum(d[bisect_left(s, t0):bisect_left(s, t1)])
        near = d[bisect_left(s, t0 - WINDOW_S):bisect_left(s, t1 + WINDOW_S)]
        if not near:
            raise RuntimeError("no speed samples near a timed interval")
        return own * sum(NOMINAL_SLICE_S / x for x in near) / len(near)

    def speeds(self) -> list:
        """The relative speed of every sample, 1 being the reference."""
        return [NOMINAL_SLICE_S / x for x in self.durations]

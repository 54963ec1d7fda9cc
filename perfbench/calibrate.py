"""Host-speed calibration: a fixed pure-Python kernel timed while the ops run.

On a shared virtual machine the speed of the CPU a process gets swings by up
to 2x, switching every few seconds and drifting over minutes as other tenants
come and go.  The raw wall time of a run therefore measures the host as much
as the program.  While the timed ops run, an interval timer interrupts them
every :data:`INTERVAL_S` seconds and times one sample of a fixed kernel that
never touches the package under test -- dictionary rows relaxed over a fixed
random neighbour table, the same kind of interpreter work a protocol step
does.  :meth:`Calibration.wall` leaves the samples out of every op's wall
time, and :meth:`Calibration.factor` (reference seconds per measured second,
from the samples' mean) rescales the run's times to a reference host on
which one sample takes :data:`REFERENCE_SAMPLE_S`.  Sampling inside the ops
rather than between them sees the host at the same moments the ops do.

A change to the package under test cannot move the kernel, so a real speed-up
shows in the normalized times exactly as in the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

#: Seconds one kernel sample takes on the reference host (2-vCPU VM, CPython
#: 3.11, 2026); normalized times are seconds on that host.
REFERENCE_SAMPLE_S = 0.009
#: Seconds of wall between the starts of two samples.
INTERVAL_S = 0.1

_NODES = 2048
_SWEEPS = 3


class Kernel:
    """One fixed unit of work: min-relaxation sweeps over preallocated dict rows."""

    def __init__(self) -> None:
        rng = random.Random(20_240_611)
        self.neighbours = [tuple(rng.randrange(_NODES) for _ in range(4)) for _ in range(_NODES)]
        self.start = [(node * 7919) % 251 for node in range(_NODES)]
        self.rows = [{"d": 0, "p": 0} for _ in range(_NODES)]

    def __call__(self) -> int:
        rows, neighbours = self.rows, self.neighbours
        for row, start in zip(rows, self.start):
            row["d"] = start
            row["p"] = 0
        moves = 0
        for _ in range(_SWEEPS):
            for node in range(_NODES):
                row = rows[node]
                best = min(rows[other]["d"] for other in neighbours[node])
                if best + 1 < row["d"]:
                    row["d"] = best + 1
                    row["p"] = node
                    moves += 1
        return moves


class Calibration:
    """Kernel samples taken on a wall-clock interval timer, as a context manager."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.kernel = Kernel()
        self._previous = None

    def sample(self, *_signal: object) -> None:
        # The collector stays off so a large heap left by the program cannot
        # slow the kernel down; the kernel itself allocates nothing.
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - started)
            self.starts.append(started)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.sample()

    def wall(self, start: float, end: float) -> float:
        """Seconds between two ``perf_counter`` readings, less the samples taken in between.

        A sample runs whole between two bytecodes of the interrupted code, so
        it lies entirely before or after each reading.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.samples[first:last])

    def factor(self) -> float:
        """Reference seconds per measured second in this run (1.0 on the reference host)."""
        return REFERENCE_SAMPLE_S / statistics.fmean(self.samples)


__all__ = ["Calibration", "Kernel", "REFERENCE_SAMPLE_S"]

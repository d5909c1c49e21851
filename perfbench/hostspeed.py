"""Host-speed reference: scales measured times to a nominal host.

On the 2-vCPU machine this benchmark was built on, the same code runs up to
2.2x slower in phases lasting from seconds to minutes: other tenants share
the host, there is no steal time, and CPU time slows with wall time.  A run's
median then measures the phase it landed in, not the code.

So while a workload runs, a SIGALRM handler times a fixed, benchmark-owned
pure-Python reference every PERIOD_S: a small DP over lists, a Fraction sum,
tuple and dict building -- the operations mqsim spends its time in, but none
of mqsim's code.  The reference moves with the host and never with mqsim.  A
reading is the CPU time of the reference, so a reading taken while the pool
workers hold both vCPUs measures the host, not the wait for a core.  A timed
block's wall time, less the handler's own time inside it, is multiplied by

    NOMINAL_S / (median of the readings inside it and just around it)

which is its time on a host where one reading takes NOMINAL_S.  Timed next
to `verify_all` in alternating ~50 ms blocks for 90 s, raw times moved by
50% while their ratio to the reference stayed within +-3%.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from fractions import Fraction

NOMINAL_S = 0.0016  # one reading in that machine's faster phases
UNITS = 16  # reference units per reading, ~2 ms: shorter than a GIL switch
PERIOD_S = 0.1


def _unit() -> Fraction:
    size = 8
    moves = [[(w, s ^ (1 << k)) for k, w in enumerate((1, 2, 5)) if s >> k & 1]
             for s in range(size)]
    val = [0] * size
    for ev in (3, 0, 1, 3, 2, 3, 0, 3, 3, 1, 2, 3, 3, 3):
        if ev == 3:
            val = [max((w + val[s2] for w, s2 in moves[s]), default=val[s]) for s in range(size)]
        else:
            val = [val[s | (1 << ev)] for s in range(size)]
    total = sum((Fraction(v, 7) for v in val), Fraction(0))
    table = {i: (i, total) for i in range(10)}
    return table[9][1]


class HostSpeed:
    """Reference readings taken every PERIOD_S while active (a context
    manager); the main thread runs them, between the workload's bytecodes."""

    def __init__(self):
        self.readings = array("d")  # CPU seconds of each reading
        self.walls = array("d")  # wall seconds of each reading
        self.factors: list[float] = []

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.thread_time()
        for _ in range(UNITS):
            _unit()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.readings.append(c1 - c0)
        self.walls.append(w1 - w0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn):
        """Run fn() between two readings; return its result, the factor that
        scales times measured inside it to the nominal host, and the seconds
        the handler took inside it."""
        self._tick(None, None)
        first = len(self.readings)
        result = fn()
        inside = sum(self.walls[first:])
        self._tick(None, None)
        factor = NOMINAL_S / statistics.median(self.readings[first - 1:])
        self.factors.append(factor)
        return result, factor, inside

"""Reference-loop timing, to express op times independently of machine speed.

On a shared machine the speed of one core changes by up to 2x from second to
second, so raw times of the same work spread too widely to compare commits.
``SpeedProbe`` times a fixed reference loop (exact elimination of a small
rational matrix, the same kind of work as the program's own) from a timer
signal every ``INTERVAL`` seconds while ops run.  An interval's time in
reference units is its raw time, less the probes inside it, divided by the
median probe duration around it: the number of reference loops the machine
could have run in that time.  A change to the program moves it; a change of
machine speed mostly does not.  The mean, not the median, of the probe
durations is used: a slow spell stretches some probes a lot and others not
at all, and the mean weighs each by how much of the interval it covers.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.1
# Nominal reference-loop duration: reference units times this are seconds at
# a fixed speed (the loop's median on a 2.1 GHz Xeon core, Python 3.11).
REFERENCE_LOOP_S = 0.0018
NEAREST = 5            # probes used for an interval that holds fewer
_SIZE = 7
_MATRIX = [[Fraction(1, i + j + 1) for j in range(_SIZE)] for i in range(_SIZE)]

clock = time.perf_counter


def reference_loop():
    """Gauss-Jordan elimination of a fixed Hilbert matrix over Fraction."""
    rows = [row[:] for row in _MATRIX]
    for c in range(_SIZE):
        inv = rows[c][c]
        rows[c] = [a / inv for a in rows[c]]
        for i in range(_SIZE):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return rows


class SpeedProbe:
    def __init__(self):
        self.starts = []       # probe start times, increasing
        self.durations = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self._fire(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _fire(self, _signum, _frame):
        # a collection the loop happens to trigger would time the heap, not the core
        enabled = gc.isenabled()
        gc.disable()
        start = clock()
        reference_loop()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.durations.append(clock() - start)

    def _inside(self, start, end):
        return [i for i, s in enumerate(self.starts) if start <= s < end]

    def net(self, start, end):
        """Raw seconds of [start, end] less the probes that ran inside it."""
        return end - start - sum(self.durations[i] for i in self._inside(start, end))

    def in_reference_units(self, start, end):
        inside = self._inside(start, end)
        if len(inside) < NEAREST:
            middle = (start + end) / 2
            inside = sorted(
                range(len(self.starts)), key=lambda i: abs(self.starts[i] - middle)
            )[:NEAREST]
        return self.net(start, end) / statistics.mean(self.durations[i] for i in inside)

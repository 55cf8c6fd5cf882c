"""The host's pace: a fixed reference computation, sampled through a run.

On a shared host the same pure-Python work runs up to 1.5 times slower while
neighbours are busy, in phases from under a second to longer than a whole
run. The time of a hopfeq item divided by the time of a fixed reference
computation run at the same moments holds far stiller than either time
alone. So the end-to-end times of a timed run are reported in reference
units (``ref``).

While a ``Pace`` is active, a timer signal runs one reference sample every
``EVERY_S`` seconds of wall time, in the middle of whatever hopfeq is doing.
A timed span is then the wall time from its start to its end less the
samples taken inside it, divided by the mean length of the samples taken
from ``EVERY_S`` before it to ``EVERY_S`` after it.

The reference mixes the two kinds of work hopfeq does: a sparse polynomial
product with rational coefficients in a dict keyed by tuples (its work over
Q) and a flat matrix product mod 7 (its work over F_p). It uses the standard
library only, so no change to hopfeq changes it. It runs with the garbage
collector off, so that the size of hopfeq's heap (caches, say) does not slow
it and so flatter the ratio.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

EVERY_S = 0.1  # wall time between two samples, about 2.5 ms each on a 2-core Xeon
# setup_s must read in seconds, so its reference units are turned back into
# seconds at this sample length, that of a 2-core Xeon host in a quiet phase.
NOMINAL_S = 0.0025
MOD_DIM, MOD_P, MOD_REPEATS = 12, 7, 6
MOD_A = [(3 * i + 1) % MOD_P if i % 4 else 0 for i in range(MOD_DIM * MOD_DIM)]
MOD_B = [(5 * i + 2) % MOD_P if i % 3 else 0 for i in range(MOD_DIM * MOD_DIM)]


def rational_block():
    a = {(i, j): Fraction(i - 3, j + 1) for i in range(6) for j in range(5)}
    b = {(i,): Fraction(2 * i + 1, 3) for i in range(8)}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + va * vb
    return sum(1 for v in out.values() if v)


def modular_block():
    dim = MOD_DIM
    out = [0] * (dim * dim)
    for i in range(dim):
        for k in range(dim):
            aik = MOD_A[i * dim + k]
            if aik:
                for j in range(dim):
                    bkj = MOD_B[k * dim + j]
                    if bkj:
                        out[i * dim + j] = (out[i * dim + j] + aik * bkj) % MOD_P
    return out


def reference():
    rational_block()
    for _ in range(MOD_REPEATS):
        modular_block()


class Pace:
    """Reference samples, by the middle of each and its length, in the order
    taken. Use as a context manager: the timer runs inside the block."""

    def __init__(self):
        self.mids = []
        self.lengths = []
        self._previous = None

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.mids.append((start + end) / 2)
        self.lengths.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def in_refs(self, start, end):
        """The time from ``start`` to ``end``, less the samples inside it, in
        reference units."""
        lo = bisect.bisect_left(self.mids, start - EVERY_S)
        hi = bisect.bisect_right(self.mids, end + EVERY_S)
        if lo == hi:
            raise ValueError("no reference sample near the span")
        inside = sum(self.lengths[bisect.bisect_left(self.mids, start):
                                  bisect.bisect_right(self.mids, end)])
        return (end - start - inside) / statistics.fmean(self.lengths[lo:hi])

"""Host-speed normalisation of the benchmark's times.

The benchmark runs on shared hosts whose speed can swing by a factor of two
within a minute, far more than the changes it has to resolve.  So every job
and pass time it reports is scaled to a fixed reference speed:

    reported = measured * REFERENCE_S / (calibration time around the measurement)

``work()`` is a fixed piece of pure-Python work in four parts of about a
millisecond each, shaped like the program's: exact big-integer elimination
(char-0 ``kernel_basis``), lcms of monomial tuples collected in a set (the
lcm lattice, the box), random reads from a table of ints, and a plain
interpreter loop.  Host slowdowns hit these kinds of work differently, and
no single one tracked every job, so the mix is timed as a whole.  It
allocates only small, short-lived objects: large allocations made at random
moments changed the child's heap layout and so its peak memory, by up to a
fifth on ``lattice``.  It does not import monpoincare, so a change to the
program never changes it.

While jobs run, ``SpeedSampler`` times ``work()`` every INTERVAL seconds from
a SIGALRM handler, and a job is normalised by the mean of the samples taken
during it (at least the MIN_SAMPLES nearest), so even a job that runs for ten
seconds is normalised by the host's speed during that job.  Narrower windows
tracked better than wider ones: the host's speed changes within seconds.
The handler's own time is subtracted from the jobs it interrupts
(``stolen``).  Set-up time is normalised the same way by ``calibrate()``
runs made in the parent process just before and just after each set-up
child: while a child sets up, nothing else runs to sample the speed.
"""
from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

# about the median sample time of work() while the benchmark runs on the
# reference machine: 2 vCPUs (Intel Xeon, shared host), Linux, CPython 3.11.7
REFERENCE_S = 0.005
INTERVAL = 0.15  # seconds between two samples while jobs run
MIN_SAMPLES = 5  # a shorter interval borrows the samples nearest to it

_RNG = random.Random(11)
_MATRIX = tuple(tuple(_RNG.randrange(-99, 100) for _ in range(20)) for _ in range(20))
_MONOMIALS = tuple(tuple(_RNG.randrange(4) for _ in range(5)) for _ in range(30))
# built without the generator: this module is imported during set-up
_TABLE = tuple(range(0, 16000 * 2654435761, 2654435761))
_INDEX = tuple(i % 16000 for i in range(0, 12000 * 7919, 7919))  # scattered


def _bareiss() -> int:
    """Fraction-free elimination: exact big-integer arithmetic."""
    m = [list(row) for row in _MATRIX]
    prev = 1
    for c in range(len(m) - 1):
        p = m[c][c] or 1
        for r in range(c + 1, len(m)):
            f = m[r][c]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], m[c])]
        prev = p
    return m[-1][-1]


def _lcms() -> int:
    """lcms of pairs of monomial tuples, collected in a set."""
    return len({tuple(map(max, a, b)) for a in _MONOMIALS for b in _MONOMIALS})


def _scattered() -> int:
    """Random reads from a table of 16000 ints, and a few small fresh tuples."""
    pairs = [(_TABLE[i], i) for i in _INDEX[:500]]
    return sum(_TABLE[i] & 0xFF for i in _INDEX) + len(pairs)


def _loop() -> int:
    """A plain interpreter loop over small ints."""
    s = 0
    for i in range(15000):
        s += i * i % 7
    return s


PARTS = (_bareiss, _lcms, _scattered, _loop)


def work() -> int:
    # each part takes about a quarter of the time, so no single kind of
    # work decides the calibration
    return sum(part() for part in PARTS)


def calibrate(samples: int) -> list:
    """Durations of `samples` back-to-back work() calls."""
    durations = []
    for _ in range(samples):
        start = time.perf_counter()
        work()
        durations.append(time.perf_counter() - start)
    return durations


class SpeedSampler:
    """Times work() every INTERVAL seconds while active (main thread only)."""

    def __init__(self):
        self.ends = []  # time.perf_counter() at the end of each sample
        self.durations = []
        self.stolen = 0.0  # seconds spent in the handler so far

    def _tick(self, signum, frame):
        start = time.perf_counter()
        work()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        self.stolen += end - start

    def __enter__(self):
        self._tick(None, None)  # so that factor() always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean sample taken during [start, end], widened
        to the MIN_SAMPLES samples nearest to it for a short interval."""
        ends = self.ends
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(ends)):
            if hi == len(ends) or (lo > 0 and start - ends[lo - 1] <= ends[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])

"""A fixed pure-Python reference task that measures the host's current speed.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, while CPU time keeps pace with wall time: the process
is not descheduled, the core itself runs slower.  run.py therefore times
this task between blocks of workload calls and rescales every timing to a
host on which one repetition takes NOMINAL_S, so that drift cancels out.

The task does what agreebox spends its time on, in the same interpreter:
exact rational elimination with Fraction, integer bitmask loops and dict
and list traffic.  It imports nothing from agreebox, so no change to the
program can move it.
"""

from fractions import Fraction
from statistics import median
from time import perf_counter

NOMINAL_S = 1e-3  # seconds per repetition on the reference host, by definition
N = 6


def _matrix():
    # a fixed, nonsingular rational matrix with a right-hand side
    return [
        [Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) + (4 if i == j else 0)
         for j in range(N + 1)]
        for i in range(N)
    ]


MATRIX = _matrix()


def task():
    """One repetition; returns a checksum so no step can be skipped."""
    rows = [row[:] for row in MATRIX]
    for col in range(N):
        pivot = next(r for r in range(col, N) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        inv = 1 / head[col]
        head[:] = [v * inv for v in head]
        for r in range(N):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * h for v, h in zip(rows[r], head)]
    bits = 0
    for s in range(1 << 9):
        bits += (s & (s >> 2) & ~(s >> 5)).bit_count()
    table = {(s, s & 7): s * s for s in range(256)}
    return sum(r[N] for r in rows) + bits + sum(table.values())


CHECKSUM = task()


class Reference:
    """Times `reps` repetitions of the task and keeps their median."""

    def __init__(self, reps):
        self.reps = reps
        for _ in range(reps):  # warm the interpreter's caches
            task()

    def measure(self):
        times = []
        for _ in range(self.reps):
            start = perf_counter()
            out = task()
            times.append(perf_counter() - start)
            if out != CHECKSUM:
                raise RuntimeError("reference task changed its answer")
        return median(times)

"""The machine's speed, measured between invocations.

The reference machine's CPU speed drifts by a third within minutes, and
its CPU time drifts with it, so raw seconds from two sets of runs an hour
apart differ more than any bound worth keeping.  calibrate() runs a fixed
piece of pure-Python integer work of the kind qkoshy does: a Gaussian
binomial by the Pascal recurrence on int lists, a schoolbook product, and
a Kronecker-packed big-int square.  It imports nothing from qkoshy, so a
change to the program never changes it.  run.py calls it before every
timed invocation and after the last one of each round, and scales the
run's times by REFERENCE_S over the mean calibration time: the times read
as seconds on a machine where calibrate() takes REFERENCE_S.
"""

import time
from operator import add

PASSES = 3
REFERENCE_S = 0.3


def _gauss(m, k):
    row = [[1]] + [[] for _ in range(k)]
    for i in range(1, m + 1):
        for j in range(min(i, k), 0, -1):
            left, right = row[j - 1], row[j]
            if not right:
                row[j] = list(left)
                continue
            new = left + [0] * max(0, len(right) + j - len(left))
            new[j:j + len(right)] = map(add, new[j:j + len(right)], right)
            row[j] = new
    return row[k]


def _kernel():
    g = _gauss(64, 32)
    head = g[:320]
    out = [0] * (2 * len(head) - 1)
    for i, x in enumerate(head):
        for j, y in enumerate(head):
            out[i + j] += x * y
    width = 2 * max(g).bit_length() + 8
    packed = 0
    for c in reversed(g):
        packed = (packed << width) | c
    bits = 0
    for _ in range(12):
        bits += (packed * packed).bit_length()
    return out[len(head) - 1] + bits


def calibrate():
    """Wall seconds for PASSES passes of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(PASSES):
        _kernel()
    return time.perf_counter() - t0

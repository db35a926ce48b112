"""A fixed pure-Python task that measures how fast the machine runs right now.

The benchmark's machine is shared: the same pure-Python loop takes 25 ms in
one second and 43 ms a few seconds later, and stays slow for minutes, with
process CPU time slowing just as much as wall time.  No choice of repeats
or percentiles removes a slowdown that lasts a whole run.  So ``run.py``
takes a calibration sample between consecutive ``check`` calls and divides
each call's time by the median of the samples around it.  Multiplied by
``REFERENCE_S`` the ratio is a time in *reference seconds*: seconds on a
machine that runs this task in exactly ``REFERENCE_S``.

The task resembles what ``coordrig check`` does (modular Gaussian
elimination over lists of Python ints, and a graph search over dicts and
sets) but uses no coordrig code, so a change to the program cannot change
the calibration.
"""

from __future__ import annotations

import statistics
import time

Q = 2_147_483_629  # a prime below 2**31
ELIM_SIZE = 26
GRAPH_SIZE = 400
# the task's time on a 2-core Intel Xeon virtual machine at its fastest
REFERENCE_S = 0.005


def _eliminate(n: int) -> int:
    rows = [[(i * 7919 + j * 104729 + i * j) % Q for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], Q - 2, Q)
        for i in range(rank + 1, n):
            f = rows[i][c]
            if f:
                f = f * inv % Q
                ri = rows[i]
                ri[c:] = [(a - f * b) % Q for a, b in zip(ri[c:], prow[c:])]
        rank += 1
    return rank


def _search(n: int) -> int:
    adj = {v: [(v * 5 + 1) % n, (v * 7 + 3) % n, (v + 1) % n] for v in range(n)}
    reached = 0
    for s in range(0, n, 8):
        seen = {s}
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reached += len(seen)
    return reached


def sample() -> float:
    """Seconds the task takes now."""
    t0 = time.perf_counter()
    _eliminate(ELIM_SIZE)
    _search(GRAPH_SIZE)
    return time.perf_counter() - t0


def speed_now(samples: int = 5) -> float:
    """Median of a few samples taken back to back."""
    return statistics.median(sample() for _ in range(samples))

"""A fixed reference computation, timed next to every pass.

The host this benchmark runs on is shared: its speed drifts by a third
within minutes, and CPU time drifts with wall time, so the drift is in the
host, not the scheduler. Pass time divided by the time of this fixed work,
measured just before and after the pass, cancels most of that drift while
still moving one-for-one with the pipeline's own speed.

The work mixes what the pipeline spends its time on: Python loops over
nested lists, frozenset building and intersection, and numpy scalar
indexing and small-array calls. It does not import equimetric, so no change
to the program under test changes it.
"""

from __future__ import annotations

import time

import numpy as np

_N = 72


def _work() -> float:
    n = _N
    d = [[abs(i - j) * 0.5 + ((i * 7 + j * 3) % 5) for j in range(n)] for i in range(n)]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di, dik = d[i], d[i][k]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    balls = [frozenset(j for j in range(n) if d[i][j] < 6.0) for i in range(n)]
    acc = float(sum(len(a & b) for a in balls for b in balls))
    m = np.asarray(d)
    for i in range(n):
        acc += sum(1 for q in range(n) if m[i, q] < 4.0)
        acc += float(np.min(m[i] + m[:, (i * 5) % n]))
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start

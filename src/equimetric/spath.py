"""All-pairs shortest paths over dense weight matrices.

Dense Dijkstra (Dijkstra 1959), run from every source at once: row s of the
distance table is the search from source s. On each step every row picks its
unvisited vertex of least tentative distance, ties going to the lowest index
(``argmin``), and relaxes all edges out of it with ``dist[u] + w[u, v]``.
These are the float additions and the tie rule of a per-source scalar
Dijkstra, so the table is bitwise equal to it (`tests/oracles.py` keeps that
scalar form as the reference).

The input is one n x n table or a stack of them, shape (..., n, n). The
rows of all tables run side by side and each row reads only its own table,
so every table of a stack gets the same distances, bit for bit, as a call
on that table alone.

Precondition: every weight is nonnegative, or ``inf`` where there is no
edge; no NaN. With a negative weight the result is not a shortest-path
table.
"""

from __future__ import annotations

import numpy as np


def apsp(weights: np.ndarray) -> np.ndarray:
    """Shortest-path distances between all vertex pairs of each n x n table
    of a (..., n, n) stack; ``inf`` where no path exists."""
    w = np.ascontiguousarray(weights, dtype=np.float64)
    n = w.shape[-1]
    rows = np.arange(int(np.prod(w.shape[:-1])))
    flat = w.reshape(len(rows), n)  # row i is row i % n of table i // n
    first = rows - rows % n  # the flat row where each row's table starts
    dist = np.full((len(rows), n), np.inf)
    dist[rows, rows % n] = 0.0
    # 0 where unvisited, inf where visited: dist + penalty is the masked
    # table, exactly (x + 0.0 = x for x >= 0, x + inf = inf)
    penalty = np.zeros((len(rows), n))
    # every step writes into one buffer, allocated once: first the masked
    # table, then, once u and du are read off it, the relaxed candidates
    buf = np.empty_like(dist)
    for _ in range(n):
        np.add(dist, penalty, out=buf)
        u = buf.argmin(axis=1)
        du = buf[rows, u]
        penalty[rows, u] = np.inf
        # A row whose reachable vertices are all visited has du = inf, so
        # its candidates are all inf and the minimum leaves it unchanged.
        # A visited v keeps dist[v], since du + w >= du >= dist[v].
        np.take(flat, first + u, axis=0, out=buf, mode="clip")  # rows in range: no buffered copy
        np.add(du[:, None], buf, out=buf)
        np.minimum(dist, buf, out=dist)
    return dist.reshape(w.shape)

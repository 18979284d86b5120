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
on that table alone. For the same reason a call with ``sources`` (..., s),
a row of source vertices per table, returns the rows of those sources
only, shape (..., s, n), each bitwise equal to that row of the full table:
a repeated source gets the same row twice. The search still takes n steps,
so s sources cost s / n of the full call.

The table does not depend on the tie rule. Each final ``dist[v]`` is the
least ``dist[u] + w[u, v]`` over the vertices u settled before v. Every u
with ``dist[u] < dist[v]`` is settled before v whatever the tie rule, and a
u settled later has ``dist[u] >= dist[v]``, so it cannot lower ``dist[v]``:
a + b >= a in IEEE arithmetic when b >= 0. Hence a point permutation pi
that keeps every weight bit for bit (``w[pi u, pi v] == w[u, v]``) moves
the table onto itself bit for bit: row pi s is row s moved by pi.
``lift.lift_metric`` searches one source per orbit for that reason.

Precondition: every weight is nonnegative, or ``inf`` where there is no
edge; no NaN. With a negative weight the result is not a shortest-path
table.
"""

from __future__ import annotations

import numpy as np


def apsp(weights: np.ndarray, sources: np.ndarray = None) -> np.ndarray:
    """Shortest-path distances between all vertex pairs of each n x n table
    of a (..., n, n) stack; ``inf`` where no path exists. With ``sources``,
    an integer array (..., s) broadcast against the stack's leading axes,
    only the rows of those sources, shape (..., s, n)."""
    w = np.ascontiguousarray(weights, dtype=np.float64)
    n = w.shape[-1]
    if sources is None:
        sources = np.arange(n)
    sources = np.asarray(sources, dtype=np.intp)
    sources = np.broadcast_to(sources, w.shape[:-2] + sources.shape[-1:])
    tables, s = int(np.prod(w.shape[:-2])), sources.shape[-1]
    rows = np.arange(tables * s)
    flat = w.reshape(tables * n, n)  # flat row t * n + v is row v of table t
    first = np.repeat(np.arange(tables) * n, s)  # the flat row where each row's table starts
    dist = np.full((len(rows), n), np.inf)
    dist[rows, sources.reshape(-1)] = 0.0
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
    return dist.reshape(sources.shape + (n,))

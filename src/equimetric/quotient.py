"""Orbits, the projection onto the orbit space, and a metric on it."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spath import apsp
from .errors import ValidationError
from .gspace import SampledGSpace, _check_metric_table, graph_components


@dataclass(frozen=True)
class Quotient:
    n_orbits: int
    orbit_of: tuple  # point -> orbit index (the projection)
    representative: tuple  # orbit -> least point index in the orbit
    orbit_members: tuple  # orbit -> sorted tuple of points
    quotient_adjacency: frozenset  # edges on orbit indices, (a, b) with a < b
    d: Optional[np.ndarray] = None  # n_orbits x n_orbits metric table

    def ball(self, orbit: int, radius: float) -> frozenset:
        """Open metric ball in the orbit space."""
        return frozenset(q for q in range(self.n_orbits) if self.d[orbit, q] < radius)

    def preimage(self, orbits) -> frozenset:
        wanted = set(orbits)
        return frozenset(x for x, q in enumerate(self.orbit_of) if q in wanted)


def compute_orbits(gspace: SampledGSpace) -> Quotient:
    """Orbit partition: x ~ y iff some chain of defined translations joins them.

    For total actions this is the usual group orbit; for partial actions it is
    the connected component of the translation relation (may be smaller than
    the ambient infinite-group orbit; scenario docs carry that caveat).
    """
    n = gspace.n_points
    g, x = np.nonzero(gspace.action[:, :n] >= 0)  # the pairs (x, g.x)
    members = tuple(tuple(c) for c in graph_components(n, zip(x.tolist(), gspace.action[g, x].tolist())))
    orbit_of = [0] * n
    for i, m in enumerate(members):
        for p in m:
            orbit_of[p] = i
    orbit_of = tuple(orbit_of)
    reps = tuple(m[0] for m in members)

    qadj = set()
    for a, b in gspace.space.edges:
        pa, pb = orbit_of[a], orbit_of[b]
        if pa != pb:
            qadj.add((min(pa, pb), max(pa, pb)))

    return Quotient(
        n_orbits=len(members),
        orbit_of=orbit_of,
        representative=reps,
        orbit_members=members,
        quotient_adjacency=frozenset(qadj),
    )


def orbit_minima(quotient: Quotient, table: np.ndarray) -> np.ndarray:
    """Entry (a, b), a < b, mirrored: the least table[x, y] over lifts x of a
    and y of b; zero diagonal. A minimum adds no floats, so it is exact."""
    k = quotient.n_orbits
    members = np.argsort(quotient.orbit_of, kind="stable")
    starts = np.cumsum([0] + [len(m) for m in quotient.orbit_members])[:-1]
    blocks = np.minimum.reduceat(table[members], starts, axis=0)
    blocks = np.minimum.reduceat(blocks[:, members], starts, axis=1)
    i = np.arange(k)
    out = np.where(i[:, None] < i, blocks, blocks.T)
    out[i, i] = 0.0
    return out


def quotient_metric(
    gspace: SampledGSpace,
    orbits: Quotient,
    mode: str = "graph",
    table=None,
    tol: float = 1e-9,
) -> Quotient:
    """Attach a metric to the orbit space.

    graph: all-pairs shortest path over the quotient adjacency, edge weight
        ``orbit_minima`` of the base metric.
    isometric: ``orbit_minima`` of the base metric; requires every total
        element to be a base-metric isometry.
    explicit: validate and adopt the given table.
    """
    n = orbits.n_orbits
    if mode == "explicit":
        d = np.asarray(table, dtype=np.float64)
        if d.shape != (n, n):
            raise ValidationError("NotAMetric", "explicit table has wrong shape")
        _check_metric_table(d, tol)
    elif mode == "isometric":
        rho0 = gspace.space.base_metric
        for g in np.flatnonzero(gspace.total).tolist():  # first (a, b), row-major, per g
            m = gspace.action[g, : gspace.n_points]
            moved = np.abs(rho0[np.ix_(m, m)] - rho0) > tol
            if moved.any():
                a, b = (int(v) for v in np.argwhere(moved)[0])
                raise ValidationError(
                    "NotIsometricAction", "total element is not a base-metric isometry", (g, a, b)
                )
        d = orbit_minima(orbits, rho0)
        _check_metric_table(d, tol)
    elif mode == "graph":
        adjacent = np.eye(n, dtype=bool)
        for p, q in orbits.quotient_adjacency:
            adjacent[p, q] = adjacent[q, p] = True
        d = apsp(np.where(adjacent, orbit_minima(orbits, gspace.space.base_metric), np.inf))
        if np.isinf(d).any():
            p, q = map(int, np.argwhere(np.isinf(d))[0])
            raise ValidationError("DisconnectedQuotient", "quotient adjacency is not connected", (p, q))
        _check_metric_table(d, tol)
    else:
        raise ValidationError("InvalidParams", f"unknown quotient metric mode {mode!r}")

    d.setflags(write=False)
    return replace(orbits, d=d)

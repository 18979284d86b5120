"""Orbits, the projection onto the orbit space, and a metric on it.

A quotient is read-only arrays, as a ``SliceFamily`` is: the ``np.intp``
projection ``orbit_of``, each orbit's least point ``representative`` and
members ``order`` / ``offsets`` (``Quotient.members``), and a k x k bool
``adjacency`` table of the orbits an edge joins. Stages index them directly.

Labelling lemma. Start with label[x] = x; a round sets label[x] to the least
label over x and its images g.x (for a partial g, its preimage too), then
takes the label of that label, until nothing changes. A label is always a
point of x's orbit at or below x. At the fixpoint label[x] <= label[g.x]
wherever g.x is defined: a total g permutes the points (rows are
injective), so the labels agree along its cycles, and a partial g's
preimages give the reverse inequality. So labels are constant on orbits,
and an orbit's least point m, labelled by a point of its orbit at or below
m, is labelled m: orbit ids are the ranks of those minima.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

import numpy as np

from .spath import apsp
from .errors import ValidationError
from .gspace import SampledGSpace, _check_metric_table


@dataclass(frozen=True, eq=False)
class Quotient:
    n_orbits: int
    # read-only np.intp arrays: point -> orbit (the projection); orbit ->
    # its least point; the points by (orbit, point), those of orbit o at
    # order[offsets[o]:offsets[o + 1]]
    orbit_of: np.ndarray = field(repr=False)
    representative: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    adjacency: np.ndarray = field(repr=False)  # read-only bool, [a, b] iff an edge joins orbits a != b
    d: Optional[np.ndarray] = None  # n_orbits x n_orbits metric table

    def members(self, orbit: int) -> np.ndarray:
        """The points of the orbit, ascending."""
        return self.order[self.offsets[orbit] : self.offsets[orbit + 1]]


def compute_orbits(gspace: SampledGSpace) -> Quotient:
    """Orbit partition: x ~ y iff some chain of defined translations joins them.

    For total actions this is the usual group orbit; for partial actions it is
    the connected component of the translation relation (may be smaller than
    the ambient infinite-group orbit; scenario docs carry that caveat).
    Labelled by the module docstring's lemma; an undefined image (-1) reads
    the label of the padding slot, n, which is above every point.
    """
    n, act = gspace.n_points, gspace.action
    partial = act[~gspace.total]
    if partial.size:
        g, x = np.nonzero(partial[:, :n] >= 0)
        back = np.full_like(partial, -1)  # back[g, g.x] = x
        back[g, partial[g, x]] = x
        act = np.concatenate([act, back])
    label = np.arange(n + 1)
    while True:
        new = np.minimum(label, label[act].min(axis=0))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps = np.flatnonzero(label[:n] == np.arange(n))
    orbit_of = np.searchsorted(reps, label[:n])
    order = np.argsort(orbit_of, kind="stable")
    offsets = np.searchsorted(orbit_of[order], np.arange(reps.size + 1))
    edges = gspace.space.edges
    ends = orbit_of[np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=2 * len(edges)).reshape(-1, 2)]
    adjacency = np.zeros((reps.size, reps.size), dtype=bool)
    adjacency[ends[:, 0], ends[:, 1]] = adjacency[ends[:, 1], ends[:, 0]] = True
    np.fill_diagonal(adjacency, False)
    for a in (orbit_of, reps, order, offsets, adjacency):
        a.setflags(write=False)
    return Quotient(n_orbits=reps.size, orbit_of=orbit_of, representative=reps, order=order,
                    offsets=offsets, adjacency=adjacency)


def orbit_minima(quotient: Quotient, table: np.ndarray) -> np.ndarray:
    """Entry (a, b), a < b, mirrored: the least table[x, y] over lifts x of a
    and y of b; zero diagonal. A minimum adds no floats, so it is exact."""
    k = quotient.n_orbits
    order, starts = quotient.order, quotient.offsets[:-1]
    blocks = np.minimum.reduceat(table[order], starts, axis=0)
    blocks = np.minimum.reduceat(blocks[:, order], starts, axis=1)
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
        adjacent = orbits.adjacency | np.eye(n, dtype=bool)
        d = apsp(np.where(adjacent, orbit_minima(orbits, gspace.space.base_metric), np.inf))
        if np.isinf(d).any():
            p, q = map(int, np.argwhere(np.isinf(d))[0])
            raise ValidationError("DisconnectedQuotient", "quotient adjacency is not connected", (p, q))
        _check_metric_table(d, tol)
    else:
        raise ValidationError("InvalidParams", f"unknown quotient metric mode {mode!r}")

    d.setflags(write=False)
    return replace(orbits, d=d)

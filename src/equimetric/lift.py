"""The metric lift: allowability graphs and all-pairs shortest paths.

The infimum over allowable sequences collapses to a shortest-path problem
because every step cost is nonnegative and additive; optimal witnesses are
simple paths. Three edge regimes:

general: consecutive points share a slice or an orbit; step cost is the
    quotient distance plus the orbital distance (one of the two is zero).
cover: consecutive points share a small set (an elementary component of a
    quotient-ball preimage passing the degeneracy test); no orbital term.
naive: consecutive points merely lie in a common elementary set, i.e. any
    cross-orbit pair qualifies. This reproduces the classical failure mode:
    the lift stays a pseudometric only in the sampling limit, visible here
    as step costs that shrink under refinement.

Cover small sets read each preimage off one row of the quotient table and
search its components over the space's adjacency. Whether a component's
image is convex depends only on its orbit set, so it is decided once per
orbit set within a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spath import apsp
from .errors import ValidationError
from .gspace import SampledGSpace, component_of, graph_components
from .orbital import OrbitalMetric
from .quotient import Quotient
from .slices import SliceFamily, _candidate_radii


@dataclass(frozen=True)
class AllowabilityGraph:
    n_points: int
    mode: str
    edges: tuple  # (u, v, weight, kind) with u < v
    small_sets: tuple = ()  # cover mode: the accepted elementary components

    def weight_matrix(self) -> np.ndarray:
        w = np.full((self.n_points, self.n_points), np.inf)
        np.fill_diagonal(w, 0.0)
        for u, v, weight, _ in self.edges:
            if weight < w[u, v]:
                w[u, v] = w[v, u] = weight
        return w


@dataclass(frozen=True)
class LiftedMetric:
    rho: np.ndarray
    mode: str
    components: tuple  # connected components of the allowability graph
    graph: AllowabilityGraph
    tol: float = 1e-9
    _weights: np.ndarray = field(default=None, compare=False, repr=False)
    _witness_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def connected(self) -> bool:
        return len(self.components) <= 1

    def witness(self, x: int, y: int):
        """Deterministic minimal-cost path realizing rho(x, y) (computed on
        demand and cached), or None when the pair is disconnected."""
        key = (x, y)
        if key not in self._witness_cache:
            if x == y:
                path = (x,)
            elif np.isfinite(self.rho[x, y]):
                path = _witness_path(self._weights, self.rho, x, y, self.tol)
            else:
                path = None
            self._witness_cache[key] = path
        return self._witness_cache[key]


def _is_elementary(quotient: Quotient, comp) -> bool:
    orbs = [quotient.orbit_of[p] for p in comp]
    return len(orbs) == len(set(orbs))


def _image_is_convex(quotient: Quotient, orbs, tol: float) -> bool:
    """The quotient image of an elementary component must carry its global
    distances internally; otherwise chains through the component can move
    far in the space while the quotient thinks they moved a little (the
    shortcut behind the pseudometric degeneracy). Depends only on the
    component's orbit set orbs."""
    orbs = sorted(orbs)
    k = len(orbs)
    if k <= 2:
        return True
    pos = {q: i for i, q in enumerate(orbs)}
    w = np.full((k, k), np.inf)
    np.fill_diagonal(w, 0.0)
    for a, b in quotient.quotient_adjacency:
        if a in pos and b in pos:
            w[pos[a], pos[b]] = w[pos[b], pos[a]] = quotient.d[a, b]
    internal = apsp(w)
    for i, a in enumerate(orbs):
        for j, b in enumerate(orbs):
            if abs(internal[i, j] - quotient.d[a, b]) > tol:
                return False
    return True


def cover_small_sets(gspace: SampledGSpace, quotient: Quotient,
                     enlargement_factor: float = 1.0, tol: float = 1e-9) -> tuple:
    """Small sets for the covering lift: per quotient ball center, the
    components of the preimage at the largest radius where every component
    is elementary with a convex image. enlargement_factor > 1 additionally
    requires the enlarged ball's components to stay elementary (the
    conservative safety margin of the continuum construction)."""
    if quotient.d is None:
        raise ValidationError("InvalidParams", "quotient metric required for cover mode")
    adjacency = gspace.space.adjacency
    orbit_of = np.asarray(quotient.orbit_of)
    convex = {}  # orbit set -> _image_is_convex

    def components(key, r):
        alive = set(np.flatnonzero(key < r).tolist())
        comps, seen = [], set()
        for p in sorted(alive):
            if p not in seen:
                comps.append(component_of(adjacency, p, alive))
                seen |= comps[-1]
        return comps

    def is_convex(comp):
        orbs = frozenset(quotient.orbit_of[p] for p in comp)
        if orbs not in convex:
            convex[orbs] = _image_is_convex(quotient, orbs, tol)
        return convex[orbs]

    sets = set()
    for q in range(quotient.n_orbits):
        key = quotient.d[q][orbit_of]
        for r in _candidate_radii(quotient, q):
            comps = components(key, r)
            if not all(_is_elementary(quotient, c) for c in comps):
                continue
            if not all(is_convex(c) for c in comps):
                continue
            if enlargement_factor > 1.0:
                if not all(_is_elementary(quotient, c) for c in components(key, r * enlargement_factor)):
                    continue
            for c in comps:
                sets.add(frozenset(c))
            break
    # drop sets contained in another accepted set; edges are unaffected
    maximal = [s for s in sets if not any(s < t for t in sets)]
    return tuple(sorted(maximal, key=sorted))


def build_allowability_graph(gspace: SampledGSpace, quotient: Quotient,
                             family: SliceFamily = None, d_O: OrbitalMetric = None,
                             mode: str = "general", enlargement_factor: float = 1.0,
                             tol: float = 1e-9) -> AllowabilityGraph:
    n = gspace.n_points
    d = quotient.d
    p = quotient.orbit_of
    edges = []

    if mode == "general":
        if d_O is None:
            raise ValidationError("NoOrbitalMetric", "general mode requires an orbital metric")
        if family is None:
            raise ValidationError("InvalidParams", "general mode requires a slice family")
        for u in range(n):
            for v in range(u + 1, n):
                if u in family.slice_of[v] or v in family.slice_of[u]:
                    dov = d_O.values[u, v]
                    if np.isnan(dov):
                        continue
                    edges.append((u, v, float(d[p[u], p[v]]) + float(dov), "slice"))
        rows = gspace.action.tolist()
        for u in range(n):
            for row in rows:
                gu = row[u]
                if gu <= u:  # also where undefined (-1)
                    continue
                dov = d_O.values[u, gu]
                if np.isnan(dov):
                    continue
                edges.append((u, gu, float(dov), "orbit"))
        return AllowabilityGraph(n_points=n, mode=mode, edges=tuple(sorted(edges)))

    if mode == "cover":
        sets = cover_small_sets(gspace, quotient, enlargement_factor, tol)
        seen = set()
        for s in sets:
            pts = sorted(s)
            for i, u in enumerate(pts):
                for v in pts[i + 1 :]:
                    if (u, v) not in seen:
                        seen.add((u, v))
                        edges.append((u, v, float(d[p[u], p[v]]), "cover"))
        return AllowabilityGraph(n_points=n, mode=mode, edges=tuple(sorted(edges)), small_sets=sets)

    if mode == "naive":
        for u in range(n):
            for v in range(u + 1, n):
                if p[u] != p[v]:
                    edges.append((u, v, float(d[p[u], p[v]]), "naive-elementary"))
        return AllowabilityGraph(n_points=n, mode=mode, edges=tuple(sorted(edges)))

    raise ValidationError("InvalidParams", f"unknown lift mode {mode!r}")


def _witness_path(w: np.ndarray, rho: np.ndarray, x: int, y: int, tol: float) -> tuple:
    """Lexicographically smallest minimal-cost path, grown greedily: at each
    step take the smallest next vertex that stays on a shortest path."""
    path = [x]
    current = x
    guard = 0
    while current != y:
        guard += 1
        if guard > w.shape[0]:
            return None
        nxt = None
        for v in range(w.shape[0]):
            if v == current or not np.isfinite(w[current, v]):
                continue
            if rho[v, y] < rho[current, y] and \
                    abs(w[current, v] + rho[v, y] - rho[current, y]) <= tol:
                nxt = v
                break
        if nxt is None:
            return None
        path.append(nxt)
        current = nxt
    return tuple(path)


def lift_metric(graph: AllowabilityGraph, tol: float = 1e-9) -> LiftedMetric:
    n = graph.n_points
    w = graph.weight_matrix()
    rho = apsp(w)
    rho.setflags(write=False)

    finite_edges = {(u, v) for u, v, _, _ in graph.edges}
    comps = graph_components(n, finite_edges)

    return LiftedMetric(rho=rho, mode=graph.mode,
                        components=tuple(tuple(c) for c in comps),
                        graph=graph, tol=tol, _weights=w)

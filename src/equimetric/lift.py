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

Cover small sets. For a quotient centre q give each point v the key
d(q, p(v)); the preimage of the open ball of radius r around q holds the
points of key < r. The reference scan (`tests/oracles.py`) tries q's
candidate radii in descending order and keeps the first whose components
are all elementary (no orbit twice) with convex images, and, when the
enlargement factor f exceeds 1, whose radius r * f also gives elementary
components. Two facts replace its search per radius:

Monotone non-elementarity. One union-find sweep over the points in
(key, index) order (Tarjan 1975) gives the components of every {key < r},
since each is a prefix of the sweep. Let K be the key of the point whose
merge first puts one orbit into a component twice (K = inf if none). A
component only grows as r grows, so {key < r} is elementary exactly when
it leaves that point out, that is when r <= K. The sweep stops there, every
larger radius is skipped unseen, and r * f is elementary exactly when
r * f <= K.

Convexity in rounds. Whether an image is convex depends only on its orbit
set, so each orbit set is decided once. The centres walk down their
elementary radii together: in each round every open centre passes the
components already decided convex, in the order of their least points,
moves to its next radius at one decided non-convex, and otherwise asks for
the first undecided one. The asked-for orbit sets are decided by one
stacked apsp per set size. A centre accepts the same radius as the scalar
scan, and the rounds decide only orbit sets that the scan tests, with its
short cut at the first non-convex component: all of them at f <= 1, and at
f > 1 those left once the radii with r * f > K are dropped.

An image is convex when no entry of its internal shortest-path table is
off d by more than tol. The asked-for sets of one size are decided in two
steps. Refute: the two rows of each set's diameter pair (the first argmax
of d over the set, row-major), from one stacked ``apsp(..., sources=)``
blocked by its own 2 * size cells a set. These are bitwise rows of the
full table, so a row off by more than tol decides "non-convex" exactly,
and a convex set is never refuted. Confirm: the full table of each set
left, by one stacked apsp as before. When the full tables of all the
sets fit one ``gspace._BLOCK`` block the refutation is skipped: one call
is then cheaper than two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .spath import apsp
from .errors import ValidationError
from . import gspace as _gspace  # its _BLOCK is read at call time
from .gspace import SampledGSpace, _orbit_minima, _row_blocks, component_of
from .orbital import OrbitalMetric
from .quotient import Quotient
from .slices import SliceFamily, _candidate_radii


@dataclass(frozen=True)
class AllowabilityGraph:
    n_points: int
    mode: str
    edges: tuple  # (u, v, weight, kind) with u < v
    small_sets: tuple = ()  # cover mode: the accepted elementary components
    # the G-space the graph was built on: ``lift_metric`` takes its total
    # elements as the symmetries the weights may have
    gspace: SampledGSpace = field(default=None, compare=False, repr=False)

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


def _sweep(adjacency, orbit_of, key, radii) -> tuple:
    """(limit, parts) for one quotient centre. limit is the key of the first
    merge that puts one orbit into a component twice (inf if none); parts[i]
    holds the distinct orbit sets, as bit masks, of the components of
    {key < radii[i]} with more than two orbits, in the order of their least
    points, for each ascending radius up to limit.

    One union-find sweep over the points in (key, index) order; a radius is
    recorded when the sweep reaches the first point of key >= it."""
    n = len(adjacency)
    parent = list(range(n))
    # read at roots; mask is 0 until the point is swept
    mask, size, least = [0] * n, [1] * n, list(range(n))
    big = set()  # roots of components with more than two orbits
    parts = []

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def record():
        ranked = sorted((least[r], mask[r]) for r in big)
        parts.append(tuple(dict.fromkeys(m for _, m in ranked)))

    order = np.argsort(key, kind="stable")
    nxt = radii[0] if radii else np.inf
    for w, kw in zip(order.tolist(), key[order].tolist()):
        while kw >= nxt:
            record()
            nxt = radii[len(parts)] if len(parts) < len(radii) else np.inf
        root = w
        mask[w] = 1 << orbit_of[w]
        for u in adjacency[w]:
            if not mask[u]:
                continue
            ru = find(u)
            if ru == root:
                continue
            if mask[root] & mask[ru]:
                return kw, parts
            if size[root] < size[ru]:
                root, ru = ru, root
            parent[ru] = root
            mask[root] |= mask[ru]
            size[root] += size[ru]
            least[root] = min(least[root], least[ru])
            big.discard(ru)
            if size[root] > 2:
                big.add(root)
    while len(parts) < len(radii):
        record()
    return np.inf, parts


def _convex_images(quotient: Quotient, masks, tol: float) -> dict:
    """mask -> whether the quotient image with that orbit set carries its
    global distances internally; otherwise chains through a component can
    move far in the space while the quotient thinks they moved a little
    (the shortcut behind the pseudometric degeneracy). Per orbit-set size,
    over each set's orbits in ascending order, refuted by the diameter rows
    unless the full tables fit one block, then confirmed by the full table
    (see "Convexity in rounds" above)."""
    d, k = np.ascontiguousarray(quotient.d), quotient.n_orbits
    w = np.full((k, k), np.inf)
    np.fill_diagonal(w, 0.0)
    for a, b in quotient.quotient_adjacency:
        w[a, b] = w[b, a] = d[a, b]
    nbytes = (k + 7) // 8
    by_size = {}
    for m in masks:
        by_size.setdefault(m.bit_count(), []).append(m)
    out = {}
    for size, group in by_size.items():
        raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in group), np.uint8)
        bits = np.unpackbits(raw.reshape(len(group), nbytes), axis=1, bitorder="little")
        orbs = np.nonzero(bits)[1].reshape(len(group), size)
        convex = np.ones(len(group), dtype=bool)
        if len(group) * size * size > _gspace._BLOCK:
            # refute by the rows of each set's diameter pair, the first
            # argmax of d over the set, row-major: rows of its full table
            for rows in _row_blocks(len(group), 2 * size):
                cells = orbs[rows, :, None] * k + orbs[rows, None, :]  # flat (a, b) of each sub-table
                sub = d.take(cells)
                ends = np.stack(np.divmod(sub.reshape(len(sub), -1).argmax(axis=1), size), axis=1)
                want = np.take_along_axis(sub, ends[:, :, None], axis=1)
                convex[rows] = ~(np.abs(apsp(w.take(cells), ends) - want) > tol).any(axis=(1, 2))
        # confirm: the full table of every set not refuted
        left = np.flatnonzero(convex)
        for rows in _row_blocks(len(left), size * size):  # 1 << 18 cells ran circle(384, 4) twice as slow
            sets = orbs[left[rows]]
            cells = sets[:, :, None] * k + sets[:, None, :]
            convex[left[rows]] = ~(np.abs(apsp(w.take(cells)) - d.take(cells)) > tol).any(axis=(1, 2))
        out.update(zip(group, convex.tolist()))
    return out


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
    keys = quotient.d[:, orbit_of]  # row q: d(q, p(v)) per point v

    # per centre, its elementary radii ascending, each with its parts
    todo = {}
    for q in range(quotient.n_orbits):
        radii = _candidate_radii(quotient, q)[::-1]
        limit, parts = _sweep(adjacency, quotient.orbit_of, keys[q], radii)
        todo[q] = [(r, masks) for r, masks in zip(radii, parts)
                   if enlargement_factor <= 1.0 or r * enlargement_factor <= limit]

    # descending rounds: each open centre walks down its radii while the
    # orbit sets met are decided, and asks for the first undecided one
    convex, accepted = {}, {}
    while todo:
        wanted = {}
        for q, stack in list(todo.items()):
            while stack:
                r, masks = stack[-1]
                m = next((m for m in masks if not convex.get(m, False)), None)
                if m is None:
                    accepted[q] = r
                    break
                if m in convex:
                    stack.pop()
                else:
                    wanted[m] = None
                    break
            if q in accepted or not stack:
                del todo[q]
        convex.update(_convex_images(quotient, wanted, tol))

    sets = set()
    for q, r in accepted.items():
        alive = set(np.flatnonzero(keys[q] < r).tolist())
        while alive:
            comp = component_of(adjacency, min(alive), alive)
            sets.add(frozenset(comp))
            alive -= comp
    # drop sets contained in another accepted set; edges are unaffected. A
    # superset of s holds the least point of s.
    holding = {}
    for t in sets:
        for p in t:
            holding.setdefault(p, []).append(t)
    maximal = [s for s in sets if not any(s < t for t in holding[min(s)])]
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
        # slice edges at u < v with u in S_v or v in S_u; an orbit edge per
        # g and u with g.u > u (not -1), duplicates kept; nan d_O skipped
        joined = family.membership[:, :n]
        orbit = np.asarray(p, dtype=np.intp)
        u, v = np.nonzero(np.triu(joined | joined.T, 1))
        dov = d_O.values[u, v]
        keep = ~np.isnan(dov)
        u, v = u[keep], v[keep]
        weight = d[orbit[u], orbit[v]] + dov[keep]
        edges += zip(u.tolist(), v.tolist(), weight.tolist(), repeat("slice"))
        g, u = np.nonzero(gspace.action[:, :n] > np.arange(n))
        v = gspace.action[g, u]
        dov = d_O.values[u, v]
        keep = ~np.isnan(dov)
        edges += zip(u[keep].tolist(), v[keep].tolist(), dov[keep].tolist(), repeat("orbit"))
        return AllowabilityGraph(n_points=n, mode=mode, edges=tuple(sorted(edges)), gspace=gspace)

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
        return AllowabilityGraph(n_points=n, mode=mode, edges=tuple(sorted(edges)), small_sets=sets, gspace=gspace)

    if mode == "naive":
        for u in range(n):
            for v in range(u + 1, n):
                if p[u] != p[v]:
                    edges.append((u, v, float(d[p[u], p[v]]), "naive-elementary"))
        return AllowabilityGraph(n_points=n, mode=mode, edges=tuple(sorted(edges)), gspace=gspace)

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
    """Shortest paths over the allowability graph. Every edge weight is
    finite, so a component is the finite row of rho at its least point; the
    components go in the order of their least points.

    Symmetry. When the weights are bitwise invariant under the total
    elements' generators (``SampledGSpace.total_generators``), they are
    invariant under every total element g, and so is the table: row g.m is
    row m moved by g, rho[g.m, y] = rho[m, g^-1.y], bit for bit, since dense
    Dijkstra's table does not depend on its tie rule (``spath``). So only
    the rows of the orbit minima m are searched (``apsp(..., sources=)``),
    and each total element g writes the rows g.m from them, a block of
    elements at a time (at most ``_BLOCK`` cells): every point is some g.m,
    and g runs over the group that was tested. Otherwise, without a
    G-space, or when the whole search fits one block (``_orbit_minima``),
    every row is searched."""
    n = graph.n_points
    w = graph.weight_matrix()
    gs = graph.gspace
    minima = None if gs is None else _orbit_minima(w, gs.action[gs.total_generators, :n])
    if minima is None:
        rho = apsp(w)
    else:
        rows = apsp(w, sources=minima)
        rho = np.empty((n, n))
        totals = np.flatnonzero(gs.total)
        for block in _row_blocks(len(totals), len(minima) * n):  # rows g.m of a block of elements g
            g = totals[block]
            rho[gs.action[g][:, minima]] = rows[:, gs.action[gs.group.inv[g], :n]].swapaxes(0, 1)
    rho.setflags(write=False)
    least = np.where(np.isfinite(rho), np.arange(n), n).min(axis=1, initial=n)
    comps = tuple(tuple(np.flatnonzero(least == x).tolist())
                  for x in np.flatnonzero(least == np.arange(n)).tolist())

    return LiftedMetric(rho=rho, mode=graph.mode, components=comps,
                        graph=graph, tol=tol, _weights=w)

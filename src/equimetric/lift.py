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
Every edge weight is finite, so the lift's components, one
``gspace.components`` labelling of the edges, are where rho is finite.

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
the first undecided one, unless its last non-convex set refutes it
(Inheritance). Asked-for sets are decided by one stacked apsp per size. A
centre accepts the same radius as the scalar scan, and the rounds decide
only orbit sets that the scan tests, with its short cut at the first
non-convex component: all of them at f <= 1, and at f > 1 those left once
the radii with r * f > K are dropped.

An image is convex when no entry of its internal shortest-path table is
off d by more than tol. Refute: the rows of each set's diameter pair (the
first argmax of d over it, row-major), by ``apsp(..., sources=)``; they are
bitwise rows of the full table. Confirm: the full table of each set left.
When all the full tables fit one ``gspace._BLOCK`` block, the refutation
is skipped: one call is cheaper than two.

Inheritance. A set decided non-convex keeps its above rows: (a, mask of
the c with dist(a, c) - d(a, c) > tol), from the rows that decided it.
An apsp entry is the least, over paths, of the left-to-right float sums
(``spath``), so removing orbits never lowers it, bit for bit: a subset
holding a and such a c is non-convex. A centre's next set m within its
last non-convex set is so refuted, with no apsp, and keeps those rows
restricted to m. Only "above" inherits: an explicit table's row may fall
below d by more than tol where a subset's does not.

Cover centres. Let s be one of the space's symmetries (each maps the edges
onto the edges, ``SampledSpace.symmetries``) that maps every orbit onto an
orbit, and s(o) the orbit it maps o onto. When d and the quotient
adjacency are bitwise invariant under that permutation of the orbits,
centre q and centre s(q) accept the same radius, and the sets of s(q) are
the images under s of the sets of q. Every step moves with s:

- keys: d(s(q), p(s v)) = d(s(q), s(p(v))) = d(q, p(v)) bit for bit, so
  the preimage of each ball of s(q) is the image of q's, and the two rows
  of d, and so the candidate radii, agree;
- elementarity limits: s is a graph automorphism that maps orbits onto
  orbits, so a component of one preimage is elementary exactly when its
  image is, and the limit K, the least radius whose preimage is not
  elementary, is the same;
- convexity verdicts: the image of an orbit set is the same quotient
  sub-table with its orbits relabelled, and so, by the tie-rule lemma of
  ``spath``, is its shortest-path table, entry for entry;
- components: s maps the components of q's accepted preimage onto those
  of s(q)'s.

So ``cover_small_sets`` runs the sweep and the convexity rounds only for
the root of each orbit of these permutations (``_transversal``, whose
roots are the least centres of their orbits), and gives every centre its
root's radius; the components at that radius are the images of the
root's sets. Each condition is tested: the symmetries by
``SampledSpace.symmetries``, the orbit and table conditions by
``_centre_roots``. Where n^3 cells fit
one ``gspace._BLOCK`` block every centre runs, as the tests cost more
than they save there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .spath import apsp
from .errors import ValidationError
from . import gspace as _gspace  # its _BLOCK is read at call time
from .gspace import SampledGSpace, _check_scalar, _keeps, _row_blocks, components
from .orbital import OrbitalMetric
from .quotient import Quotient
from .slices import SliceFamily, _candidate_radii


# ``AllowabilityGraph.kind`` codes; orbit < slice, as the names sort
EDGE_KINDS = ("orbit", "slice", "cover", "naive-elementary")


@dataclass(frozen=True, eq=False)
class AllowabilityGraph:
    n_points: int
    mode: str
    # read-only arrays, an entry per edge sorted by (u, v, weight, kind),
    # duplicates kept: np.intp u < v, float64 weight, int8 EDGE_KINDS code
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    kind: np.ndarray = field(repr=False)
    small_sets: tuple = ()  # cover mode: the accepted elementary components
    # the G-space the graph was built on: ``lift_metric`` takes its total
    # elements as the symmetries the weights may have
    gspace: SampledGSpace = field(default=None, repr=False)

    def __post_init__(self):
        for a in (self.u, self.v, self.weight, self.kind):
            a.setflags(write=False)

    @cached_property
    def edges(self) -> tuple:
        """(u, v, weight, kind name) per edge: a read-only view of the arrays."""
        kinds = map(EDGE_KINDS.__getitem__, self.kind.tolist())
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.weight.tolist(), kinds))

    def weight_matrix(self) -> np.ndarray:
        """Per pair its least edge weight, the first of equal ones (-0.0)."""
        n = self.n_points
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        order = np.lexsort((self.weight, self.v, self.u))  # stable: ties keep order
        u, v, weight = self.u[order], self.v[order], self.weight[order]
        first = np.diff(u * n + v, prepend=-1) != 0
        w[u[first], v[first]] = w[v[first], u[first]] = weight[first]
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


def _sweep(indptr, indices, orbit_of, key, radii) -> tuple:
    """(limit, parts) for one quotient centre. limit is the key of the first
    merge that puts one orbit into a component twice (inf if none); parts[i]
    holds the distinct orbit sets, as bit masks, of the components of
    {key < radii[i]} with more than two orbits, in the order of their least
    points, for each ascending radius up to limit. indptr, indices (the
    sampling graph's CSR arrays) and orbit_of are lists of Python ints: a
    numpy integer would shift a mask of 64 or more orbits out of its width.

    One union-find sweep over the points in (key, index) order; a radius is
    recorded when the sweep reaches the first point of key >= it, reusing
    the last if no merge since grew ``big``."""
    n = len(indptr) - 1
    parent = list(range(n))
    # read at roots; mask is 0 until the point is swept
    mask, size, least = [0] * n, [1] * n, list(range(n))
    big = set()  # roots of components with more than two orbits
    parts = []
    grown = True

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def record():
        nonlocal grown
        if grown:
            ranked = sorted((least[r], mask[r]) for r in big)
            parts.append(tuple(dict.fromkeys(m for _, m in ranked)))
        else:
            parts.append(parts[-1])
        grown = False

    order = np.argsort(key, kind="stable")
    nxt = radii[0] if radii else np.inf
    for w, kw in zip(order.tolist(), key[order].tolist()):
        while kw >= nxt:
            record()
            nxt = radii[len(parts)] if len(parts) < len(radii) else np.inf
        root = w
        mask[w] = 1 << orbit_of[w]
        for u in indices[indptr[w] : indptr[w + 1]]:
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
                grown = True
    while len(parts) < len(radii):
        record()
    return np.inf, parts


def _above_rows(found, index, orbs, ends, gap, tol: float) -> None:
    """found[i] = the above rows of each set i of index off d by more than
    tol (gap = dist - d) in its rows, of orbits ends."""
    bad = np.flatnonzero((np.abs(gap) > tol).any(axis=(1, 2)))
    above = gap[bad] > tol
    full = np.zeros((*above.shape[:2], orbs.max() + 1), bool)
    np.put_along_axis(full, np.broadcast_to(orbs[index[bad], None], above.shape), above, axis=2)
    packed = np.packbits(full, axis=2, bitorder="little")
    for i, rows, masks, hit in zip(index[bad].tolist(), ends[bad].tolist(), packed, above.any(axis=2).tolist()):
        found[i] = [(a, int.from_bytes(m.tobytes(), "little")) for a, m, h in zip(rows, masks, hit) if h]


def _convex_images(quotient: Quotient, w: np.ndarray, masks, tol: float) -> dict:
    """mask -> None if the quotient image with that orbit set carries its
    distances internally, else its above rows: a chain through it can move
    far while the quotient thinks it moved a little. w: the quotient's edge
    weights."""
    d, k = np.ascontiguousarray(quotient.d), quotient.n_orbits
    nbytes = (k + 7) // 8
    by_size = {}
    for m in masks:
        by_size.setdefault(m.bit_count(), []).append(m)
    out = {}
    for size, group in by_size.items():
        raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in group), np.uint8)
        bits = np.unpackbits(raw.reshape(len(group), nbytes), axis=1, bitorder="little")
        orbs = np.nonzero(bits)[1].reshape(len(group), size)
        found = [None] * len(group)
        if len(group) * size * size > _gspace._BLOCK:
            for rows in _row_blocks(len(group), 2 * size):
                cells = orbs[rows, :, None] * k + orbs[rows, None, :]  # flat (a, b) of each sub-table
                sub = d.take(cells)
                ends = np.stack(np.divmod(sub.reshape(len(sub), -1).argmax(axis=1), size), axis=1)
                want = np.take_along_axis(sub, ends[:, :, None], axis=1)
                _above_rows(found, np.arange(len(group))[rows], orbs, np.take_along_axis(orbs[rows], ends, axis=1),
                            apsp(w.take(cells), ends) - want, tol)
        # confirm: the full table of every set not refuted
        left = np.flatnonzero([f is None for f in found])
        for rows in _row_blocks(len(left), size * size):  # 1 << 18 cells ran circle(384, 4) twice as slow
            sets = orbs[left[rows]]
            cells = sets[:, :, None] * k + sets[:, None, :]
            _above_rows(found, left[rows], orbs, sets, apsp(w.take(cells)) - d.take(cells), tol)
        out.update(zip(group, found))
    return out


def _inherited(rows, parent: int, m: int):
    """parent's above rows restricted to m if they refute m, else None."""
    if m & parent != m:
        return None
    kept = [(a, c & m) for a, c in rows if m >> a & 1 and c & m]
    return kept or None


def _transversal(induced: np.ndarray) -> tuple:
    """A Schreier forest (Sims 1970) of the permutations of range(k) that
    are the rows of ``induced``: (root, steps). The least point of each
    orbit is a root, root[t] is the root of t's orbit, and steps lists
    (t, a, j), t = induced[j, a], in breadth-first order from each root, a
    step per point reached from a point reached before."""
    maps = induced.tolist()
    root = list(range(induced.shape[1]))
    reached = [False] * len(root)
    steps = []
    for r in range(len(root)):
        if reached[r]:
            continue
        reached[r] = True
        walk = [r]
        for a in walk:  # grows while walked
            for j, p in enumerate(maps):
                t = p[a]
                if not reached[t]:
                    reached[t] = True
                    root[t] = r
                    steps.append((t, a, j))
                    walk.append(t)
    return np.array(root, dtype=np.intp), steps


def _centre_roots(gspace: SampledGSpace, quotient: Quotient) -> np.ndarray:
    """Per quotient centre, the root of its orbit in ``_transversal`` of the
    permutations the space's symmetries induce on the orbits, o to the
    orbit of s(o's least point): of those symmetries s that map every
    orbit onto an orbit and whose induced permutation keeps d and the
    adjacency bitwise (module docstring)."""
    orbit_of = quotient.orbit_of
    sym = gspace.space.symmetries
    induced = orbit_of[sym[:, quotient.representative]]
    induced = induced[(orbit_of[sym] == induced[:, orbit_of]).all(axis=1)]
    induced = induced[_keeps(quotient.d, induced)]
    return _transversal(induced[_keeps(quotient.adjacency, induced)])[0]


def cover_small_sets(gspace: SampledGSpace, quotient: Quotient,
                     enlargement_factor: float = 1.0, tol: float = 1e-9) -> tuple:
    """Small sets for the covering lift: per quotient ball center, the
    components of the preimage at the largest radius where every component
    is elementary with a convex image. enlargement_factor > 1 additionally
    requires the enlarged ball's components to stay elementary (the
    conservative safety margin of the continuum construction)."""
    if quotient.d is None:
        raise ValidationError("InvalidParams", "quotient metric required for cover mode")
    _check_scalar(enlargement_factor, "enlargement factor", positive=True)
    _check_scalar(tol, "tolerance")
    n, edges = gspace.n_points, gspace.space.edges
    indptr, indices = gspace.space.indptr.tolist(), gspace.space.indices.tolist()
    keys = quotient.d[:, quotient.orbit_of]  # row q: d(q, p(v)) per point v
    orbit_of = quotient.orbit_of.tolist()  # Python ints: masks past 63 orbits
    w = np.full((quotient.n_orbits,) * 2, np.inf)
    np.fill_diagonal(w, 0.0)
    a, b = np.nonzero(np.triu(quotient.adjacency))  # d[a, b], a < b, both ways
    w[a, b] = w[b, a] = quotient.d[a, b]

    # one centre per orbit of the symmetries (module docstring)
    root = (_centre_roots(gspace, quotient) if n ** 3 > _gspace._BLOCK else np.arange(quotient.n_orbits)).tolist()

    # per centre, its elementary radii ascending, each with its parts
    todo = {}
    for q, radii in enumerate(_candidate_radii(quotient.d)):
        if root[q] != q:
            continue
        radii = radii[::-1]
        limit, parts = _sweep(indptr, indices, orbit_of, keys[q], radii)
        todo[q] = [(r, masks) for r, masks in zip(radii, parts)
                   if enlargement_factor <= 1.0 or r * enlargement_factor <= limit]

    # descending rounds. found: orbit set -> None if convex, else its above
    # rows; last: centre -> its last non-convex set
    found, accepted, last = {}, {}, {}
    while todo:
        wanted = {}
        for q, stack in list(todo.items()):
            while stack:
                r, masks = stack[-1]
                m = next((m for m in masks if m not in found or found[m] is not None), None)
                if m is None:
                    accepted[q] = r
                    break
                if m not in found:
                    rows = _inherited(found[last[q]], last[q], m) if q in last else None
                    if rows is None:
                        wanted[m] = None
                        break
                    found[m] = rows
                    wanted.pop(m, None)
                last[q] = m
                stack.pop()
            if q in accepted or not stack:
                del todo[q]
        found.update(_convex_images(quotient, w, wanted, tol))

    # the components of the accepted preimages, labelled in (centre, point) space
    accepted = {q: accepted[r] for q, r in enumerate(root) if r in accepted}
    alive = keys[list(accepted)] < np.array(list(accepted.values()))[:, None]
    i, e = np.nonzero(alive[:, edges[:, 0]] & alive[:, edges[:, 1]])
    label = components(alive.size, i * n + edges[e, 0], i * n + edges[e, 1])
    comps = {}
    for p, c in zip(np.flatnonzero(alive).tolist(), label[alive.ravel()].tolist()):
        comps.setdefault(c, []).append(p % n)
    sets = set(map(frozenset, comps.values()))
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
    orbit = quotient.orbit_of

    if mode == "general":
        if d_O is None:
            raise ValidationError("NoOrbitalMetric", "general mode requires an orbital metric")
        if family is None:
            raise ValidationError("InvalidParams", "general mode requires a slice family")
        # slice edges at u < v with u in S_v or v in S_u; an orbit edge per
        # g and u with g.u > u (not -1), duplicates kept; nan d_O skipped
        joined = family.membership[:, :n]
        su, sv = np.nonzero(np.triu(joined | joined.T, 1))
        g, ou = np.nonzero(gspace.action[:, :n] > np.arange(n))
        u, v = np.concatenate([su, ou]), np.concatenate([sv, gspace.action[g, ou]])
        dov = d_O.values[u, v]
        weight = np.concatenate([d[orbit[su], orbit[sv]] + dov[: su.size], dov[su.size :]])
        kind = np.repeat(np.int8([EDGE_KINDS.index("slice"), EDGE_KINDS.index("orbit")]), [su.size, ou.size])
        keep = np.flatnonzero(~np.isnan(dov))
        keep = keep[np.lexsort((kind[keep], weight[keep], v[keep], u[keep]))]  # stable, as sorted tuples
        return AllowabilityGraph(n_points=n, mode=mode, u=u[keep], v=v[keep], weight=weight[keep],
                                 kind=kind[keep], gspace=gspace)

    sets = ()
    if mode == "cover":
        sets = cover_small_sets(gspace, quotient, enlargement_factor, tol)
        # one scatter of every (a, c) with a and c in one set: the points of
        # each set in turn, each repeated once per point of its set
        sizes = np.array([len(s) for s in sets], dtype=np.intp)
        pts = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(sizes.sum()))
        reps = np.repeat(sizes, sizes)  # per place in pts: the size of its set
        starts = np.cumsum(reps) - reps  # per place: where its run of pairs starts
        place = np.repeat(np.cumsum(sizes) - sizes, sizes)  # per place: where its set starts
        cols = np.repeat(place - starts, reps) + np.arange(reps.sum())
        joined = np.zeros((n, n), dtype=bool)
        joined[np.repeat(pts, reps), pts[cols]] = True
        u, v = np.nonzero(np.triu(joined, 1))  # row-major: the sorted order
    elif mode == "naive":
        u, v = np.nonzero(np.triu(orbit[:, None] != orbit, 1))
    else:
        raise ValidationError("InvalidParams", f"unknown lift mode {mode!r}")
    kind = np.full(u.size, EDGE_KINDS.index("cover" if mode == "cover" else "naive-elementary"), np.int8)
    return AllowabilityGraph(n_points=n, mode=mode, u=u, v=v, weight=d[orbit[u], orbit[v]], kind=kind,
                             small_sets=sets, gspace=gspace)


def _witness_path(w: np.ndarray, rho: np.ndarray, x: int, y: int, tol: float) -> tuple:
    """Lexicographically smallest minimal-cost path, grown greedily: from c,
    one array test over row c gives the least v != c with w[c, v] finite,
    rho[v, y] < rho[c, y] and |w[c, v] + rho[v, y] - rho[c, y]| <= tol."""
    to_y = rho[:, y]
    path = [x]
    while path[-1] != y:
        if len(path) > len(to_y):
            return None
        c = path[-1]
        step = np.isfinite(w[c]) & (to_y < to_y[c]) & (np.abs(w[c] + to_y - to_y[c]) <= tol)
        step[c] = False
        if not step.any():
            return None
        path.append(int(step.argmax()))
    return tuple(path)


def _symmetric_apsp(gs: SampledGSpace, w: np.ndarray):
    """rho from one searched row per orbit, or None when that is every row
    (``lift_metric``)."""
    n, group = gs.n_points, gs.group
    gens = gs.total_generators
    gens = gens[_keeps(w, gs.action[gens, :n])]
    sym = gs.space.symmetries
    sym = sym[_keeps(w, sym)]
    if not len(gens) + len(sym):
        return None
    ids = np.arange(n)
    label = components(n, np.tile(ids, len(gens)), gs.action[gens, :n].ravel())
    reps = np.flatnonzero(label == ids)
    sym = sym[(label[sym] == label[sym[:, label]]).all(axis=1)]  # each orbit onto an orbit
    root, steps = _transversal(np.searchsorted(reps, label[sym[:, reps]]))
    sources = np.flatnonzero(root == np.arange(len(reps)))
    if len(sources) == n:
        return None
    rows = np.empty((len(reps), n))
    rows[sources] = apsp(w, sources=reps[sources])
    at = reps.copy()  # per orbit, the point of its row
    back = np.argsort(sym, axis=1)
    for t, a, j in steps:  # row s.p is row p moved by s: rho[s.p, y] = rho[p, s^-1.y]
        at[t] = sym[j, at[a]]
        rows[t] = rows[a][back[j]]
    elems = np.flatnonzero(group._closure(group._mask([group.identity, *gens.tolist()])))
    rho = np.empty((n, n))
    for block in _row_blocks(len(elems), len(reps) * n):  # rows g.p of a block of elements g
        g = elems[block]
        rho[gs.action[g][:, at]] = rows[:, gs.action[group.inv[g], :n]].swapaxes(0, 1)
    return rho


def lift_metric(graph: AllowabilityGraph, tol: float = 1e-9) -> LiftedMetric:
    """Shortest paths over the allowability graph. The components are one
    ``gspace.components`` labelling of the edges, in the order of their
    least points: every edge weight is finite, so rho is finite on each.

    Symmetry. The weights are tested bit for bit (``gspace._keeps``) under
    each generator of the total elements (``SampledGSpace.total_generators``)
    and each of the space's symmetries, and a permutation that fails drops
    out alone. The generators kept generate a group H of total elements,
    and the weights are invariant under every element of H, and so is the
    table: row g.p is row p moved by g, rho[g.p, y] = rho[p, g^-1.y], bit
    for bit, since dense Dijkstra's table does not depend on its tie rule
    (``spath``). The same holds for a symmetry s kept; those that map
    every H-orbit onto an H-orbit induce permutations of the H-orbits. So
    one row is searched per orbit of these (``apsp(..., sources=)``), at the
    least point of the least H-orbit, and ``_transversal`` of the induced
    permutations moves it to one point p of every H-orbit of its orbit:
    row s.p from row p. Then each element g of H writes the rows g.p, a
    block of elements at a time (at most ``_BLOCK`` cells): every point is
    some g.p. Without a G-space, or when the whole search fits one block
    (n^3 cells), or when nothing is kept, every row is searched."""
    n = graph.n_points
    w = graph.weight_matrix()
    gs = graph.gspace
    rho = None if gs is None or n ** 3 <= _gspace._BLOCK else _symmetric_apsp(gs, w)
    if rho is None:
        rho = apsp(w)
    rho.setflags(write=False)
    least = components(n, graph.u, graph.v)
    comps = tuple(tuple(np.flatnonzero(least == x).tolist())
                  for x in np.flatnonzero(least == np.arange(n)).tolist())

    return LiftedMetric(rho=rho, mode=graph.mode, components=comps,
                        graph=graph, tol=tol, _weights=w)

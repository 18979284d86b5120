"""Slice families: construction by shrinking quotient balls, and verification.

A slice at x is the graph component containing x of the preimage of an open
quotient ball centered at the orbit of x. Radii are per-orbit (equivariance
forces this), chosen by a descending scan over realized quotient distances
and shrunk jointly until every family condition holds. If no ball radius
works for an orbit the slices degenerate to singletons, which satisfy every
condition vacuously.

A family has one stored form, the pairs (x, y) with y in S_x
(``SliceFamily.pairs`` and ``offsets``), and one table derived from it
once, ``SliceFamily.membership``. The builder and the verifier share one
scan order per condition: the builder shrinks on the first hit of the
per-orbit checks (orbit meet, translate overlap) and of the condition (ii)
scan, the verifier reports every hit. Openness (*) holds by construction,
so only the verifier scans for it. Five facts keep each stage to passes
over structure built once:

Join keys. For an orbit o give each point v the key d(o, p(v)), and for a
member x of o let b_x(v) be the least, over paths from x to v in the
sampling graph, of the largest key on the path. The preimage of the open
ball of radius r around o holds the points of key < r, so the slice of x
at radius r is S_x(r) = {v : b_x(v) < r}. One union-find sweep over the
points in (key, index) order gives b_x for every member of o (the nested
sublevel-set filtration), and each radius the builder tries is a bisected
prefix of x's points in b_x order. So S_x(r) meets its orbit again exactly
when meet_x, the least b_x over the other members, is below r, and
g.S_x(r) meets S_x(r) exactly when r's prefix is longer than the least
max(j, k) over the points at places j whose images by g lie at places k:
the builder reads both thresholds once, before the first candidate, and
each candidate radius costs two comparisons per member and, below the
meet, one bisection of its keys. Likewise the quotient diameter of each
prefix is a running maximum over the orbits in join order.

Meet lemma. The per-orbit checks read member x's slice size and overlap
lengths only at radii r <= meet_x: at a larger r they return
slice_meets_orbit at x first. A radius is accepted only when every member
passes, and slices only shrink afterwards (repeat lemma), so every S_x the
builder holds, and all that the condition (ii) scan, ``_prefix_diameters``
and the final family read, lies in the cut {v : b_x(v) < meet_x} | {x}
(x alone for the singleton fallback). The only value past the meet ever
read is the least mate with b_x < r, the slice_meets_orbit witness. So
the sweep keeps each member's points and keys only below its meet, with x
always kept, and its least mate as a running least; and it stops once one
component holds every member of an orbit of two or more, after which no
cut grows and no least falls.

Symmetric sweeps. Let s be one of the space's symmetries (it keeps the
base metric and maps edges onto edges, ``SampledSpace.symmetries``) that
maps every orbit onto an orbit, and s(o) the orbit it maps o onto. When d
is bitwise invariant under that permutation of the orbits, the key of s(v)
for s(o) is d(s(o), s(p(v))) = d(o, p(v)), bit for bit, and s maps the
members of o onto those of s(o) and paths onto paths, so b_sx(s v) =
b_x(v). So b, and with it each S_x(r), the meet, the cut and the key at
which the sweep stops, moves with s. Two things do not: the order of equal
keys, which the sweep breaks by index, and the least mate, a least label:
s(x)'s is the least of the images of x's mates joined by then, not the
image of x's. Every read of a join order lands on a key boundary, where
its prefix is a set fixed by b, or on size 1, which is x alone: the
bisected sizes, the overlap verdicts at them, ``_prefix_diameters`` at
size - 1, the sorted condition (ii) scan and ``from_sets``. So the order
[s(v) for v in x's order] serves for s(x), with x's keys. The builder
sweeps only the root of each orbit of these permutations
(``quotient._transversal``, after the tests of
``quotient._quotient_symmetries``), moves the others along its steps, and
rebuilds their least mates by replaying the root's merges with the
sources relabelled (``_meet``): those are the image's merges up to their
order within one key, and a least mate is read only past a whole key, the
last entry with b < r. Where n^3 cells fit one ``gspace._BLOCK`` block,
or no permutation moves an orbit, every orbit is swept and no merge is
recorded.

Repeat lemma. A shrink only shrinks slices: a smaller radius gives a
smaller component, and the singleton fallback keeps only x. Each condition
(ii) violation (x, y, g) needs y in S_x and S_y meeting S_{g.x}, so a shrink
creates no violation and none lies before the last one in (x, y, g) order.
The scan resumes at the last one, (x, y, g) itself, which it re-tests first:
when it still holds it is the next violation.

Translate-overlap lemma. For a total g, g.S_x is the component of g.x in the
G-invariant preimage, that is S_{g.x}. Two components meet only if they are
equal, so g.S_x meets S_x only if g.x lies in S_x, which the orbit-meet
check rules out unless g.x = x. The builder scans only partial elements; the
verifier scans every g, since it judges any family.

Border-edge lemma. With P_x the preimage of the ball of x's radius, a
component of S_y & P_x is mixed (meets S_x without lying in it) iff it holds
an edge (a, c) with a in S_x, c not in S_x and both ends in S_y & P_x. Such
a component holds a point of S_y outside S_x, so the verifier labels only
the pairs (x, y) with S_y not inside S_x and a border edge of S_x in P_x.

The builder holds each S_x as a prefix length of x's join order and, for
the condition (ii) scan, as a Python int bitset and a sorted list, from
which each shrink drops its points. The verifier's checks are
gathers over the pairs and the membership table and, for openness and
connectedness, component labellings (``gspace.components``), in blocks
capped by ``gspace._BLOCK``. ``SliceFamily.slice_of``, the slices as
frozensets, is a view for callers, derived on first access.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ValidationError
from . import gspace as _gspace  # its _BLOCK is read at call time
from .gspace import SampledGSpace, _check_scalar, _point_blocks, _row_blocks, components
from .quotient import Quotient, _quotient_symmetries, _transversal
from .report import ADVISORY, FAIL, PASS, Report


@dataclass(frozen=True, eq=False)
class SliceFamily:
    # read-only np.intp arrays (x, y), y in S_x, ascending; those of x at
    # offsets[x]:offsets[x + 1]
    pairs: tuple = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    radius_of_orbit: tuple  # orbit -> positive float (open-ball radius)
    construction_log: tuple  # records of radii tried and why each shrank
    degenerate: bool  # every slice is a singleton
    # read-only n x (n + 1) bool table, [x, y] iff y in S_x; the last column
    # is all False, so that an undefined image (-1) reads False
    membership: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.offsets.size - 1
        member = np.zeros((n, n + 1), dtype=bool)
        member[self.pairs] = True
        for a in (*self.pairs, self.offsets, member):
            a.setflags(write=False)
        object.__setattr__(self, "membership", member)

    @classmethod
    def from_sets(cls, slice_of, radius_of_orbit, construction_log=(), degenerate=None) -> "SliceFamily":
        """The family with S_x = slice_of[x] (any iterables of points);
        degenerate defaults to "every slice is a singleton"."""
        sizes = [len(s) for s in slice_of]
        x = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
        y = np.fromiter(chain.from_iterable(map(sorted, slice_of)), dtype=np.intp, count=x.size)
        if degenerate is None:
            degenerate = all(k == 1 for k in sizes)
        return cls(pairs=(x, y), offsets=np.cumsum([0] + sizes, dtype=np.intp),
                   radius_of_orbit=tuple(radius_of_orbit), construction_log=tuple(construction_log),
                   degenerate=degenerate)

    @cached_property
    def slice_of(self) -> tuple:
        """point -> frozenset of S_x: a read-only view of the pairs."""
        y, bounds = self.pairs[1].tolist(), self.offsets.tolist()
        return tuple(frozenset(y[a:b]) for a, b in zip(bounds, bounds[1:]))

    def members(self, x: int) -> np.ndarray:
        """S_x as an ascending np.intp array."""
        return self.pairs[1][self.offsets[x] : self.offsets[x + 1]]


def _top_radius(grid) -> float:
    """A radius past every value of an ascending grid (1.0 past none)."""
    return (grid[-1] if grid else 0.0) + 1.0


def value_grid(values) -> list:
    """Sorted distinct positive values with the midpoints between
    consecutive entries. Ball contents over a finite set only change at
    realized values, so this grid is exhaustive for open-ball statements.
    NaN is dropped with the non-positive values; each midpoint is one float
    addition and halving, as in Python. Duplicates go by a sort and a
    neighbour comparison: ``np.unique`` would import ``numpy.ma`` on first
    use, about 1 MB of resident memory. Only positive values are sorted,
    and equal positives share their bits, so the sort's kind cannot show."""
    vals = np.asarray(values, dtype=np.float64)
    vals = np.sort(vals[vals > 0])
    first = np.ones(vals.size, dtype=bool)
    first[1:] = vals[1:] != vals[:-1]
    vals = vals[first]
    out = np.empty(max(2 * vals.size - 1, 0))
    out[0::2] = vals
    out[1::2] = (vals[:-1] + vals[1:]) / 2.0
    return out.tolist()


def _candidate_radii(d: np.ndarray) -> list:
    """Per orbit, its descending open-ball radii: ``value_grid`` of its row
    of the quotient metric d, the diagonal left out, reversed and topped by
    ``_top_radius``, covering the whole quotient. One sort of the rows of d:
    each row's positive values form one run, the distinct ones are those
    unequal to the value before, and the grids of all rows are interleaved
    at once, the midpoint between two rows left unread."""
    vals = np.sort(np.where(np.eye(d.shape[0], dtype=bool), 0.0, d), axis=1)
    keep = vals > 0
    keep[:, 1:] &= vals[:, 1:] != vals[:, :-1]
    flat = vals[keep]
    grid = np.empty(max(2 * flat.size - 1, 0))
    grid[0::2] = flat
    grid[1::2] = (flat[:-1] + flat[1:]) / 2.0
    grid = grid.tolist()
    out, start = [], 0
    for count in np.count_nonzero(keep, axis=1).tolist():
        row = grid[2 * start : 2 * (start + count) - 1] if count else []
        out.append([_top_radius(row)] + row[::-1])
        start += count
    return out


def _join_orders(indptr, indices, key, sources, events=None) -> dict:
    """x -> (points, b, mates) for each source x, cut at its meet (meet
    lemma): the points v joined to x with b_x(v) < meet_x, and x itself,
    in the order they join; their join keys b_x, ascending; and its least
    mate, the least other source joined to x, as a (b, p) entry at each
    decrease. meet_x, the least b_x of another source, is the b of the
    first entry (inf with none). Points never joined to x are left out.
    With a list ``events``, each merge of two components that hold sources
    appends (b, the sources of one, the sources of the other), the
    arguments of its ``_meet``.

    One union-find sweep over the points in (key, index) order. When the
    point w joins, each component it bridges meets the others at b = key[w]:
    every path between them runs through w or through points that came
    later, so no path has a smaller largest key. A component holding one
    source grows that source's points; at its first meet the source drops
    its points of b = key[w], keeping itself. The sweep stops once one
    component holds every source, when there are two or more. Every table
    is a flat list indexed by point (indptr, indices: the CSR arrays), read
    from ``key`` once."""
    n = len(indptr) - 1
    keys = key.tolist()
    parent = list(range(n))
    active = [False] * n
    points = [None] * n  # root -> the points of its component
    held = [None] * n  # root -> the sources in its component
    joined = [None] * n  # source -> its points in join order, below its meet
    b = [None] * n  # source -> the join keys of those points
    mates = [None] * n  # source -> (b, p) per decrease of its least mate
    for x in sources:
        joined[x], b[x], mates[x] = [], [], []
    whole = len(sources) if len(sources) > 1 else None

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for w in np.argsort(key, kind="stable").tolist():
        kw = keys[w]
        root = w
        points[w] = [w]
        held[w] = []
        if joined[w] is not None:
            held[w].append(w)
            joined[w].append(w)
            b[w].append(kw)
        active[w] = True
        for u in indices[indptr[w] : indptr[w + 1]]:
            if not active[u]:
                continue
            ru = parent[u]
            if parent[ru] != ru:
                ru = find(ru)
            if ru == root:
                continue
            mine, theirs = points[root], points[ru]
            ours, others = held[root], held[ru]
            if ours and others:
                for x in chain(ours, others):
                    if not mates[x]:  # x's first meet
                        cut = max(bisect_left(b[x], kw), 1)
                        del joined[x][cut:], b[x][cut:]
                _meet(kw, ours, others, mates)
                if events is not None:
                    events.append((kw, tuple(ours), tuple(others)))
            elif len(ours) == 1:
                joined[ours[0]] += theirs
                b[ours[0]] += [kw] * len(theirs)
            elif len(others) == 1:
                joined[others[0]] += mine
                b[others[0]] += [kw] * len(mine)
            if len(mine) < len(theirs):
                root, ru, mine, theirs = ru, root, theirs, mine
            parent[ru] = root
            mine += theirs
            held[root] += held[ru]
            points[ru] = held[ru] = None
        if len(held[root]) == whole:
            break
    return {x: (joined[x], b[x], mates[x]) for x in sources}


def _meet(kw, ours, others, mates) -> None:
    """Append to mates[x] its least-mate entry from one merge of
    ``_join_orders`` at key kw of components holding the sources ours and
    others: the least source on the other side, when it is below x's last."""
    for side, other in ((ours, others), (others, ours)):
        least = min(other)
        for x in side:
            if not mates[x] or least < mates[x][-1][1]:
                mates[x].append((kw, least))


def _overlap_lengths(moves, orders) -> list:
    """Per point x (S_x a prefix of its join order orders[x]), per row g of
    moves (the partial elements' action rows): the least prefix length past
    which g.S_x meets S_x, or n when g fixes x or no prefix does. With
    place(p) the place of p in x's order (n when not joined, and for the
    image -1), a prefix of length s meets its translate iff some place
    j < s holds a point whose image lies at a place < s, that is iff the
    least max(j, place(g.p_j)) is below s. Blocks of points, capped by
    ``_row_blocks``."""
    n = len(orders)
    if not moves.size:
        return [[]] * n
    out = []
    for rows in _row_blocks(n, moves.shape[0] * n):
        block = orders[rows]
        lengths = [len(pts) for pts in block]
        flat = np.fromiter(chain.from_iterable(block), dtype=np.intp, count=sum(lengths))
        row = np.repeat(np.arange(len(block)), lengths)
        starts = np.cumsum([0] + lengths[:-1])
        place = np.arange(flat.size) - np.repeat(starts, lengths)
        at = np.full((len(block), n + 1), n)
        at[row, flat] = place
        first = np.minimum.reduceat(np.maximum(at[row, moves[:, flat]], place), starts, axis=1)
        own = np.arange(rows.start, rows.start + len(block))
        first[moves[:, own] == own] = n
        out += first.T.tolist()
    return out


def _prefix_diameters(d, orbits) -> list:
    """Entry k: the quotient diameter of the first k + 1 points, whose
    orbits are given in join order (the largest d(a, b) over the orbits
    a < b they meet, 0 for one orbit). A running maximum over the orbits in
    order of first appearance, each adding its largest distance to the ones
    before it."""
    srt = np.argsort(orbits, kind="stable")
    head = np.ones(orbits.size, dtype=bool)
    head[1:] = orbits[srt[1:]] != orbits[srt[:-1]]
    first = np.sort(srt[head])  # where each orbit first appears
    o = orbits[first]
    block = d[np.minimum.outer(o, o), np.maximum.outer(o, o)]
    before = np.arange(o.size)[:, None] > np.arange(o.size)
    step = np.zeros(orbits.size)
    step[first] = np.where(before, block, 0.0).max(axis=1)
    return np.maximum.accumulate(step).tolist()


def build_slice_family(
    gspace: SampledGSpace,
    quotient: Quotient,
    shrink_factor: float = 1.0,
) -> SliceFamily:
    """Greedy largest-radius slice family satisfying all family conditions.

    shrink_factor > 1 divides every candidate radius before use (conservative
    mode mirroring the safety margins of the infinite-space construction);
    the default verifies conditions directly instead.
    """
    if quotient.d is None:
        raise ValidationError("InvalidParams", "quotient metric required before building slices")
    _check_scalar(shrink_factor, "shrink factor", positive=True)

    n = gspace.n_points
    n_orbits = quotient.n_orbits
    log = []

    positive = quotient.d[quotient.d > 0]
    fallback_radius = (float(positive.min()) / 2.0) if positive.size else 0.5

    # candidate stacks per orbit; index points at the radius currently in use
    cands = [[c / shrink_factor for c in radii] for radii in _candidate_radii(quotient.d)]
    # Python ints for the loops, whose points and orbits reach witnesses and the log
    orbit_list, reps = quotient.orbit_of.tolist(), quotient.representative.tolist()
    members = [quotient.members(o).tolist() for o in range(n_orbits)]
    # Per point, from one join-key sweep per orbit, cut at its meet: its
    # join order (S_x is a prefix), b_x in that order, and its least mate.
    # An orbit t = s(a) of the symmetries is moved from a (symmetric sweeps)
    order, keys, mates = [None] * n, [None] * n, [None] * n
    indptr, indices = gspace.space.indptr.tolist(), gspace.space.indices.tolist()
    sym, root, steps = [], range(n_orbits), []
    if n ** 3 > _gspace._BLOCK:
        sym, induced = _quotient_symmetries(gspace, quotient)
        root, steps = _transversal(induced)
        sym, root = sym.tolist(), root.tolist()
    events = {root[t]: [] for t, _, _ in steps}  # per root with images, its merges
    for o in range(n_orbits):
        if root[o] == o:
            orders = _join_orders(indptr, indices, quotient.d[o][quotient.orbit_of], members[o], events.get(o))
            for x, cut in orders.items():
                order[x], keys[x], mates[x] = cut
    for t, a, j in steps:
        s = sym[j]
        for x in members[a]:
            order[s[x]], keys[s[x]], mates[s[x]] = [s[v] for v in order[x]], keys[x], []
        events[t] = [(kw, [s[y] for y in ours], [s[y] for y in others]) for kw, ours, others in events[a]]
        for event in events[t]:
            _meet(*event, mates)
    partial = np.flatnonzero(~gspace.total).tolist()
    reach = _overlap_lengths(gspace.action[partial], order)
    # orbit -> per member x: (x, its cut keys, meet_x, the least prefix
    # length past which a partial element's translate of S_x meets it, and
    # that length per partial element)
    index = [[(x, keys[x], mates[x][0][0] if mates[x] else np.inf, min(reach[x], default=n), reach[x])
              for x in members[o]] for o in range(n_orbits)]
    size_of = [0] * n  # x -> |S_x|
    bits = [0] * n  # x -> S_x as a bitset
    ascending = [None] * n  # x -> S_x as a sorted list

    def rejection(orbit, r):
        """(None, |S_x(r)| per member) if the orbit passes the per-orbit
        checks at radius r, else (the first violation, None): per member x,
        in order, an empty slice raises, then the orbit meet, then a
        translate overlap by a partial element."""
        sizes = []
        for x, b, meet, overlap, lengths in index[orbit]:
            if not b[0] < r:  # the radius is at or below d(p(x), p(x))
                raise ValidationError("EmptyResult", "center orbit not in the quotient set", x)
            if meet < r:  # the least mate of the last decrease below r
                return ("slice_meets_orbit", (x, mates[x][bisect_left(mates[x], (r,)) - 1][1])), None
            size = bisect_left(b, r)
            # Total elements cannot overlap here (translate-overlap lemma):
            # g.S_x = S_{g.x}, which meets S_x only if g.x lies in S_x, and
            # the orbit meet has just ruled that out unless g.x = x.
            if overlap < size:
                return ("translate_overlap", (x, next(g for g, t in zip(partial, lengths) if t < size))), None
            sizes.append(size)
        return None, sizes

    def set_size(x, size):
        """Cut S_x to the prefix of that size; slices only shrink."""
        pts, old = order[x], size_of[x]
        if old == 0:
            s = 0
            for p in pts[:size]:
                s |= 1 << p
            ascending[x] = sorted(pts[:size])
        else:
            s, ys = bits[x], ascending[x]
            for p in pts[size:old]:
                s ^= 1 << p
                del ys[bisect_left(ys, p)]
        bits[x], size_of[x] = s, size

    def settle(orbit, start_idx):
        """Largest candidate from start_idx on passing the per-orbit checks.
        Returns (radius, next_idx) and sets the orbit's slices; falls back to
        singletons, the first point of each join order."""
        for i in range(start_idx, len(cands[orbit])):
            r = cands[orbit][i]
            viol, sizes = rejection(orbit, r)
            if viol is None:
                for x, size in zip(members[orbit], sizes):
                    set_size(x, size)
                return r, i
            log.append({"orbit": orbit, "radius": r, "condition": viol[0], "witness": viol[1]})
        for x in members[orbit]:
            set_size(x, 1)
        log.append({"orbit": orbit, "radius": fallback_radius, "condition": "singleton_fallback", "witness": None})
        return fallback_radius, len(cands[orbit])

    radii = [None] * n_orbits
    idx = [0] * n_orbits
    for o in range(n_orbits):
        radii[o], idx[o] = settle(o, 0)

    # Only condition (ii) is scanned jointly; openness (*) cannot fail here.
    # settle always sets the slices and the radius together for a whole
    # orbit, so S_x is either the component of x in the graph on
    # P_x = p^-1(B(p(x), r_p(x))), or {x} at the singleton fallback. Take y
    # in S_x. Every component C of S_y & P_x is connected inside P_x, so C is
    # a subset of S_x or disjoint from it. In the fallback case, y = x and
    # the cut is {x}.
    moved = [[(g, gx) for g, gx in enumerate(row) if gx >= 0 and gx != x]
             for x, row in enumerate(gspace.action[:, :n].T.tolist())]

    def violation_from(x0, y0, g0):
        """The first condition (ii) violation (x, y, g) at or after
        (x0, y0, g0): y in S_x, g.x defined and != x, S_y meeting S_{g.x};
        x ascending, then y, then g (repeat lemma)."""
        for x in range(x0, n):
            images = moved[x]
            if not images:
                continue
            ys = ascending[x]
            if x == x0:
                k = bisect_left(ys, y0)
                if k < len(ys) and ys[k] == y0:
                    by = bits[y0]
                    for g, gx in images:
                        if g >= g0 and by & bits[gx]:
                            return x, y0, g
                    k += 1
                ys = ys[k:]
            for y in ys:
                by = bits[y]
                for g, gx in images:
                    if by & bits[gx]:
                        return x, y, g
        return None

    diameters = {}  # x -> _prefix_diameters of S_x when first needed

    def diameter(x):
        if x not in diameters:
            diameters[x] = _prefix_diameters(quotient.d, quotient.orbit_of[order[x][: size_of[x]]])
        return diameters[x][size_of[x] - 1]

    viol = violation_from(0, 0, 0)
    while viol is not None:
        x, y, _ = viol
        ox, oy = orbit_list[x], orbit_list[y]
        if ox == oy:
            target = ox
        else:
            dx, dy = diameter(x), diameter(y)
            if dx > dy:
                target = ox
            elif dy > dx:
                target = oy
            else:
                target = ox if reps[ox] < reps[oy] else oy
        log.append({"orbit": target, "radius": radii[target], "condition": "family_condition_ii",
                    "witness": viol})
        if idx[target] >= len(cands[target]):
            # already at the singleton fallback; shrink the other orbit
            target = oy if target == ox else ox
            log.append({"orbit": target, "radius": radii[target], "condition": "family_condition_ii",
                        "witness": viol})
        radii[target], idx[target] = settle(target, idx[target] + 1)
        viol = violation_from(*viol)

    degenerate = all(size == 1 for size in size_of)
    if degenerate:
        log.append({"orbit": None, "radius": None, "condition": "DegenerateFamily", "witness": None})
    return SliceFamily.from_sets([order[x][: size_of[x]] for x in range(n)], radii,
                                 (tuple(sorted(rec.items())) for rec in log), degenerate)


def _any_per_slice(hits, starts, filled):
    """(rows, n) bool from a (rows, pairs) one: does any pair (x, y) of S_x
    hold True, for each point x. starts are the offsets of the nonempty
    slices (filled), so each reduceat segment runs to the next nonempty
    slice, which is the end of its own; an empty slice holds no pair."""
    out = np.zeros((hits.shape[0], filled.size), dtype=bool)
    out[:, filled] = np.logical_or.reduceat(hits, starts, axis=1)
    return out


def verify_slice_family(gspace: SampledGSpace, quotient: Quotient, family: SliceFamily) -> Report:
    """Exhaustive pass/fail per condition; witnesses are (x, y, g) style.

    Each check is a gather over the pairs (x, y) and the membership table,
    in blocks of at most ``gspace._BLOCK`` cells: blocks of slices and of
    elements g for the translate overlap, the stabilizer invariance and the
    equivariance, and blocks of pairs for the rest, with the slices packed
    into bytes for one pass that decides condition (ii) and marks the loose
    pairs of the nesting statistic. Openness and
    connectedness label components, openness only for the pairs whose
    gather finds a border edge. The stabilizer check counts h as moving S_x
    when some image lies outside S_x: an action row is injective where
    defined, so h.S_x = S_x exactly when every image lies in S_x."""
    rep = Report()
    n = gspace.n_points
    edges = gspace.space.edges
    act = gspace.action
    px, py = family.pairs
    member = family.membership
    sizes = np.diff(family.offsets)
    filled = sizes > 0
    points = np.arange(n)
    orbit_of = quotient.orbit_of

    v = [(x,) for x in np.flatnonzero(~member[points, points]).tolist()]
    rep.add("slice_contains_center", FAIL if v else PASS, v)

    # One pass over blocks of slices and of elements g, reading g.y for each
    # pair (x, y); the membership table reads an undefined image (-1) as
    # outside. Four per-pair tests are reduced per slice at once: g.y in S_x,
    # g.y outside S_x, g.y undefined, and g.y outside S_{g.x}, which counts
    # only for a total g (elsewhere g.x may be -1 and is masked).
    overlap, unstable, unequal = [], [], []
    order = gspace.group.order
    for x0, x1 in _point_blocks(family.offsets, 4 * order):
        lo, hi = family.offsets[x0], family.offsets[x1]
        bx, by = px[lo:hi], py[lo:hi]
        full = filled[x0:x1]
        begin = family.offsets[x0:x1][full] - lo
        for rows in _row_blocks(order, 4 * (hi - lo)):
            block = act[rows]
            img, own = block[:, by], block[:, x0:x1]  # g.y per pair, g.x per point
            fixed = own == points[x0:x1]
            inside = member[bx, img]
            tests = [inside, ~inside, img < 0, ~member[block[:, bx], img]]
            met, out, undefined, moved = _any_per_slice(np.concatenate(tests), begin, full).reshape(4, len(img), -1)
            for found, hit in (
                (overlap, met & ~fixed),  # every g: the family need not be built from balls
                (unstable, out & fixed & ~undefined),  # h fixing x, defined on S_x, moving some y out
                # total g: g.S_x = S_{g.x} iff both have one size and every
                # g.y lies in S_{g.x}
                (unequal, (moved | (sizes[own] != sizes[x0:x1])) & gspace.total[rows, None]),
            ):
                if hit.any():
                    g, x = hit.nonzero()
                    found += zip((x + x0).tolist(), (g + rows.start).tolist())
    rep.add("slice_translate_overlap", FAIL if overlap else PASS, sorted(overlap))
    rep.add("slice_stabilizer_invariance", FAIL if unstable else PASS, sorted(unstable))
    unequal.sort(key=lambda w: (w[1], w[0]))
    rep.add("family_equivariance", FAIL if unequal else PASS, unequal)

    # the least orbit mate of x in S_x: the first such pair of x
    v = []
    k = np.flatnonzero((orbit_of[py] == orbit_of[px]) & (py != px))
    if k.size:
        first = np.ones(k.size, dtype=bool)
        first[1:] = px[k[1:]] != px[k[:-1]]
        v = list(zip(px[k[first]].tolist(), py[k[first]].tolist()))
    rep.add("slice_meets_orbit_once", FAIL if v else PASS, v)

    # (x, y, g) with g.x defined and != x and S_y meeting S_{g.x}: the rows
    # of the table packed into bytes, with a zero row n for an undefined
    # image; blocks of pairs, each against every g. The same pass marks the
    # loose pairs of the nesting statistic: S_y holds a point outside S_x
    width = (n + 7) // 8
    packed = np.zeros((n + 1, width), dtype=np.uint8)
    packed[:n] = np.packbits(member[:, :n], axis=1)
    loose = np.zeros(px.size, dtype=bool)
    v = []
    for block in _row_blocks(px.size, gspace.group.order * width):
        x, y = px[block], py[block]
        gx = act[:, x].T
        row_y = packed[y]
        loose[block] = (row_y & ~packed[x]).any(axis=1)
        hit = (packed[gx] & row_y[:, None, :]).any(axis=2)
        hit &= gx != x[:, None]
        if hit.any():
            k, g = hit.nonzero()
            v += zip(x[k].tolist(), y[k].tolist(), g.tolist())
    rep.add("family_condition_ii", FAIL if v else PASS, v)

    # A mixed component of S_y & P_x holds a border edge of S_x (border-edge
    # lemma) and a point of S_y outside S_x: only the loose pairs of points x
    # with a border edge can have one. Their cuts are labelled in (pair,
    # point) space; a mixed component holds points in and out of S_x.
    v = []
    k = np.flatnonzero(loose)
    if k.size:
        in_ball = (quotient.d < np.asarray(family.radius_of_orbit, dtype=np.float64)[:, None])[:, orbit_of]
        bordered = np.zeros(n, dtype=bool)
        bordered[px[k]] = True
        xs = np.flatnonzero(bordered)
        for block in _row_blocks(xs.size, n + 4 * len(edges)):
            ends_in, ends_near = member[xs[block]][:, edges.T], in_ball[orbit_of[xs[block]]][:, edges.T]
            bordered[xs[block]] = ((ends_in[:, 0] != ends_in[:, 1]) & ends_near.all(axis=1)).any(axis=1)
        k = k[bordered[px[k]]]
        for block in _row_blocks(k.size, 12 * n + 2 * len(edges)):
            x, y = px[k[block]], py[k[block]]
            cut = member[y, :n] & in_ball[orbit_of[x]]
            i, e = np.nonzero(cut[:, edges[:, 0]] & cut[:, edges[:, 1]])
            label = components(cut.size, i * n + edges[e, 0], i * n + edges[e, 1])[cut.ravel()]
            sides = np.zeros((cut.size, 2), dtype=bool)  # per label: holds points out of, in S_x
            sides[label, member[x, :n][cut].view(np.int8)] = True
            r, m = np.divmod(np.flatnonzero(sides.all(axis=1)), n)  # by pair, then least point
            v += zip(x[r].tolist(), y[r].tolist(), m.tolist())
    rep.add("openness_condition_star", FAIL if v else PASS, v)

    # S_x is connected when its least point labels all of it: one labelling
    # of a block of slices over the edges inside each, in (x, y) space
    split = ~filled
    for block in _row_blocks(n, 2 * n + len(edges)):
        held = member[block, :n]
        i, e = np.nonzero(held[:, edges[:, 0]] & held[:, edges[:, 1]])
        label = components(held.size, i * n + edges[e, 0], i * n + edges[e, 1]).reshape(held.shape)
        least = label[np.arange(len(held)), held.argmax(axis=1)]
        split[block] |= ((label != least[:, None]) & held).any(axis=1)
    v = [(x,) for x in np.flatnonzero(split).tolist()]
    rep.add("slice_connected", FAIL if v else PASS, v)

    if (sizes == 1).all():
        rep.add("degenerate_family", ADVISORY, [("all slices are singletons",)])

    rep.add("strong_nesting_statistic", ADVISORY, [],
            (int(np.count_nonzero(loose)) / px.size) if px.size else 0.0)

    return rep

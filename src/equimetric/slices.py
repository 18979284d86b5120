"""Slice families: construction by shrinking quotient balls, and verification.

A slice at x is the graph component containing x of the preimage of an open
quotient ball centered at the orbit of x. Radii are per-orbit (equivariance
forces this), chosen by a descending scan over realized quotient distances
and shrunk jointly until every family condition holds. If no ball radius
works for an orbit the slices degenerate to singletons, which satisfy every
condition vacuously.

The builder and the verifier share one scan per condition: the builder
shrinks on the first hit of the per-orbit scans (orbit meet, translate
overlap) and of the condition (ii) scan, the verifier reports every hit.
Openness (*) holds by construction, so only the verifier scans for it.
Four facts keep each stage to passes over structure built once:

Join keys. For an orbit o give each point v the key d(o, p(v)), and for a
member x of o let b_x(v) be the least, over paths from x to v in the
sampling graph, of the largest key on the path. The preimage of the open
ball of radius r around o holds the points of key < r, so the slice of x
at radius r is S_x(r) = {v : b_x(v) < r}. One union-find sweep over the
points in (key, index) order gives b_x for every member of o (the nested
sublevel-set filtration), and each radius the builder tries is a
searchsorted prefix of x's points in b_x order.

Resume lemma. A shrink only shrinks slices: a smaller radius gives a
smaller component, and the singleton fallback keeps only x. Each condition
(ii) violation (x, y, g) needs y in S_x and S_y meeting S_{g.x}, so a shrink
creates no violation, none lies before the last one in (x, y, g) order, and
the scan resumes at the x of the last one.

Translate-overlap lemma. For a total g, g.S_x is the component of g.x in the
G-invariant preimage, that is S_{g.x}. Two components meet only if they are
equal, so g.S_x meets S_x only if g.x lies in S_x, which the orbit-meet
check rules out unless g.x = x. The builder scans only partial elements; the
verifier scans every g, since it judges any family.

Border-edge lemma. With P_x the preimage of the ball of x's radius, a
component of S_y & P_x is mixed (meets S_x without lying in it) iff it holds
an edge (a, c) with a in S_x, c not in S_x and both ends in S_y & P_x. The
verifier collects these border edges of S_x once per x and searches only the
components that hold one.

Array readers take the slices as ``SliceFamily.pairs``, derived once; the
builder and the verifier keep the frozensets for their set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ValidationError
from .gspace import SampledGSpace, component_of
from .quotient import Quotient
from .report import ADVISORY, FAIL, PASS, Report


@dataclass(frozen=True)
class SliceFamily:
    slice_of: tuple  # point -> frozenset of points
    radius_of_orbit: tuple  # orbit -> positive float (open-ball radius)
    construction_log: tuple  # records of radii tried and why each shrank
    degenerate: bool  # every slice is a singleton
    # read-only np.intp arrays (x, y), y in S_x, ascending; those of x at
    # offsets[x]:offsets[x + 1]
    pairs: tuple = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = [len(s) for s in self.slice_of]
        x = np.repeat(np.arange(len(sizes)), sizes)
        y = np.fromiter(chain.from_iterable(map(sorted, self.slice_of)), dtype=np.intp, count=x.size)
        offsets = np.cumsum([0] + sizes, dtype=np.intp)
        for a in (x, y, offsets):
            a.setflags(write=False)
        object.__setattr__(self, "pairs", (x, y))
        object.__setattr__(self, "offsets", offsets)

    def members(self, x: int) -> np.ndarray:
        """S_x as an ascending np.intp array."""
        return self.pairs[1][self.offsets[x] : self.offsets[x + 1]]


def value_grid(values) -> list:
    """Sorted distinct positive values with the midpoints between
    consecutive entries. Ball contents over a finite set only change at
    realized values, so this grid is exhaustive for open-ball statements.
    NaN is dropped with the non-positive values; each midpoint is one float
    addition and halving, as in Python. Duplicates go by a sort and a
    neighbour comparison: ``np.unique`` would import ``numpy.ma`` on first
    use, about 1 MB of resident memory."""
    vals = np.asarray(values, dtype=np.float64)
    vals = np.sort(vals[vals > 0], kind="stable")
    first = np.ones(vals.size, dtype=bool)
    first[1:] = vals[1:] != vals[:-1]
    vals = vals[first]
    out = np.empty(max(2 * vals.size - 1, 0))
    out[0::2] = vals
    out[1::2] = (vals[:-1] + vals[1:]) / 2.0
    return out.tolist()


def _candidate_radii(quotient: Quotient, orbit: int) -> list:
    """Descending open-ball radii for one orbit: realized distances from its
    image plus midpoints, topped by a value covering the whole quotient."""
    dists = [float(quotient.d[orbit, q]) for q in range(quotient.n_orbits) if q != orbit]
    grid = value_grid(dists)
    top = (grid[-1] if grid else 0.0) + 1.0
    return [top] + list(reversed(grid))


def _join_orders(adjacency, key, sources) -> dict:
    """x -> (points, b) for each source x: the points joined to x, in the
    order they join, and their join keys b_x, ascending. Points never joined
    to x are left out.

    One union-find sweep over the points in (key, index) order. When the
    point w joins, each component it bridges meets the others at b = key[w]:
    every path between them runs through w or through points that came
    later, so no path has a smaller largest key."""
    parent = list(range(len(adjacency)))
    active = [False] * len(adjacency)
    points = {}  # root -> the points of its component
    held = {}  # root -> the sources in its component
    joined = {x: [] for x in sources}
    bvals = {x: [] for x in sources}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for w in np.argsort(key, kind="stable").tolist():
        kw = float(key[w])
        root = w
        points[w] = [w]
        held[w] = []
        if w in joined:
            held[w].append(w)
            joined[w].append(w)
            bvals[w].append(kw)
        active[w] = True
        for u in adjacency[w]:
            if not active[u]:
                continue
            ru = find(u)
            if ru == root:
                continue
            for a, b in ((root, ru), (ru, root)):
                for x in held[a]:
                    joined[x] += points[b]
                    bvals[x] += [kw] * len(points[b])
            if len(points[root]) < len(points[ru]):
                root, ru = ru, root
            parent[ru] = root
            points[root] += points.pop(ru)
            held[root] += held.pop(ru)
    return {x: (joined[x], np.array(bvals[x])) for x in sources}


def _orbit_meet(quotient, x, s):
    """Least point of s other than x on the orbit of x, or None."""
    members = quotient.orbit_members[quotient.orbit_of[x]]
    return next((p for p in members if p != x and p in s), None)


def _translate_overlaps(rows, x, s, elements):
    """Each g of elements, ascending, with g.s meeting s and g.x != x (or
    undefined). rows[g] is row g of the action array as a list, so an
    undefined image reads -1, which no slice holds."""
    for g in elements:
        row = rows[g]
        if row[x] != x and not s.isdisjoint(row[p] for p in s):
            yield g


def _condition_ii_violations(images_of, slice_of, start=0):
    """Each (x, y, g) with x >= start, y in S_x, g.x defined and != x, and
    S_y meeting S_{g.x}; x ascending, then y, then g. images_of[x] lists
    g.x over g, -1 where undefined."""
    for x in range(start, len(images_of)):
        moved = [(g, slice_of[gx]) for g, gx in enumerate(images_of[x]) if gx >= 0 and gx != x]
        if not moved:
            continue
        for y in sorted(slice_of[x]):
            sy = slice_of[y]
            for g, sgx in moved:
                if not sy.isdisjoint(sgx):
                    yield (x, y, g)


def _quotient_diameter(quotient, pts):
    """Largest d(a, b) over orbits a < b that pts meets, 0 for one orbit: one
    max over the orbit block with all but its upper triangle zeroed."""
    orbs = np.array(sorted({quotient.orbit_of[p] for p in pts}))
    upper = np.arange(len(orbs))[:, None] < np.arange(len(orbs))
    return float(np.where(upper, quotient.d[orbs[:, None], orbs], 0.0).max())


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
    if shrink_factor <= 0:
        raise ValidationError("InvalidParams", "shrink factor must be positive")

    n_orbits = quotient.n_orbits
    log = []

    positive = quotient.d[quotient.d > 0]
    fallback_radius = (float(positive.min()) / 2.0) if positive.size else 0.5

    # candidate stacks per orbit; index points at the radius currently in use
    cands = [[c / shrink_factor for c in _candidate_radii(quotient, o)] for o in range(n_orbits)]
    orbit_of = np.asarray(quotient.orbit_of)
    partial = np.flatnonzero(~gspace.total).tolist()
    rows = gspace.action.tolist()
    # orbit -> per member x: (x, points in join order, |S_x| per candidate,
    # (mate, b_x(mate)) for the other members)
    index = {}

    def orbit_index(orbit):
        """Built once per orbit, on the orbit's first settle."""
        if orbit not in index:
            members = quotient.orbit_members[orbit]
            orders = _join_orders(gspace.space.adjacency, quotient.d[orbit][orbit_of], members)
            entries = []
            for x in members:
                pts, b = orders[x]
                joined = dict(zip(pts, b.tolist()))
                mates = [(p, joined.get(p, np.inf)) for p in members if p != x]
                entries.append((x, pts, np.searchsorted(b, cands[orbit]).tolist(), mates))
            index[orbit] = entries
        return index[orbit]

    def try_radius(orbit, i):
        """(slices, None) for the orbit at candidate i, or (None, the first
        per-orbit violation). S_x is the prefix of x's points in join order
        with b_x < r; the orbit meet reads b_x at the orbit mates, so S_x is
        built only once x has passed it."""
        r = cands[orbit][i]
        slices = {}
        for x, pts, sizes, mates in orbit_index(orbit):
            if sizes[i] == 0:  # the radius is at or below d(p(x), p(x))
                raise ValidationError("EmptyResult", "center orbit not in the quotient set", x)
            p = next((p for p, b in mates if b < r), None)
            if p is not None:
                return None, ("slice_meets_orbit", (x, p))
            slices[x] = s = frozenset(pts[: sizes[i]])
            # Total elements cannot overlap here (translate-overlap lemma):
            # g.S_x = S_{g.x}, which meets S_x only if g.x lies in S_x, and
            # the orbit meet has just ruled that out unless g.x = x.
            g = next(_translate_overlaps(rows, x, s, partial), None)
            if g is not None:
                return None, ("translate_overlap", (x, g))
        return slices, None

    def settle(orbit, start_idx):
        """Largest candidate from start_idx on passing the per-orbit checks.
        Returns (radius, slices, next_idx); falls back to singletons."""
        for i in range(start_idx, len(cands[orbit])):
            r = cands[orbit][i]
            slices, viol = try_radius(orbit, i)
            if viol is None:
                return r, slices, i
            log.append({"orbit": orbit, "radius": r, "condition": viol[0], "witness": viol[1]})
        slices = {x: frozenset([x]) for x in quotient.orbit_members[orbit]}
        log.append({"orbit": orbit, "radius": fallback_radius, "condition": "singleton_fallback", "witness": None})
        return fallback_radius, slices, len(cands[orbit])

    radii = [None] * n_orbits
    idx = [0] * n_orbits
    slice_of = {}
    for o in range(n_orbits):
        r, slices, i = settle(o, 0)
        radii[o], idx[o] = r, i
        slice_of.update(slices)

    # Only condition (ii) is scanned jointly; openness (*) cannot fail here.
    # settle always sets slice_of and radii together for a whole orbit, so
    # S_x is either the component of x in the graph on
    # P_x = p^-1(B(p(x), r_p(x))), or {x} at the singleton fallback. Take y
    # in S_x. Every component C of S_y & P_x is connected inside P_x, so C is
    # a subset of S_x or disjoint from it. In the fallback case, y = x and
    # the cut is {x}.
    # Each scan resumes at the x of the last violation (resume lemma).
    diameters = {}  # slice -> _quotient_diameter; slices recur across shrinks

    def diameter(s):
        if s not in diameters:
            diameters[s] = _quotient_diameter(quotient, s)
        return diameters[s]

    images_of = gspace.action[:, : gspace.n_points].T.tolist()
    resume = 0
    while True:
        viol = next(_condition_ii_violations(images_of, slice_of, resume), None)
        if viol is None:
            break
        x, y, _ = viol
        resume = x
        ox, oy = quotient.orbit_of[x], quotient.orbit_of[y]
        if ox == oy:
            target = ox
        else:
            dx, dy = diameter(slice_of[x]), diameter(slice_of[y])
            if dx > dy:
                target = ox
            elif dy > dx:
                target = oy
            else:
                target = ox if quotient.representative[ox] < quotient.representative[oy] else oy
        log.append({"orbit": target, "radius": radii[target], "condition": "family_condition_ii",
                    "witness": viol})
        if idx[target] >= len(cands[target]):
            # already at the singleton fallback; shrink the other orbit
            target = oy if target == ox else ox
            log.append({"orbit": target, "radius": radii[target], "condition": "family_condition_ii",
                        "witness": viol})
        r, slices, i = settle(target, idx[target] + 1)
        radii[target], idx[target] = r, i
        slice_of.update(slices)

    slices_tuple = tuple(slice_of[x] for x in range(gspace.n_points))
    degenerate = all(len(s) == 1 for s in slices_tuple)
    if degenerate:
        log.append({"orbit": None, "radius": None, "condition": "DegenerateFamily", "witness": None})
    return SliceFamily(
        slice_of=slices_tuple,
        radius_of_orbit=tuple(radii),
        construction_log=tuple(tuple(sorted(rec.items())) for rec in log),
        degenerate=degenerate,
    )


def subslice(family: SliceFamily, x: int, quotient: Quotient, eps: float = None, orbit_set=None) -> frozenset:
    """S_x cut to the preimage of a quotient open set (ball of radius eps
    around p(x) when eps is given)."""
    if eps is not None:
        orbit_set = quotient.ball(quotient.orbit_of[x], eps)
    if quotient.orbit_of[x] not in orbit_set:
        raise ValidationError("EmptyResult", "center orbit not in the quotient set", x)
    return family.slice_of[x] & quotient.preimage(orbit_set)


def verify_slice_family(gspace: SampledGSpace, quotient: Quotient, family: SliceFamily) -> Report:
    """Exhaustive pass/fail per condition; witnesses are (x, y, g) style."""
    rep = Report()
    slice_of = family.slice_of
    n = gspace.n_points
    adjacency = gspace.space.adjacency
    elements = range(gspace.group.order)
    rows = gspace.action.tolist()

    v = [(x,) for x in range(n) if x not in slice_of[x]]
    rep.add("slice_contains_center", FAIL if v else PASS, v)

    # every g: the family under judgement need not be built from balls
    v = [(x, g) for x in range(n) for g in _translate_overlaps(rows, x, slice_of[x], elements)]
    rep.add("slice_translate_overlap", FAIL if v else PASS, v)

    v = []  # h defined on all of S_x (no image -1) and moving it
    for x in range(n):
        for h in gspace.stabilizer(x):
            image = {rows[h][p] for p in slice_of[x]}
            if -1 not in image and image != slice_of[x]:
                v.append((x, h))
    rep.add("slice_stabilizer_invariance", FAIL if v else PASS, v)

    v = []
    for g in np.flatnonzero(gspace.total).tolist():
        row = rows[g]
        for x in range(n):
            if {row[p] for p in slice_of[x]} != slice_of[row[x]]:
                v.append((x, g))
    rep.add("family_equivariance", FAIL if v else PASS, v)

    meets = ((x, _orbit_meet(quotient, x, slice_of[x])) for x in range(n))
    v = [(x, p) for x, p in meets if p is not None]
    rep.add("slice_meets_orbit_once", FAIL if v else PASS, v)

    v = list(_condition_ii_violations(gspace.action[:, :n].T.tolist(), slice_of))
    rep.add("family_condition_ii", FAIL if v else PASS, v)

    # A component of S_y & P_x is mixed iff it holds a border edge of S_x
    # inside P_x (border-edge lemma), so only those components are searched.
    v = []
    orbit_of = np.asarray(quotient.orbit_of)
    in_ball = {}  # orbit -> membership of each point in P_x
    for x in range(n):
        o = quotient.orbit_of[x]
        if o not in in_ball:
            in_ball[o] = (quotient.d[o][orbit_of] < family.radius_of_orbit[o]).tolist()
        inside, sx = in_ball[o], slice_of[x]
        border = [(a, c) for a in sx if inside[a] for c in adjacency[a] if inside[c] and c not in sx]
        if not border:
            continue
        for y in sorted(sx):
            sy = slice_of[y]
            starts = [a for a, c in border if a in sy and c in sy]
            if not starts:
                continue
            cut = {p for p in sy if inside[p]}
            mixed = []
            for a in starts:
                if not any(a in comp for comp in mixed):
                    mixed.append(component_of(adjacency, a, cut))
            v.extend((x, y, m) for m in sorted(min(comp) for comp in mixed))
    rep.add("openness_condition_star", FAIL if v else PASS, v)

    v = []
    for x in range(n):
        s = slice_of[x]
        if not s or len(component_of(adjacency, min(s), s)) != len(s):
            v.append((x,))
    rep.add("slice_connected", FAIL if v else PASS, v)

    if all(len(s) == 1 for s in slice_of):
        rep.add("degenerate_family", ADVISORY, [("all slices are singletons",)])

    # strong nesting variant: reported as a statistic, never asserted
    pairs = bad = 0
    for x in range(n):
        for y in slice_of[x]:
            pairs += 1
            if not slice_of[y] <= slice_of[x]:
                bad += 1
    rep.add("strong_nesting_statistic", ADVISORY, [], (bad / pairs) if pairs else 0.0)

    return rep

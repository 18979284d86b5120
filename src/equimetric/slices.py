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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .gspace import SampledGSpace, graph_components
from .quotient import Quotient
from .report import ADVISORY, FAIL, PASS, Report


@dataclass(frozen=True)
class SliceFamily:
    slice_of: tuple  # point -> frozenset of points
    radius_of_orbit: tuple  # orbit -> positive float (open-ball radius)
    construction_log: tuple  # records of radii tried and why each shrank
    degenerate: bool  # every slice is a singleton


def value_grid(values) -> list:
    """Sorted distinct positive values with the midpoints between
    consecutive entries. Ball contents over a finite set only change at
    realized values, so this grid is exhaustive for open-ball statements."""
    vals = sorted({float(v) for v in values if v > 0})
    out = []
    for i, v in enumerate(vals):
        out.append(v)
        if i + 1 < len(vals):
            out.append((v + vals[i + 1]) / 2.0)
    return out


def _candidate_radii(quotient: Quotient, orbit: int) -> list:
    """Descending open-ball radii for one orbit: realized distances from its
    image plus midpoints, topped by a value covering the whole quotient."""
    dists = [float(quotient.d[orbit, q]) for q in range(quotient.n_orbits) if q != orbit]
    grid = value_grid(dists)
    top = (grid[-1] if grid else 0.0) + 1.0
    return [top] + list(reversed(grid))


def _orbit_slices(gspace, quotient, orbit, radius):
    """S_x for every x on the orbit: the component of x in the graph on the
    preimage of the open quotient ball of this radius around the orbit."""
    pre = quotient.preimage(quotient.ball(orbit, radius))
    comp_of = {}
    for comp in graph_components(gspace.n_points, gspace.space.edges, pre):
        comp = frozenset(comp)
        for p in comp:
            comp_of[p] = comp
    return {x: comp_of[x] for x in quotient.orbit_members[orbit]}


def _orbit_meet(quotient, x, s):
    """Least point of s other than x on the orbit of x, or None."""
    members = quotient.orbit_members[quotient.orbit_of[x]]
    return next((p for p in members if p != x and p in s), None)


def _translate_overlaps(gspace, x, s):
    """Each g, ascending, with g.s meeting s and g.x != x (or undefined)."""
    for g in range(gspace.group.order):
        if gspace.apply(g, x) != x and gspace.translate_set(g, s) & s:
            yield g


def _condition_ii_violations(gspace, slice_of):
    """Each (x, y, g) with y in S_x, g.x defined and != x, and S_y meeting
    S_{g.x}; x ascending, then y, then g."""
    for x in range(gspace.n_points):
        for y in sorted(slice_of[x]):
            sy = slice_of[y]
            for g in range(gspace.group.order):
                gx = gspace.apply(g, x)
                if gx is not None and gx != x and sy & slice_of[gx]:
                    yield (x, y, g)


def _quotient_diameter(quotient, pts):
    orbs = sorted({quotient.orbit_of[p] for p in pts})
    best = 0.0
    for i, a in enumerate(orbs):
        for b in orbs[i + 1 :]:
            v = float(quotient.d[a, b])
            if v > best:
                best = v
    return best


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

    global_pos = [float(v) for v in quotient.d.ravel() if v > 0]
    fallback_radius = (min(global_pos) / 2.0) if global_pos else 0.5

    # candidate stacks per orbit; index points at the radius currently in use
    cands = [[c / shrink_factor for c in _candidate_radii(quotient, o)] for o in range(n_orbits)]

    def per_orbit_violation(slices):
        for x, s in slices.items():
            p = _orbit_meet(quotient, x, s)
            if p is not None:
                return ("slice_meets_orbit", (x, p))
            g = next(_translate_overlaps(gspace, x, s), None)
            if g is not None:
                return ("translate_overlap", (x, g))
        return None

    def settle(orbit, start_idx):
        """Largest candidate from start_idx on passing the per-orbit checks.
        Returns (radius, slices, next_idx); falls back to singletons."""
        for i in range(start_idx, len(cands[orbit])):
            r = cands[orbit][i]
            slices = _orbit_slices(gspace, quotient, orbit, r)
            viol = per_orbit_violation(slices)
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
    while True:
        viol = next(_condition_ii_violations(gspace, slice_of), None)
        if viol is None:
            break
        x, y, _ = viol
        ox, oy = quotient.orbit_of[x], quotient.orbit_of[y]
        if ox == oy:
            target = ox
        else:
            dx = _quotient_diameter(quotient, slice_of[x])
            dy = _quotient_diameter(quotient, slice_of[y])
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

    v = [(x,) for x in range(n) if x not in slice_of[x]]
    rep.add("slice_contains_center", FAIL if v else PASS, v)

    v = [(x, g) for x in range(n) for g in _translate_overlaps(gspace, x, slice_of[x])]
    rep.add("slice_translate_overlap", FAIL if v else PASS, v)

    v = []
    for x in range(n):
        for h in gspace.stabilizer(x):
            if gspace.is_total(h) or all(p in gspace.act[h] for p in slice_of[x]):
                if gspace.translate_set(h, slice_of[x]) != slice_of[x]:
                    v.append((x, h))
    rep.add("slice_stabilizer_invariance", FAIL if v else PASS, v)

    v = []
    for g in gspace.total_elements():
        for x in range(n):
            if gspace.translate_set(g, slice_of[x]) != slice_of[gspace.apply(g, x)]:
                v.append((x, g))
    rep.add("family_equivariance", FAIL if v else PASS, v)

    meets = ((x, _orbit_meet(quotient, x, slice_of[x])) for x in range(n))
    v = [(x, p) for x, p in meets if p is not None]
    rep.add("slice_meets_orbit_once", FAIL if v else PASS, v)

    v = list(_condition_ii_violations(gspace, slice_of))
    rep.add("family_condition_ii", FAIL if v else PASS, list(v))
    rep.add("neighbour_condition_C", FAIL if v else PASS, list(v))

    v = []
    for x in range(n):
        rx = family.radius_of_orbit[quotient.orbit_of[x]]
        ball = quotient.ball(quotient.orbit_of[x], rx)
        pre = quotient.preimage(ball)
        for y in sorted(slice_of[x]):
            cut = sorted(slice_of[y] & pre)
            inter = slice_of[x] & slice_of[y]
            for comp in graph_components(n, gspace.space.edges, cut):
                hit = inter & set(comp)
                if hit and hit != frozenset(comp):
                    v.append((x, y, comp[0]))
    rep.add("openness_condition_star", FAIL if v else PASS, v)

    v = []
    for x in range(n):
        if len(graph_components(n, gspace.space.edges, slice_of[x])) != 1:
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

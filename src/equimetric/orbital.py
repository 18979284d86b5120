"""Group metrics, coset pseudometrics, and the glued orbital metric.

The orbital metric assigns an invariant distance to same-orbit pairs (zero
across orbits). Per chart (one slice per orbit representative) an orbit is
identified with a coset space of the group through a base point on the
slice; the chart metrics are glued with tent-shaped partition-of-unity
weights on the orbit space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .gspace import FiniteGroup, SampledGSpace, _check_metric_table
from .quotient import Quotient
from .report import ADVISORY, FAIL, PASS, Report
from .slices import SliceFamily, value_grid


@dataclass(frozen=True)
class GroupMetric:
    group: FiniteGroup
    table: np.ndarray  # order x order
    kind: str  # discrete | word | explicit
    _ri_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def dist(self, g: int, h: int) -> float:
        return float(self.table[g, h])

    def ball(self, radius: float) -> frozenset:
        """Open ball around the identity."""
        e = self.group.identity
        return frozenset(g for g in range(self.group.order) if self.table[e, g] < radius)

    def right_invariant_for(self, subgroup) -> bool:
        """Exhaustive right-invariance check: d(gu, hu) = d(g, h) for u in K."""
        key = tuple(sorted(subgroup))
        if key in self._ri_cache:
            return self._ri_cache[key]
        mul = self.group.mul
        t = self.table
        ok = True
        for u in key:
            for g in range(self.group.order):
                for h in range(self.group.order):
                    if t[mul[g][u], mul[h][u]] != t[g, h]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        self._ri_cache[key] = ok
        return ok


def _check_left_invariance(group: FiniteGroup, table: np.ndarray):
    """Raise on the first (k, g, h), row-major, with d(kg, kh) != d(g, h)."""
    for k in range(group.order):
        left = np.asarray(group.mul[k])
        hits = np.argwhere(table[np.ix_(left, left)] != table)
        if len(hits):
            g, h = (int(v) for v in hits[0])
            raise ValidationError("NotLeftInvariant", "left invariance fails", (k, g, h))


def group_metric(group: FiniteGroup, kind: str = "discrete", scale: float = 1.0,
                 generators=None, table=None, tol: float = 1e-9) -> GroupMetric:
    """Build a left-invariant metric on the group.

    discrete: 0/scale (biinvariant). word: Cayley-graph word metric for an
    inverse-closed generating set. explicit: validate the given table.
    """
    n = group.order
    if kind == "discrete":
        if scale <= 0:
            raise ValidationError("InvalidParams", "discrete metric scale must be positive")
        t = np.full((n, n), float(scale))
        np.fill_diagonal(t, 0.0)
    elif kind == "word":
        gens = list(generators if generators is not None else (group.generators or []))
        if not gens:
            raise ValidationError("InvalidParams", "word metric requires generators")
        if any(group.inv[g] not in gens for g in gens):
            raise ValidationError("GeneratorsNotInverseClosed", "generating set must be closed under inverses")
        # BFS word lengths from the identity; d(g, h) = |g^-1 h|
        length = {group.identity: 0}
        frontier = [group.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for s in gens:
                    b = group.mul[a][s]
                    if b not in length:
                        length[b] = length[a] + 1
                        nxt.append(b)
            frontier = nxt
        if len(length) != n:
            raise ValidationError("GeneratorsDontGenerate", "generators do not generate the group")
        t = np.empty((n, n))
        for g in range(n):
            gi = group.inv[g]
            for h in range(n):
                t[g, h] = float(length[group.mul[gi][h]])
    elif kind == "explicit":
        t = np.asarray(table, dtype=np.float64)
        if t.shape != (n, n):
            raise ValidationError("NotAMetric", "group metric table has wrong shape")
    else:
        raise ValidationError("InvalidParams", f"unknown group metric kind {kind!r}")

    _check_metric_table(t, tol)
    _check_left_invariance(group, t)
    t.setflags(write=False)
    return GroupMetric(group=group, table=t, kind=kind)


def coset_distance(d_G: GroupMetric, subgroup, g1: int, g2: int, debug: bool = False) -> float:
    """Distance between the cosets g1 K and g2 K.

    Uses the single-loop form min over u in K of d(g1, g2 u) when d_G is
    right K-invariant; debug mode computes both forms and asserts agreement.
    """
    group = d_G.group
    K = tuple(subgroup)
    if not group.is_subgroup(K):
        raise ValidationError("NotASubgroup", "coset distance requires a subgroup", K)
    mul = group.mul
    t = d_G.table
    two_sided = min(float(t[mul[g1][u], mul[g2][v]]) for u in K for v in K)
    if d_G.right_invariant_for(K):
        one_sided = min(float(t[g1, mul[g2][u]]) for u in K)
        if debug and one_sided != two_sided:
            raise AssertionError(f"coset distance forms disagree: {one_sided} != {two_sided}")
        return one_sided
    return two_sided


@dataclass(frozen=True)
class Chart:
    orbit: int  # anchoring orbit
    anchor: int  # point index of the orbit representative
    slice_pts: frozenset
    radius: float
    base_points: dict  # orbit index -> base point y0 in slice (min index)
    weights: np.ndarray  # raw tent weight per orbit (before normalization)


@dataclass(frozen=True)
class OrbitalMetric:
    charts: tuple
    chi: np.ndarray  # n_orbits x n_charts, rows summing to 1
    group_metric: GroupMetric
    values: np.ndarray  # n_points x n_points; zero across orbits; nan = undefined

    def dist(self, x: int, y: int) -> float:
        v = self.values[x, y]
        if np.isnan(v):
            raise ValidationError("InvalidParams", "orbital distance undefined for this pair", (x, y))
        return float(v)

    def defined(self, x: int, y: int) -> bool:
        return not np.isnan(self.values[x, y])


def _element_sending(gspace, src: int, dst: int):
    """Smallest group element g with g.src = dst, or None (partial actions
    may leave same-orbit pairs unreachable by a single element)."""
    for g in range(gspace.group.order):
        if gspace.apply(g, src) == dst:
            return g
    return None


def chart_metric(gspace: SampledGSpace, d_G: GroupMetric, chart: Chart,
                 quotient: Quotient, x: int, y: int):
    """Distance between same-orbit points under one chart, or None when the
    chart's base point cannot reach them."""
    q = quotient.orbit_of[x]
    if quotient.orbit_of[y] != q or q not in chart.base_points:
        return None
    y0 = chart.base_points[q]
    g1 = _element_sending(gspace, y0, x)
    g2 = _element_sending(gspace, y0, y)
    if g1 is None or g2 is None:
        return None
    return coset_distance(d_G, gspace.stabilizer(y0), g1, g2)


def build_orbital_metric(gspace: SampledGSpace, quotient: Quotient,
                         family: SliceFamily, d_G: GroupMetric) -> OrbitalMetric:
    """Glue chart coset metrics into one orbital metric.

    Requires, for every stabilizer, either right invariance of the group
    metric or normality of the stabilizer (otherwise the coset identification
    depends on the base point and the construction is rejected).
    """
    group = gspace.group
    for x in range(gspace.n_points):
        K = gspace.stabilizer(x)
        if not (d_G.right_invariant_for(K) or group.is_normal(K)):
            raise ValidationError(
                "IncompatibleGroupMetric",
                "group metric is neither right invariant for a stabilizer nor is the stabilizer normal",
                x,
            )

    n_orbits = quotient.n_orbits
    charts = []
    for o in range(n_orbits):
        anchor = quotient.representative[o]
        pts = family.slice_of[anchor]
        radius = family.radius_of_orbit[o]
        bases = {}
        for q in range(n_orbits):
            meet = sorted(pts & set(quotient.orbit_members[q]))
            if meet:
                bases[q] = meet[0]
        raw = np.zeros(n_orbits)
        for q in range(n_orbits):
            w = radius - float(quotient.d[o, q])
            if w > 0 and q in bases:
                raw[q] = w
        charts.append(Chart(orbit=o, anchor=anchor, slice_pts=pts, radius=radius,
                            base_points=bases, weights=raw))

    chi = np.zeros((n_orbits, len(charts)))
    for q in range(n_orbits):
        total = sum(c.weights[q] for c in charts)
        if total <= 0:
            raise ValidationError("UncoveredOrbit", "orbit meets no chart", q)
        for a, c in enumerate(charts):
            chi[q, a] = c.weights[q] / total

    n = gspace.n_points
    values = np.zeros((n, n))
    for q in range(n_orbits):
        members = quotient.orbit_members[q]
        active = [a for a in range(len(charts)) if chi[q, a] > 0]
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                acc = 0.0
                ok = True
                for a in active:
                    dv = chart_metric(gspace, d_G, charts[a], quotient, x, y)
                    if dv is None:
                        ok = False
                        break
                    acc += chi[q, a] * dv
                values[x, y] = values[y, x] = acc if ok else np.nan

    values.setflags(write=False)
    return OrbitalMetric(charts=tuple(charts), chi=chi, group_metric=d_G, values=values)


def _grid_or(values, fallback):
    grid = value_grid(values)
    return grid if grid else [fallback]


def verify_orbital_properties(gspace: SampledGSpace, quotient: Quotient,
                              family: SliceFamily, d_O: OrbitalMetric,
                              d_G: GroupMetric, tol: float = 1e-12) -> Report:
    """Subcontinuity properties A/B/C and the coset-metric inequalities.

    The continuum epsilon/delta quantifiers range over (0, inf); on a finite
    model property truth only changes at realized values, so witnesses are
    searched over the realized-value grids (plus midpoints).
    """
    from .slices import subslice

    rep = Report()
    group = gspace.group
    e = group.identity
    n = gspace.n_points

    dO_vals = [v for v in d_O.values.ravel() if not np.isnan(v)]
    eps_grid = _grid_or(dO_vals, 1.0)
    delta_grid = _grid_or(
        list(np.asarray(quotient.d).ravel()) + list(d_G.table.ravel()), 1.0
    )

    def slice_ball(x, delta):
        return subslice(family, x, quotient, eps=delta)

    # Property A: small quotient ball + small group ball => small orbital move
    fails, wits = [], []
    for x in range(n):
        for eps in eps_grid:
            found = None
            for delta in reversed(delta_grid):
                ok = True
                for y in sorted(slice_ball(x, delta)):
                    for g in sorted(d_G.ball(delta)):
                        gy = gspace.apply(g, y)
                        if gy is None:
                            continue
                        v = d_O.values[y, gy]
                        if np.isnan(v):  # pair not expressible under a partial action
                            continue
                        if not v < eps:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    found = delta
                    break
            if found is None:
                fails.append((x, eps))
            else:
                wits.append((x, eps, found))
    rep.add("property_A", FAIL if fails else PASS, fails or wits[:3])

    # Property B: orbital distance is minimal at the slice center
    fails, wits = [], []
    for x in range(n):
        found = None
        for delta in reversed(delta_grid):
            ok = True
            for y in sorted(slice_ball(x, delta)):
                for g1 in range(group.order):
                    for g2 in range(group.order):
                        g1x, g2x = gspace.apply(g1, x), gspace.apply(g2, x)
                        g1y, g2y = gspace.apply(g1, y), gspace.apply(g2, y)
                        if None in (g1x, g2x, g1y, g2y):
                            continue
                        vx, vy = d_O.values[g1x, g2x], d_O.values[g1y, g2y]
                        if np.isnan(vx) or np.isnan(vy):
                            continue
                        if vx > vy + tol:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                found = delta
                break
        if found is None:
            fails.append((x,))
        else:
            wits.append((x, found))
    rep.add("property_B", FAIL if fails else PASS, fails or wits[:3])

    # Property C: a small orbital move comes from a small group element
    fails, wits = [], []
    for x in range(n):
        K = gspace.stabilizer(x)
        for delta in delta_grid:
            found = None
            for eps in eps_grid:
                ok = True
                for g in range(group.order):
                    gx = gspace.apply(g, x)
                    if gx is None:
                        continue
                    v = d_O.values[x, gx]
                    if np.isnan(v) or not v < eps:
                        continue
                    if not any(d_G.table[e, group.mul[g][u]] < delta for u in K):
                        ok = False
                        break
                if ok:
                    found = eps
                    break
            if found is None:
                fails.append((x, delta))
            else:
                wits.append((x, delta, found))
    rep.add("property_C", FAIL if fails else PASS, fails or wits[:3])

    # Coset-metric inequalities per chart: anchor distance <= slice-point
    # distance <= group distance
    resid = 0.0
    fails = []
    for chart in d_O.charts:
        K_anchor = gspace.stabilizer(chart.anchor)
        for y in sorted(chart.slice_pts):
            K_y = gspace.stabilizer(y)
            for g1 in range(group.order):
                for g2 in range(group.order):
                    da = coset_distance(d_G, K_anchor, g1, g2)
                    dy = coset_distance(d_G, K_y, g1, g2)
                    dg = d_G.dist(g1, g2)
                    worst = max(da - dy, dy - dg)
                    if worst > resid:
                        resid = worst
                    if worst > tol:
                        fails.append((chart.orbit, y, g1, g2))
    rep.add("coset_inequality_chain", FAIL if fails else PASS, fails, resid)

    # translated-slice bound: moving within a translated slice is bounded by
    # the group displacement of the translating element
    resid = 0.0
    fails = []
    for chart in d_O.charts:
        for yp in sorted(chart.slice_pts):
            K = gspace.stabilizer(yp)
            for g0 in range(group.order):
                if gspace.apply(g0, yp) is None:
                    continue
                for g in range(group.order):
                    gg0 = group.mul[g][g0]
                    v = coset_distance(d_G, K, g0, gg0)
                    bound = d_G.dist(g0, gg0)
                    if v - bound > resid:
                        resid = v - bound
                    if v > bound + tol:
                        fails.append((chart.orbit, yp, g0, g))
    rep.add("translated_motion_bound", FAIL if fails else PASS, fails, max(resid, 0.0))

    return rep

"""Group metrics, coset pseudometrics, and the glued orbital metric.

The orbital metric assigns an invariant distance to same-orbit pairs (zero
across orbits). Per chart (one slice per orbit representative) an orbit is
identified with a coset space G/K of the group through a base point with
stabilizer K on the slice; the chart metrics are glued with tent-shaped
partition-of-unity weights on the orbit space.

Every coset distance d(g1 K, g2 K) is read from one cached |G| x |G| table
per stabilizer (``GroupMetric.coset_table``). The property checks reduce
each point to one value that decides its epsilon/delta tests, and compare
the grids with that value instead of rescanning balls per grid entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def dist(self, g: int, h: int) -> float:
        return float(self.table[g, h])

    def ball(self, radius: float) -> frozenset:
        """Open ball around the identity."""
        e = self.group.identity
        return frozenset(g for g in range(self.group.order) if self.table[e, g] < radius)

    def right_invariant_for(self, subgroup) -> bool:
        """Exhaustive right-invariance check: d(gu, hu) = d(g, h) for u in K."""
        key = ("right",) + tuple(sorted(subgroup))
        if key not in self._cache:
            mul, t = np.asarray(self.group.mul), self.table
            self._cache[key] = all(np.array_equal(t[np.ix_(mul[:, u], mul[:, u])], t) for u in key[1:])
        return self._cache[key]

    def coset_table(self, subgroup) -> np.ndarray:
        """The |G| x |G| table of d(g1 K, g2 K) for a subgroup K, cached per K.

        One-sided, min over u in K of d(g1, g2 u), when the metric is right
        K-invariant; two-sided, min over u, v in K of d(g1 u, g2 v),
        otherwise. Ties keep the first minimum in (u, v) order.
        """
        key = ("coset",) + tuple(sorted(subgroup))
        if key not in self._cache:
            if not self.group.is_subgroup(key[1:]):
                raise ValidationError("NotASubgroup", "coset distance requires a subgroup", tuple(subgroup))
            mul, K = np.asarray(self.group.mul), key[1:]
            out = self.table[:, mul[:, K[0]]]
            for u in K[1:]:  # min over u of d(g1, g2 u)
                np.minimum(self.table[:, mul[:, u]], out, out=out)
            if not self.right_invariant_for(K):
                one = out
                out = one[mul[:, K[0]]]
                for u in K[1:]:  # then over u of the rows g1 u
                    np.minimum(one[mul[:, u]], out, out=out)
            out.setflags(write=False)
            self._cache[key] = out
        return self._cache[key]


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
        bad = [g for g in gens if isinstance(g, bool) or not isinstance(g, Integral) or not 0 <= g < n]
        if bad:
            raise ValidationError("InvalidParams", "generators must be group element indices", bad[0])
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


def coset_distance(d_G: GroupMetric, subgroup, g1: int, g2: int) -> float:
    """Distance between the cosets g1 K and g2 K (see ``GroupMetric.coset_table``)."""
    return float(d_G.coset_table(subgroup)[g1, g2])


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


def build_orbital_metric(gspace: SampledGSpace, quotient: Quotient,
                         family: SliceFamily, d_G: GroupMetric) -> OrbitalMetric:
    """Glue chart coset metrics into one orbital metric.

    Requires, for every stabilizer, either right invariance of the group
    metric or normality of the stabilizer (otherwise the coset identification
    depends on the base point and the construction is rejected). The test
    runs once per distinct stabilizer; the witness is the least point whose
    stabilizer fails it.
    """
    group = gspace.group
    compatible = {}
    for x, K in enumerate(gspace.stabilizers):
        if K not in compatible:
            compatible[K] = d_G.right_invariant_for(K) or group.is_normal(K)
        if not compatible[K]:
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

    # Each chart reads d(g1 K, g2 K) with g1, g2 the least elements sending
    # its base point y0 (stabilizer K) to x and y; a pair that no element
    # reaches is undefined (nan). The lower triangle mirrors the upper one.
    act = gspace.action
    n = gspace.n_points
    values = np.zeros((n, n))
    for q in range(n_orbits):
        members = np.array(quotient.orbit_members[q])
        block = np.zeros((len(members), len(members)))
        for a in np.flatnonzero(chi[q] > 0):
            y0 = charts[a].base_points[q]
            hits = act[:, y0][:, None] == members
            g = np.where(hits.any(axis=0), hits.argmax(axis=0), -1)
            dist = d_G.coset_table(gspace.stabilizer(y0))[np.ix_(g, g)]
            block += chi[q, a] * np.where((g[:, None] >= 0) & (g >= 0), dist, np.nan)
        i, j = np.triu_indices(len(members), 1)
        values[members[i], members[j]] = values[members[j], members[i]] = block[i, j]

    values.setflags(write=False)
    return OrbitalMetric(charts=tuple(charts), chi=chi, group_metric=d_G, values=values)


def _grid_or(values, fallback):
    grid = value_grid(values)
    return grid if grid else [fallback]


def _centre_in_ball(quotient: Quotient, x: int, delta: float):
    """Raise, as ``subslice`` does, when the orbit of x lies outside its own
    open quotient ball of radius delta (a positive diagonal entry)."""
    o = quotient.orbit_of[x]
    if not quotient.d[o, o] < delta:
        raise ValidationError("EmptyResult", "center orbit not in the quotient set", x)


def verify_orbital_properties(gspace: SampledGSpace, quotient: Quotient,
                              family: SliceFamily, d_O: OrbitalMetric,
                              d_G: GroupMetric, tol: float = 1e-12) -> Report:
    """Subcontinuity properties A/B/C and the coset-metric inequalities.

    The continuum epsilon/delta quantifiers range over (0, inf); on a finite
    model property truth only changes at realized values, so witnesses are
    searched over the realized-value grids (plus midpoints). Each property
    depends on the grids only through one value per point (and per delta),
    so a point is reduced to that value once and the grids are compared
    with it. The slice ball S_x(delta) holds the y in S_x with
    d(p x, p y) < delta; the group ball holds the g with d_G(e, g) < delta.

    A: M(delta), the largest d_O(y, g.y) over pairs with
       max(d(p x, p y), d_G(e, g)) < delta; delta works for eps iff
       M(delta) < eps, and the largest working delta is reported.
    B: b, the least d(p x, p y) over the y in S_x that break minimality
       (some g1, g2 with d_O(g1 x, g2 x) > d_O(g1 y, g2 y) + tol); a delta
       works iff delta <= b.
    C: m(delta), the least d_O(x, g.x) over the g whose coset gK (K the
       stabilizer of x) stays at least delta from e, min over u in K of
       d_G(e, g u) >= delta; eps works iff eps <= m(delta), and the least
       working eps is reported.

    Pairs that are undefined under a partial action or nan in d_O never
    count. A delta at or below a positive quotient diagonal entry
    d(p x, p x) leaves x outside its own slice ball; the descending A and B
    searches raise EmptyResult when they reach one, as ``subslice`` does.

    Every check reads the action array ``gspace.action``. Property B makes
    one gather per x over all y in S_x, so its temporaries are
    O(|S_x| |G|^2); the coset chain and the translated bound compare their
    tables once per distinct pair of stabilizers (of domains, for the
    bound) and emit witnesses per (chart, y) in scan order.
    """
    rep = Report()
    group = gspace.group
    e = group.identity
    n = gspace.n_points
    act = gspace.action
    mul = np.asarray(group.mul)
    dq, dO = quotient.d, d_O.values
    orbit = np.asarray(quotient.orbit_of)

    eps_grid = _grid_or(dO[~np.isnan(dO)], 1.0)
    delta_grid = _grid_or(np.concatenate([dq.ravel(), d_G.table.ravel()]), 1.0)
    eps_arr, delta_arr = np.array(eps_grid), np.array(delta_grid)

    # Property A: small quotient ball + small group ball => small orbital move
    fails, wits = [], []
    for x in range(n):
        ys = np.array(sorted(family.slice_of[x]))
        gy = act[:, ys]
        key = np.maximum(dq[orbit[x], orbit[ys]], d_G.table[e][:, None])
        v = np.where(gy >= 0, dO[ys, gy], np.nan)
        key, v = key[~np.isnan(v)], v[~np.isnan(v)]
        order = np.argsort(key)
        largest = np.maximum.accumulate(np.concatenate([[-np.inf], v[order]]))
        m_delta = largest[np.searchsorted(key[order], delta_arr)]
        counts = np.searchsorted(m_delta, eps_arr)  # working deltas per eps
        _centre_in_ball(quotient, x, delta_grid[max(int(counts.min()) - 1, 0)])
        fails += [(x, eps_grid[i]) for i in np.flatnonzero(counts == 0)]
        wits += [(x, eps, delta_grid[c - 1]) for eps, c in zip(eps_grid[:3], counts[:3]) if c]
    rep.add("property_A", FAIL if fails else PASS, fails or wits[:3])

    # Property B: orbital distance is minimal at the slice center. One
    # gather per x over all y in S_x: vy[i, g1, g2] = d_O(g1 y_i, g2 y_i),
    # pairs with an undefined image masked out.
    fails, wits = [], []
    for x in range(n):
        ys = np.array(sorted(family.slice_of[x]))
        ax, ay = act[:, x], act[:, ys].T
        vx = dO[ax[:, None], ax]
        vy = dO[ay[:, :, None], ay[:, None, :]]
        defined = (ax >= 0) & (ay >= 0)
        broken = ((vx > vy + tol) & defined[:, :, None] & defined[:, None, :]).any(axis=(1, 2))
        b = dq[orbit[x], orbit[ys[broken]]].min(initial=np.inf)
        c = int(np.searchsorted(delta_arr, b, side="right"))  # deltas <= b
        _centre_in_ball(quotient, x, delta_grid[max(c - 1, 0)])
        if c:
            wits.append((x, delta_grid[c - 1]))
        else:
            fails.append((x,))
    rep.add("property_B", FAIL if fails else PASS, fails or wits[:3])

    # Property C: a small orbital move comes from a small group element
    fails, wits = [], []
    for x in range(n):
        g = np.flatnonzero(act[:, x] >= 0)
        v = dO[x, act[g, x]]
        to_coset = d_G.table[e][mul[np.ix_(g, gspace.stabilizer(x))]].min(axis=1)
        to_coset, v = to_coset[~np.isnan(v)], v[~np.isnan(v)]
        order = np.argsort(to_coset)
        least = np.minimum.accumulate(np.append(v[order], np.inf)[::-1])[::-1]
        m_delta = least[np.searchsorted(to_coset[order], delta_arr)]
        fails += [(x, delta_grid[i]) for i in np.flatnonzero(m_delta < eps_grid[0])]
        wits += [(x, delta, eps_grid[0]) for delta, m in zip(delta_grid[:3], m_delta[:3]) if m >= eps_grid[0]]
    rep.add("property_C", FAIL if fails else PASS, fails or wits[:3])

    # Coset-metric inequalities per chart: anchor distance <= slice-point
    # distance <= group distance. The tables depend on (chart, y) only
    # through the two stabilizers, so each pair is compared once.
    resid = 0.0
    fails = []
    chains = {}
    for chart in d_O.charts:
        K_anchor = gspace.stabilizer(chart.anchor)
        for y in sorted(chart.slice_pts):
            key = (K_anchor, gspace.stabilizer(y))
            if key not in chains:
                t_anchor, t_y = d_G.coset_table(key[0]), d_G.coset_table(key[1])
                worst = np.maximum(t_anchor - t_y, t_y - d_G.table)
                chains[key] = float(worst.max()), np.argwhere(worst > tol).tolist()
            worst_max, hits = chains[key]
            resid = max(resid, worst_max)
            fails += [(chart.orbit, y, *hit) for hit in hits]
    rep.add("coset_inequality_chain", FAIL if fails else PASS, fails, resid)

    # translated-slice bound: moving within a translated slice is bounded by
    # the group displacement of the translating element. It cannot fail:
    # u = e lies in K, so d(g0 K, g g0 K) <= d_G(g0, g g0) holds exactly in
    # the one-sided and in the two-sided form, and the residual stays 0.
    # The bound depends on y' only through its stabilizer and the elements
    # defined at y', so each such pair is compared once.
    resid = 0.0
    fails = []
    bounds = {}
    in_domain = act[:, :n].T >= 0  # in_domain[y, g]: g.y is defined
    bound_key = [(gspace.stabilizer(y), in_domain[y].tobytes()) for y in range(n)]
    for chart in d_O.charts:
        for yp in sorted(chart.slice_pts):
            key = bound_key[yp]
            if key not in bounds:
                g0 = np.flatnonzero(in_domain[yp])
                gg0 = mul[:, g0].T  # gg0[i, g] = g g0[i]
                v = d_G.coset_table(key[0])[g0[:, None], gg0]
                bound = d_G.table[g0[:, None], gg0]
                bounds[key] = (float((v - bound).max()),
                               [(int(g0[i]), int(g)) for i, g in np.argwhere(v > bound + tol)])
            worst_max, hits = bounds[key]
            resid = max(resid, worst_max)
            fails += [(chart.orbit, yp, *hit) for hit in hits]
    rep.add("translated_motion_bound", FAIL if fails else PASS, fails, max(resid, 0.0))

    return rep

"""Group metrics, coset pseudometrics, and the glued orbital metric.

The orbital metric assigns an invariant distance to same-orbit pairs (zero
across orbits). Per chart (one slice per orbit representative) an orbit is
identified with a coset space G/K of the group through a base point with
stabilizer K on the slice; the chart metrics are glued with tent-shaped
partition-of-unity weights on the orbit space.

Every coset distance d(g1 K, g2 K) is read from one cached |G| x |G| table
per stabilizer (``GroupMetric.coset_table``). The gluing is array work: the
least element sending each base point in use to each point comes from one
transporter table, and each chart adds its share to all same-orbit pairs in
one gather, chart after chart, so every sum keeps the order of a scalar loop.

The property checks reduce each point to the few values that decide its
epsilon/delta tests (the least grid rank at which an orbital move reaches
an eps, the least breaking slice distance, the largest coset distance of a
small move) and compare the grids with those. They run over blocks of
points whose gathers hold at most ``_BLOCK`` elements, so their temporaries
stay bounded however many points there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral

import numpy as np

from .errors import ValidationError
from .gspace import FiniteGroup, SampledGSpace, _check_metric_table
from .quotient import Quotient
from .report import ADVISORY, FAIL, PASS, Report
from .slices import SliceFamily, value_grid

_BLOCK = 1 << 15  # elements one gather of the property checks may hold


@dataclass(frozen=True)
class GroupMetric:
    group: FiniteGroup
    table: np.ndarray  # order x order
    kind: str  # discrete | word | explicit
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def dist(self, g: int, h: int) -> float:
        return float(self.table[g, h])

    @property
    def mul(self) -> np.ndarray:
        """The group's multiplication table as an array, converted once."""
        if "mul" not in self._cache:
            self._cache["mul"] = np.asarray(self.group.mul)
        return self._cache["mul"]

    def ball(self, radius: float) -> frozenset:
        """Open ball around the identity."""
        e = self.group.identity
        return frozenset(g for g in range(self.group.order) if self.table[e, g] < radius)

    def right_invariant_for(self, subgroup) -> bool:
        """Exhaustive right-invariance check: d(gu, hu) = d(g, h) for u in K."""
        key = ("right",) + tuple(sorted(subgroup))
        if key not in self._cache:
            mul, t = self.mul, self.table
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
            mul, K = self.mul, key[1:]
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
    """Raise on the first (k, g, h), row-major, with d(kg, kh) != d(g, h).

    One comparison decides most tables: if d(g, h) = d(e, g^-1 h) for all
    g, h, then d(kg, kh) = d(e, g^-1 h) = d(g, h) exactly. Only a mismatch
    (nan included) runs the row-major scan for the witness.
    """
    mul = np.asarray(group.mul)
    if np.array_equal(table, table[group.identity][mul[np.asarray(group.inv)]]):
        return
    for k in range(group.order):
        left = mul[k]
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

    n, n_orbits = gspace.n_points, quotient.n_orbits
    orbit = np.asarray(quotient.orbit_of)
    # base[o, q]: the least point of chart o's slice on orbit q (n if none)
    base = np.full((n_orbits, n_orbits), n)
    for o in range(n_orbits):
        pts = family.slice_of[quotient.representative[o]]
        idx = np.fromiter(pts, dtype=np.intp, count=len(pts))
        np.minimum.at(base[o], orbit[idx], idx)
    meets = base < n
    w = np.asarray(family.radius_of_orbit, dtype=np.float64)[:, None] - quotient.d
    raw = np.where(meets & (w > 0), w, 0.0)
    charts = []
    for o in range(n_orbits):
        qs = np.flatnonzero(meets[o])
        charts.append(Chart(orbit=o, anchor=quotient.representative[o],
                            slice_pts=family.slice_of[quotient.representative[o]],
                            radius=family.radius_of_orbit[o],
                            base_points=dict(zip(qs.tolist(), base[o, qs].tolist())), weights=raw[o]))

    total = sum(raw, np.zeros(n_orbits))  # Python's sum: chart after chart
    uncovered = np.flatnonzero(total <= 0)
    if uncovered.size:
        raise ValidationError("UncoveredOrbit", "orbit meets no chart", int(uncovered[0]))
    chi = np.ascontiguousarray(raw.T) / total[:, None]

    # Each chart reads d(g1 K, g2 K) with g1, g2 the least elements sending
    # its base point y0 (stabilizer K) to x and y: transporter[row[y0], x],
    # -1 where no element does, which makes the pair undefined (nan). The
    # table has a row per base point in use and the coset tables are those
    # of their stabilizers. One gather per chart covers the pairs x < y of
    # every orbit it takes part in, and the charts add up in chart order;
    # (y, x) copies (x, y).
    on = chi.T > 0  # on[a, q]: chart a takes part on orbit q
    used = np.flatnonzero(np.bincount(base[on], minlength=n))
    row = np.zeros(n, dtype=np.intp)
    row[used] = np.arange(used.size)
    images = gspace.action[:, used]
    g, i = np.nonzero(images >= 0)
    transporter = np.full((used.size, n), group.order)
    np.minimum.at(transporter, (i, images[g, i]), g)
    transporter[transporter == group.order] = -1
    slot = np.zeros(n, dtype=np.intp)  # base point -> its stabilizer's coset table
    tables, slots = [], {}
    for y0 in used.tolist():
        K = gspace.stabilizer(y0)
        if K not in slots:
            slots[K] = len(tables)
            tables.append(d_G.coset_table(K))
        slot[y0] = slots[K]
    coset = np.array(tables)
    px, py = np.nonzero(np.triu(orbit[:, None] == orbit, 1))
    pq = orbit[px]
    acc = np.zeros(px.size)
    for a in np.flatnonzero(on.any(axis=1)).tolist():
        k = np.flatnonzero(on[a, pq])
        y0 = base[a, pq[k]]
        g1, g2 = transporter[row[y0], px[k]], transporter[row[y0], py[k]]
        dist = coset[slot[y0], g1, g2]
        acc[k] += chi[pq[k], a] * np.where((g1 >= 0) & (g2 >= 0), dist, np.nan)
    values = np.zeros((n, n))
    values[px, py] = values[py, px] = acc

    values.setflags(write=False)
    return OrbitalMetric(charts=tuple(charts), chi=chi, group_metric=d_G, values=values)


def _blocks(sizes):
    """Runs (start, stop) of consecutive points whose sizes, the elements
    each point gathers, add up to at most _BLOCK; a point larger than that
    is a run of its own."""
    start, total = 0, 0
    for x, size in enumerate(sizes):
        if total + size > _BLOCK and x > start:
            yield start, x
            start, total = x, 0
        total += size
    if start < len(sizes):
        yield start, len(sizes)


def _slice_pairs(family: SliceFamily, start: int, stop: int):
    """The pairs (x, y), y in S_x, of the points start <= x < stop."""
    slices = family.slice_of[start:stop]
    x = np.repeat(np.arange(start, stop), [len(s) for s in slices])
    return x, np.fromiter(chain.from_iterable(slices), dtype=np.intp, count=x.size)


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

    Every check reads the action array ``gspace.action``. Properties A, B
    and C run over runs of consecutive points whose gathers hold at most
    ``_BLOCK`` elements together (|S_x| |G| per point for A, |S_x| |G|^2
    for B, |G| for C; a point larger than that is a run of its own), and
    reduce each point's pairs by exact minima and maxima, so the
    temporaries stay bounded at any n. The coset chain and the translated bound compare
    their tables once per distinct pair of stabilizers (of domains, for
    the bound) and emit witnesses per (chart, y) in scan order.
    """
    rep = Report()
    group = gspace.group
    e = group.identity
    n = gspace.n_points
    act = gspace.action
    mul = d_G.mul
    dq, dO = quotient.d, d_O.values
    orbit = np.asarray(quotient.orbit_of)

    eps_grid = _grid_or(dO[~np.isnan(dO)], 1.0)
    delta_grid = _grid_or(np.concatenate([dq.ravel(), d_G.table.ravel()]), 1.0)
    eps_arr, delta_arr = np.array(eps_grid), np.array(delta_grid)
    n_delta = len(delta_grid)
    images = act[:, :n].T.copy()  # images[x, g] = g.x, -1 where undefined
    n_slice = [len(s) for s in family.slice_of]

    # Property A: small quotient ball + small group ball => small orbital move.
    # An entry (y, g) counts for delta_i from rank t = #{delta <= key} on,
    # key = max(d(p x, p y), d_G(e, g)); ranks are monotone, so t is the
    # larger of the two ranks. The first delta with M(delta) >= eps is the
    # least rank of a value >= eps (the witnesses need it for the three
    # least eps only), and the eps that no delta works for are those up to
    # M(delta_0), the largest value of rank 0.
    rank_g = np.searchsorted(delta_arr, d_G.table[e], side="right")
    top0 = np.full(n, -np.inf)
    first = np.full((min(3, len(eps_grid)), n), n_delta)
    for start, stop in _blocks([k * group.order for k in n_slice]):
        x, y = _slice_pairs(family, start, stop)
        gy = images[y]
        v = dO[y[:, None], gy]
        ok = (gy >= 0) & ~np.isnan(v)
        t = np.maximum(np.searchsorted(delta_arr, dq[orbit[x], orbit[y]], side="right")[:, None], rank_g)
        np.maximum.at(top0, x, np.where(ok & (t == 0), v, -np.inf).max(axis=1))
        for j, row in enumerate(first):
            np.minimum.at(row, x, np.where(ok & (v >= eps_arr[j]), t, n_delta).min(axis=1))
    counts = first.T.tolist()
    failing = np.searchsorted(eps_arr, top0, side="right").tolist()
    fails, wits = [], []
    for x in range(n):
        _centre_in_ball(quotient, x, delta_grid[max(counts[x][0] - 1, 0)])
        fails += [(x, eps) for eps in eps_grid[:failing[x]]]
        wits += [(x, eps, delta_grid[c - 1]) for eps, c in zip(eps_grid, counts[x]) if c]
    rep.add("property_A", FAIL if fails else PASS, fails or wits[:3])

    # Property B: orbital distance is minimal at the slice center. A block
    # of pairs (x, y) is one gather, vy[i, g1, g2] = d_O(g1 y_i, g2 y_i),
    # pairs with an undefined image masked out. y = x cannot break it when
    # tol >= 0 (a > a + tol is false), so those pairs are skipped.
    skip = tol >= 0
    least = np.full(n, np.inf)
    sizes = [(k - (skip and x in s)) * group.order ** 2
             for x, (k, s) in enumerate(zip(n_slice, family.slice_of))]
    for start, stop in _blocks(sizes):
        x, y = _slice_pairs(family, start, stop)
        if skip:
            keep = x != y
            x, y = x[keep], y[keep]
        ax, ay = images[x], images[y]
        vx = dO[ax[:, :, None], ax[:, None, :]]
        vy = dO[ay[:, :, None], ay[:, None, :]]
        defined = (ax >= 0) & (ay >= 0)
        broken = ((vx > vy + tol) & defined[:, :, None] & defined[:, None, :]).any(axis=(1, 2))
        np.minimum.at(least, x[broken], dq[orbit[x[broken]], orbit[y[broken]]])
    fails, wits = [], []
    for x, c in enumerate(np.searchsorted(delta_arr, least, side="right").tolist()):  # deltas <= b
        _centre_in_ball(quotient, x, delta_grid[max(c - 1, 0)])
        if c:
            wits.append((x, delta_grid[c - 1]))
        else:
            fails.append((x,))
    rep.add("property_B", FAIL if fails else PASS, fails or wits[:3])

    # Property C: a small orbital move comes from a small group element.
    # m(delta) < eps_0 iff some g with d_O(x, g.x) < eps_0 keeps its coset
    # at least delta from e, so the failing deltas are those up to the
    # largest such coset distance (none when no move is small: the grids
    # are positive, so -inf reaches no delta). to_coset depends on x only
    # through K.
    stab = {K: i for i, K in enumerate(dict.fromkeys(gspace.stabilizers))}
    to_coset = np.array([d_G.table[e][mul[:, K]].min(axis=1) for K in stab])
    stab_of = np.array([stab[K] for K in gspace.stabilizers])
    reach = np.zeros(n, dtype=np.intp)
    for start, stop in _blocks([group.order] * n):
        x = np.arange(start, stop)
        gx = images[x]
        small = (gx >= 0) & (dO[x[:, None], gx] < eps_arr[0])
        top = np.where(small, to_coset[stab_of[x]], -np.inf).max(axis=1)
        reach[start:stop] = np.searchsorted(delta_arr, top, side="right")
    fails, wits = [], []
    for x, c in enumerate(reach.tolist()):
        fails += [(x, delta) for delta in delta_grid[:c]]
        wits += [(x, delta, eps_grid[0]) for delta in delta_grid[c:3]]
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

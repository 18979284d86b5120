"""Group metrics, coset pseudometrics, and the glued orbital metric.

The orbital metric assigns an invariant distance to same-orbit pairs (zero
across orbits). Per chart (one slice per orbit representative) an orbit is
identified with a coset space G/K of the group through a base point with
stabilizer K on the slice; the chart metrics are glued with tent-shaped
partition-of-unity weights on the orbit space. A chart is not stored: chart
o is read from ``quotient.representative[o]`` and that point's slice, and
only the weights ``chi`` are kept.

Every coset distance d(g1 K, g2 K) is read from one cached |G| x |G| table
per stabilizer (``GroupMetric.coset_table``), looked up by the stabilizer
classes of ``SampledGSpace``. The gluing is array work: the least element
sending each base point in use to each point comes from one transporter
table, and each chart adds its share to all same-orbit pairs in one gather,
chart after chart, so every sum keeps the order of a scalar loop.

The property checks reduce each point to the few values that decide its
epsilon/delta tests (the least grid rank at which an orbital move reaches
an eps, the least breaking slice distance, the largest coset distance of a
small move) and compare the grids with those. They run over runs of
consecutive points from ``gspace._point_blocks``, whose gathers hold at
most ``gspace._BLOCK`` elements, the cap every stacked check shares, so
their temporaries stay bounded however many points there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ValidationError
from .gspace import FiniteGroup, SampledGSpace, _check_metric_table, _point_blocks
from .quotient import Quotient
from .report import ADVISORY, FAIL, PASS, Report
from .slices import SliceFamily, value_grid


@dataclass(frozen=True)
class GroupMetric:
    group: FiniteGroup
    table: np.ndarray  # order x order
    kind: str  # discrete | word | explicit
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def right_invariant_for(self, subgroup) -> bool:
        """Exhaustive right-invariance check: d(gu, hu) = d(g, h) for u in K.

        Requires d(g, h) = d(e, g^-1 h) bit for bit, as ``group_metric``
        checks. Then d(gu, hu) = f(u^-1 g^-1 h u) with f = d(e, .), so the
        check is f(u^-1 x u) = f(x) over x: one row per u, and exactly the
        verdict of the full |G| x |G| comparison.
        """
        key = ("right",) + tuple(sorted(subgroup))
        if key not in self._cache:
            mul, f = self.group.mul, self.table[self.group.identity]
            u = np.array(key[1:], dtype=np.intp)
            self._cache[key] = bool((f[mul[mul[self.group.inv[u]], u[:, None]]] == f).all())
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
            mul, K = self.group.mul, key[1:]
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
    if np.array_equal(table, table[group.identity][group.mul[group.inv]]):
        return
    for k in range(group.order):
        left = group.mul[k]
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
        # a NaN or infinite scale fails the table's finiteness check below
        if isinstance(scale, bool) or not isinstance(scale, Real):
            raise ValidationError("InvalidParams", "discrete metric scale must be a number")
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
        # BFS word lengths from the identity; d(g, h) = |g^-1 h|, one gather
        # of small integers, which convert to float exactly
        length = np.full(n, -1)
        length[group.identity] = 0
        frontier, steps = np.array([group.identity]), 0
        while frontier.size:
            steps += 1
            images = group.mul[np.ix_(frontier, gens)]
            length[images[length[images] < 0]] = steps
            frontier = np.flatnonzero(length == steps)
        if (length < 0).any():
            raise ValidationError("GeneratorsDontGenerate", "generators do not generate the group")
        t = length[group.mul[group.inv]].astype(np.float64)
    elif kind == "explicit":
        t = np.asarray(table, dtype=np.float64)
        if t.shape != (n, n):
            raise ValidationError("NotAMetric", "group metric table has wrong shape")
    else:
        raise ValidationError("InvalidParams", f"unknown group metric kind {kind!r}")

    # bitwise d(g, h) = d(e, g^-1 h): then every left multiplication moves t
    # onto itself bit for bit, and they move the identity row to every row,
    # so the triangle scan refutes that row alone first
    left = np.array_equal(t.view(np.int64), t[group.identity][group.mul[group.inv]].view(np.int64))
    _check_metric_table(t, tol, [group.identity] if left else None)
    _check_left_invariance(group, t)
    t.setflags(write=False)
    return GroupMetric(group=group, table=t, kind=kind)


@dataclass(frozen=True)
class OrbitalMetric:
    chi: np.ndarray  # n_orbits x n_charts, rows summing to 1
    group_metric: GroupMetric
    values: np.ndarray  # n_points x n_points; zero across orbits; nan = undefined


def build_orbital_metric(gspace: SampledGSpace, quotient: Quotient,
                         family: SliceFamily, d_G: GroupMetric) -> OrbitalMetric:
    """Glue chart coset metrics into one orbital metric.

    Chart o is the slice at the representative of orbit o. On an orbit q it
    meets, its base point is the least point of the slice on q, and its raw
    tent weight is the slice radius minus d(o, q) where positive.

    Requires, for every stabilizer, either right invariance of the group
    metric or normality of the stabilizer (otherwise the coset identification
    depends on the base point and the construction is rejected). The test
    runs once per stabilizer class; the witness is the least point whose
    stabilizer fails it.
    """
    group = gspace.group
    compatible = [d_G.right_invariant_for(K) or group.is_normal(K) for K in gspace.stabilizer_classes]
    if not all(compatible):
        raise ValidationError(
            "IncompatibleGroupMetric",
            "group metric is neither right invariant for a stabilizer nor is the stabilizer normal",
            int(np.argmax(gspace.stabilizer_class == compatible.index(False))),
        )

    n, n_orbits = gspace.n_points, quotient.n_orbits
    orbit = quotient.orbit_of
    # base[o, q]: the least point of chart o's slice on orbit q (n if none)
    base = np.full((n_orbits, n_orbits), n)
    for o, anchor in enumerate(quotient.representative.tolist()):
        idx = family.members(anchor)
        np.minimum.at(base[o], orbit[idx], idx)
    meets = base < n
    w = np.asarray(family.radius_of_orbit, dtype=np.float64)[:, None] - quotient.d
    raw = np.where(meets & (w > 0), w, 0.0)

    total = sum(raw, np.zeros(n_orbits))  # Python's sum: chart after chart
    uncovered = np.flatnonzero(total <= 0)
    if uncovered.size:
        raise ValidationError("UncoveredOrbit", "orbit meets no chart", int(uncovered[0]))
    chi = np.ascontiguousarray(raw.T) / total[:, None]

    # Each chart reads d(g1 K, g2 K) with g1, g2 the least elements sending
    # its base point y0 (stabilizer K) to x and y: transporter[row[y0], x],
    # -1 where no element does, which makes the pair undefined (nan). The
    # table has a row per base point in use, and the coset tables stacked
    # are those of their stabilizer classes only. One gather per chart
    # covers the pairs x < y of every orbit it takes part in, and the charts
    # add up in chart order; (y, x) copies (x, y).
    on = chi.T > 0  # on[a, q]: chart a takes part on orbit q
    used = np.flatnonzero(np.bincount(base[on], minlength=n))
    row = np.zeros(n, dtype=np.intp)
    row[used] = np.arange(used.size)
    images = gspace.action[:, used]
    g, i = np.nonzero(images >= 0)
    transporter = np.full((used.size, n), group.order)
    np.minimum.at(transporter, (i, images[g, i]), g)
    transporter[transporter == group.order] = -1
    cls = gspace.stabilizer_class
    kept = np.flatnonzero(np.bincount(cls[used], minlength=len(gspace.stabilizer_classes)))
    slot = np.zeros(len(gspace.stabilizer_classes), dtype=np.intp)  # class -> its stacked coset table
    slot[kept] = np.arange(kept.size)
    coset = np.array([d_G.coset_table(gspace.stabilizer_classes[c]) for c in kept.tolist()])
    px, py = np.nonzero(np.triu(orbit[:, None] == orbit, 1))
    pq = orbit[px]
    acc = np.zeros(px.size)
    for a in np.flatnonzero(on.any(axis=1)).tolist():
        k = np.flatnonzero(on[a, pq])
        y0 = base[a, pq[k]]
        g1, g2 = transporter[row[y0], px[k]], transporter[row[y0], py[k]]
        dist = coset[slot[cls[y0]], g1, g2]
        acc[k] += chi[pq[k], a] * np.where((g1 >= 0) & (g2 >= 0), dist, np.nan)
    values = np.zeros((n, n))
    values[px, py] = values[py, px] = acc

    values.setflags(write=False)
    return OrbitalMetric(chi=chi, group_metric=d_G, values=values)


def _grid_or(values, fallback):
    grid = value_grid(values)
    return grid if grid else [fallback]


def _centre_in_ball(quotient: Quotient, x: int, delta: float):
    """Raise EmptyResult when the orbit of x lies outside its own open
    quotient ball of radius delta: d(p x, p x) is not below delta (a
    positive diagonal entry)."""
    o = quotient.orbit_of[x]
    if not quotient.d[o, o] < delta:
        raise ValidationError("EmptyResult", "center orbit not in the quotient set", x)


_TOL = 1e-12  # of property B's breaking test and the coset inequality chain


def verify_orbital_properties(gspace: SampledGSpace, quotient: Quotient,
                              family: SliceFamily, d_O: OrbitalMetric,
                              d_G: GroupMetric) -> Report:
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
       (some g1, g2 with d_O(g1 x, g2 x) > d_O(g1 y, g2 y) + _TOL); a delta
       works iff delta <= b.
    C: m(delta), the least d_O(x, g.x) over the g whose coset gK (K the
       stabilizer of x) stays at least delta from e, min over u in K of
       d_G(e, g u) >= delta; eps works iff eps <= m(delta), and the least
       working eps is reported.

    Pairs that are undefined under a partial action or nan in d_O never
    count. A delta at or below a positive quotient diagonal entry
    d(p x, p x) leaves x outside its own slice ball; the descending A and B
    searches raise EmptyResult at the first delta with d(p x, p x) not
    below it.

    Every check reads the action array ``gspace.action``. Properties A, B
    and C run over runs of consecutive points (``gspace._point_blocks``)
    whose gathers hold at most ``gspace._BLOCK`` elements together
    (|S_x| |G| per point for A, |G|^2 per y in S_x for B, x itself
    skipped, |G| for C; a point larger than that is a run of
    its own), and reduce each point's pairs by exact minima and maxima, so
    the temporaries stay bounded at any n; a run's pairs are a slice of
    ``family.pairs``. The coset chain compares its tables once per pair of
    stabilizer classes and emits witnesses per (chart, y) in scan order.
    The translated bound cannot fail and is an advisory line with
    residual 0.
    """
    rep = Report()
    group = gspace.group
    e = group.identity
    n = gspace.n_points
    act = gspace.action
    mul = group.mul
    dq, dO = quotient.d, d_O.values
    orbit = quotient.orbit_of

    eps_grid = _grid_or(dO[~np.isnan(dO)], 1.0)
    delta_grid = _grid_or(np.concatenate([dq.ravel(), d_G.table.ravel()]), 1.0)
    eps_arr, delta_arr = np.array(eps_grid), np.array(delta_grid)
    n_delta = len(delta_grid)
    images = act[:, :n].T.copy()  # images[x, g] = g.x, -1 where undefined
    px, py = family.pairs
    offsets = family.offsets
    n_slice = np.diff(offsets)

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
    for start, stop in _point_blocks(offsets, group.order):
        x, y = px[offsets[start] : offsets[stop]], py[offsets[start] : offsets[stop]]
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
    # pairs with an undefined image masked out. y = x cannot break it
    # (a > a + _TOL is false), so those pairs are skipped.
    least = np.full(n, np.inf)
    own = np.zeros(n, dtype=np.intp)  # 1 where x lies in S_x
    own[px[px == py]] = 1
    gathered = np.cumsum(np.concatenate([[0], n_slice - own]))  # offsets of the pairs kept
    for start, stop in _point_blocks(gathered, group.order ** 2):
        x, y = px[offsets[start] : offsets[stop]], py[offsets[start] : offsets[stop]]
        keep = x != y
        x, y = x[keep], y[keep]
        ax, ay = images[x], images[y]
        vx = dO[ax[:, :, None], ax[:, None, :]]
        vy = dO[ay[:, :, None], ay[:, None, :]]
        defined = (ax >= 0) & (ay >= 0)
        broken = ((vx > vy + _TOL) & defined[:, :, None] & defined[:, None, :]).any(axis=(1, 2))
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
    # through the class of K.
    to_coset = np.array([d_G.table[e][mul[:, K]].min(axis=1) for K in gspace.stabilizer_classes])
    cls = gspace.stabilizer_class
    reach = np.zeros(n, dtype=np.intp)
    for start, stop in _point_blocks(np.arange(n + 1), group.order):
        x = np.arange(start, stop)
        gx = images[x]
        small = (gx >= 0) & (dO[x[:, None], gx] < eps_arr[0])
        top = np.where(small, to_coset[cls[x]], -np.inf).max(axis=1)
        reach[start:stop] = np.searchsorted(delta_arr, top, side="right")
    fails, wits = [], []
    for x, c in enumerate(reach.tolist()):
        fails += [(x, delta) for delta in delta_grid[:c]]
        wits += [(x, delta, eps_grid[0]) for delta in delta_grid[c:3]]
    rep.add("property_C", FAIL if fails else PASS, fails or wits[:3])

    # Coset-metric inequalities per chart (the slice at an orbit's
    # representative): anchor distance <= slice-point distance <= group
    # distance. The tables depend on (chart, y) only through the two
    # stabilizer classes, so each pair of classes is compared once.
    anchors = quotient.representative
    sizes = n_slice[anchors]
    ys = np.concatenate([family.members(a) for a in anchors.tolist()] + [np.zeros(0, dtype=np.intp)])
    keys = list(zip(np.repeat(cls[anchors], sizes).tolist(), cls[ys].tolist()))
    chains = {}
    for key in dict.fromkeys(keys):
        t_anchor, t_y = (d_G.coset_table(gspace.stabilizer_classes[c]) for c in key)
        worst = np.maximum(t_anchor - t_y, t_y - d_G.table)
        chains[key] = float(worst.max()), np.argwhere(worst > _TOL).tolist()
    resid = max([0.0] + [worst_max for worst_max, _ in chains.values()])
    charts = np.repeat(np.arange(anchors.size), sizes).tolist()
    fails = [(o, y, *hit) for o, y, key in zip(charts, ys.tolist(), keys) for hit in chains[key][1]]
    rep.add("coset_inequality_chain", FAIL if fails else PASS, fails, resid)

    # translated-slice bound: moving within a translated slice is bounded by
    # the group displacement of the translating element. It cannot fail, so
    # it is advisory: d(g0 K, g g0 K) is a minimum over u in K (over u, v in
    # K when two-sided) that includes u = e, so it is at most d_G(g0, g g0)
    # exactly, and the residual is 0.
    rep.add("translated_motion_bound", ADVISORY,
            [("u = e lies in K, so the bound holds exactly at tol >= 0",)])

    return rep

"""Verification of lifted metrics: axioms, invariance, ball inclusions,
and quotient consistency.

Every pass/fail check is a finite exhaustive computation. Epsilon/delta
statements quantified over (0, inf) are decided on the grid of realized
values of rho, d, d_G, d_O plus midpoints: over a finite point set, ball
contents (and hence inclusion truth) only change at realized values.

Ball inclusions run on a ball-prefix index rather than on rebuilt sets: an
open ball of radius r is a prefix of its centre's sorted distance row (of
d_G at the identity, of the quotient metric, of rho), with its length found
by ``np.searchsorted`` once for the whole grid, and each motion set is
reduced once to two rho-ranks. The O(n^3) axiom scan and the pair checks
are vectorised one row at a time and keep the scalar witness order.
"""

from __future__ import annotations

import numpy as np

from .gspace import SampledGSpace
from .lift import LiftedMetric
from .orbital import GroupMetric, OrbitalMetric
from .quotient import Quotient
from .report import ADVISORY, FAIL, PASS, Report
from .slices import SliceFamily, subslice, value_grid


def _metric_axiom_violations(table: np.ndarray, tol: float):
    """Violations of the metric axioms and the worst residual, collected
    rather than raised so they can be reported with witnesses.

    Witness order is the scalar scan order: diagonal by i, then per pair
    i < j (row-major) the negative, asymmetric and zero tests, then the
    triangle inequality row-major over (i, j, k). Each triangle row is one
    n x n comparison, so extra memory stays O(n^2)."""
    n = table.shape[0]
    v = []
    resid = 0.0
    # infinities are legitimate (extended metric on a disconnected lift);
    # inf - inf comparisons below evaluate to nan, which never exceeds tol
    with np.errstate(invalid="ignore"):
        diag = np.abs(np.diagonal(table))
        for i in np.flatnonzero(diag > tol).tolist():
            v.append(("nonzero_diagonal", i))
            resid = max(resid, float(diag[i]))

        iu, ju = np.triu_indices(n, 1)
        upper = table[iu, ju]
        skew = np.abs(upper - table[ju, iu])
        negative = upper < -tol
        asymmetric = skew > tol
        zero = (-tol <= upper) & (upper <= tol)
        for p in np.flatnonzero(negative | asymmetric | zero).tolist():
            i, j = int(iu[p]), int(ju[p])
            if negative[p]:
                v.append(("negative", i, j))
            if asymmetric[p]:
                v.append(("asymmetric", i, j))
                resid = max(resid, float(skew[p]))
            if zero[p]:
                v.append(("zero_between_distinct", i, j))

        for i in range(n):
            gap = table[i][:, None] - (table[i][None, :] + table.T)
            hits = gap > tol
            if hits.any():
                v.extend(("triangle", i, j, k) for j, k in np.argwhere(hits).tolist())
                resid = max(resid, float(gap[hits].max()))
    return v, resid


def verify_lifted_metric(gspace: SampledGSpace, quotient: Quotient,
                         lifted: LiftedMetric, tol: float = 1e-9,
                         invariance_tol: float = 1e-12, region=None) -> Report:
    """All checks are exhaustive. ``region`` (a set of point indices, for
    truncated partial-action samples) restricts the pass/fail invariance
    check to quadruples inside it; pairs touching the excluded boundary band
    are reported as a separate advisory residual."""
    rep = Report()
    rho = lifted.rho
    n = gspace.n_points
    d = quotient.d
    p = quotient.orbit_of

    iu, ju = np.triu_indices(n, 1)
    if not np.isfinite(rho[iu, ju]).any():
        for name in ("metric_axioms", "g_invariance", "lower_bound_quotient",
                     "cover_local_isometry", "nearest_neighbor_compatibility"):
            rep.add(name, ADVISORY, [("no finite off-diagonal distance",)])
        rep.add("lift_connected", FAIL, [tuple(c[0] for c in lifted.components)])
        return rep

    v, resid = _metric_axiom_violations(rho, tol)
    rep.add("metric_axioms", FAIL if v else PASS, v, resid)

    # invariance wherever both endpoints translate; a finite/infinite
    # mismatch is itself a violation. Per g, one comparison over the pairs
    # x < y of its domain, witnesses in (g, x, y) order.
    inside = np.ones(n, dtype=bool)
    if region is not None:
        inside[:] = False
        inside[list(region)] = True
    v = []
    resid = 0.0
    boundary_resid = 0.0
    for g in range(gspace.group.order):
        dom = np.flatnonzero(gspace.action[g, :n] >= 0).tolist()
        img = gspace.action[g, dom]
        a = rho[np.ix_(dom, dom)]
        b = rho[np.ix_(img, img)]
        finite = np.isfinite(a) & np.isfinite(b)
        gap = np.abs(np.subtract(a, b, out=np.full(a.shape, np.inf), where=finite))
        pair = np.triu(~(np.isinf(a) & np.isinf(b)), 1)
        quad = inside[dom] & inside[img]
        quad = quad[:, None] & quad[None, :]
        kept = pair & quad
        if kept.any():
            resid = max(resid, float(gap[kept].max()))
            bad = np.argwhere(kept & (gap > invariance_tol)).tolist()
            v.extend((g, dom[i], dom[j]) for i, j in bad)
        band = pair & ~quad
        if band.any():
            boundary_resid = max(boundary_resid, float(gap[band].max()))
    rep.add("g_invariance", FAIL if v else PASS, v, resid)
    if region is not None:
        rep.add("g_invariance_boundary_band", ADVISORY, [], boundary_resid)

    orbit = np.asarray(p)
    gap = d[orbit[iu], orbit[ju]] - rho[iu, ju]
    above = gap[gap > 0]
    bad = np.flatnonzero(gap > tol).tolist()
    rep.add("lower_bound_quotient", FAIL if bad else PASS,
            [(int(iu[k]), int(ju[k])) for k in bad],
            float(above.max()) if above.size else 0.0)

    if lifted.mode == "cover":
        v = []
        resid = 0.0
        for s in lifted.graph.small_sets:
            pts = sorted(s)
            for a, u in enumerate(pts):
                for w in pts[a + 1 :]:
                    gap = abs(float(rho[u, w]) - float(d[p[u], p[w]]))
                    resid = max(resid, gap)
                    if gap > tol:
                        v.append((u, w))
        rep.add("cover_local_isometry", FAIL if v else PASS, v, resid)

    # topology proxy: each point's rho-nearest neighbor should be adjacent
    # in the sampling graph or lie on the same orbit (advisory)
    v = []
    for x in range(n):
        cands = [(float(rho[x, y]), y) for y in range(n) if y != x and np.isfinite(rho[x, y])]
        if not cands:
            continue
        best = min(c[0] for c in cands)
        nearest = [y for val, y in cands if val <= best + tol]
        ok = any(
            (min(x, y), max(x, y)) in gspace.space.edges or p[x] == p[y]
            for y in nearest
        )
        if not ok:
            v.append((x, nearest[0]))
    rep.add("nearest_neighbor_compatibility", ADVISORY, v)

    if not lifted.connected:
        rep.add("lift_connected", FAIL, [tuple(c[0] for c in lifted.components)])

    return rep


def _inclusion_grid(quotient, d_G, d_O, lifted):
    vals = list(np.asarray(quotient.d).ravel()) + list(d_G.table.ravel())
    if d_O is not None:
        vals += [v for v in d_O.values.ravel() if not np.isnan(v)]
    vals += [v for v in lifted.rho.ravel() if np.isfinite(v)]
    grid = value_grid(vals)
    top = (grid[-1] if grid else 0.0) + 1.0
    return grid + [top]


def motion_set(gspace: SampledGSpace, quotient: Quotient, family: SliceFamily,
               d_G: GroupMetric, x: int, delta: float, slice_radius: float = None) -> frozenset:
    """B(delta) . S_x(slice_radius): every point reachable by moving a slice
    neighbor of x with a group element delta-close to the identity."""
    if slice_radius is None:
        slice_radius = delta
    base = subslice(family, x, quotient, eps=slice_radius)
    out = set()
    for g in d_G.ball(delta):
        for y in base:
            gy = gspace.apply(g, y)
            if gy is not None:
                out.add(gy)
    return frozenset(out)


def rho_ball(lifted: LiftedMetric, x: int, eps: float) -> frozenset:
    return frozenset(
        y for y in range(lifted.rho.shape[0]) if lifted.rho[x, y] < eps
    )


def motion_inside_rho_ball(gspace, quotient, family, d_G, lifted,
                           x: int, delta: float, eps: float) -> bool:
    """Does B(delta) . S_x(delta) fit inside the open rho-ball of radius eps?"""
    return motion_set(gspace, quotient, family, d_G, x, delta) <= rho_ball(lifted, x, eps)


def rho_ball_inside_motion(gspace, quotient, family, d_G, lifted,
                           x: int, delta: float, eps: float) -> bool:
    """Is the open rho-ball of radius eps contained in B(delta) . S_x(eps)?"""
    return rho_ball(lifted, x, eps) <= motion_set(gspace, quotient, family, d_G, x, delta, slice_radius=eps)


def verify_ball_inclusions(gspace: SampledGSpace, quotient: Quotient,
                           family: SliceFamily, d_G: GroupMetric,
                           d_O: OrbitalMetric, lifted: LiftedMetric) -> Report:
    """Existence searches for the two ball-inclusion statements behind
    topology compatibility: small joint motion stays in a small rho-ball,
    and every small rho-ball is reached by small joint motion.

    Decides exactly what ``motion_inside_rho_ball`` and
    ``rho_ball_inside_motion`` decide, through the ball-prefix index: an
    open ball of radius r is the prefix of length #{v < r} of its centre's
    sorted distance row (ties fall wholly inside or outside it). Each motion
    set B(delta) . S_x(r) depends only on (x, group-ball prefix, quotient-ball
    prefix) and is reduced once to two ints: 1 + its highest rho-rank, and
    the longest rho-sorted prefix of x's row inside it. A rho-ball prefix of
    length L then contains the motion set iff the first is <= L, and lies in
    it iff L <= the second. In ``rho_ball_inside_motion`` both sides grow
    with eps, so that search is not monotone; both keep their full scan.
    """
    rep = Report()
    n = gspace.n_points
    grid = _inclusion_grid(quotient, d_G, d_O, lifted)
    radii = np.asarray(grid, dtype=np.float64)
    rho = lifted.rho

    identity_row = d_G.table[d_G.group.identity]
    group_order = np.argsort(identity_row, kind="stable")
    group_len = np.searchsorted(identity_row[group_order], radii).tolist()
    orbit_order = np.argsort(quotient.d, axis=1, kind="stable")
    rho_order = np.argsort(rho, axis=1, kind="stable")
    rho_rank = np.empty_like(rho_order)
    np.put_along_axis(rho_rank, rho_order, np.arange(n)[None, :], axis=1)

    def prefix_lengths(x):
        """Per grid radius: the prefix length of the rho-ball around x and
        of the quotient ball around p(x)."""
        q = quotient.orbit_of[x]
        return (np.searchsorted(rho[x][rho_order[x]], radii).tolist(),
                np.searchsorted(quotient.d[q][orbit_order[q]], radii).tolist())

    rows = gspace.action.tolist()
    motion = {}

    def motion_index(x, n_group, n_orbits):
        key = (x, n_group, n_orbits)
        if key not in motion:
            orbits = orbit_order[quotient.orbit_of[x]][:n_orbits].tolist()
            base = subslice(family, x, quotient, orbit_set=orbits)
            pts = {rows[g][y] for g in group_order[:n_group].tolist() for y in base}
            pts.discard(-1)
            inside = np.zeros(n, dtype=bool)
            inside[list(pts)] = True
            top = int(rho_rank[x][inside].max()) + 1 if pts else 0
            in_order = inside[rho_order[x]]
            prefix = n if in_order.all() else int(np.argmin(in_order))
            motion[key] = (top, prefix)
        return motion[key]

    fails, wits = [], []
    for x in range(n):
        rho_len, q_len = prefix_lengths(x)
        for i, eps in enumerate(grid):
            found = None
            for j, delta in enumerate(grid):
                if motion_index(x, group_len[j], q_len[j])[0] <= rho_len[i]:
                    found = delta
                    break
            if found is None:
                fails.append((x, eps))
            else:
                wits.append((x, eps, found))
    rep.add("motion_inside_rho_ball", FAIL if fails else PASS, fails or wits[:3])

    fails, wits = [], []
    for x in range(n):
        rho_len, q_len = prefix_lengths(x)
        for j, delta in enumerate(grid):
            found = None
            for i, eps in enumerate(grid):
                if rho_len[i] <= motion_index(x, group_len[j], q_len[i])[1]:
                    found = eps
                    break
            if found is None:
                fails.append((x, delta))
            else:
                wits.append((x, delta, found))
    rep.add("rho_ball_inside_motion", FAIL if fails else PASS, fails or wits[:3])

    return rep


def quotient_consistency(gspace: SampledGSpace, quotient: Quotient,
                         lifted: LiftedMetric, tol: float = 1e-9) -> Report:
    """Push rho back down: d'(P, Q) = min rho over lifts. d' must be a metric
    whenever rho is invariant; its deviation from d is reported as an
    advisory residual (equality is not claimed in general)."""
    rep = Report()
    k = quotient.n_orbits
    if not np.isfinite(lifted.rho).all():
        rep.add("pushforward_is_metric", ADVISORY, [("lift not finite everywhere",)])
        rep.add("pushforward_matches_quotient", ADVISORY, [("lift not finite everywhere",)])
        return rep

    dp = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            best = min(
                float(lifted.rho[x, y])
                for x in quotient.orbit_members[a]
                for y in quotient.orbit_members[b]
            )
            dp[a, b] = dp[b, a] = best

    v, resid = _metric_axiom_violations(dp, tol)
    rep.add("pushforward_is_metric", FAIL if v else PASS, v, resid)

    resid = float(np.max(np.abs(dp - quotient.d))) if k else 0.0
    wit = []
    if k and resid > tol:
        a, b = map(int, np.unravel_index(np.argmax(np.abs(dp - quotient.d)), dp.shape))
        wit = [(a, b)]
    rep.add("pushforward_matches_quotient", ADVISORY, wit, resid)

    return rep

"""Verification of lifted metrics: axioms, invariance, ball inclusions,
and quotient consistency.

Every pass/fail check is a finite exhaustive computation. Epsilon/delta
statements quantified over (0, inf) are decided on the grid of realized
values of rho, d, d_G, d_O plus midpoints: over a finite point set, ball
contents (and hence inclusion truth) only change at realized values.

Ball inclusions run on a ball-prefix index rather than on rebuilt sets: an
open ball of radius r is a prefix of its centre's sorted distance row (of
d_G at the identity, of the quotient metric, of rho), with its length found
by ``np.searchsorted`` once per centre for the whole grid. Each motion set
is built from the action array and reduced to two rho-ranks, and each
search is decided per centre, not per grid pair: the forward search by a
running minimum over its probes and one ``searchsorted``, the reverse
search in rounds over the runs of the quotient prefix
(``verify_ball_inclusions`` states both arguments).

The metric axioms of rho and of its pushforward are the one scan that
validates every metric table, ``gspace._metric_axiom_violations``, with
its arithmetic: t[i, j] - (t[i, k] + t[k, j]) > tol; rho's refutes its
orbit-minimum rows first when it is bitwise invariant under the total
elements (``gspace._total_minima``). The invariance,
lower-bound, cover-isometry and nearest-neighbour checks are array
reductions over pairs, and the pushforward is ``quotient.orbit_minima`` of
rho. Cover points are allowable neighbours exactly when they share a small
set, so the cover-isometry pairs are the cover edges, each named once. The
invariance check gathers rho[g.x, g.y] for a block of elements g at once from a nan-padded (n + 1) x (n + 1) copy of rho, in blocks capped
by ``gspace._BLOCK``: a few gathers, not one per element. All keep the
scalar witness order, and none adds floats in a different order than the
scalar loops in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .gspace import SampledGSpace, _check_scalar, _metric_axiom_violations, _row_blocks, _total_minima
from .lift import LiftedMetric
from .orbital import GroupMetric, OrbitalMetric
from .quotient import Quotient, orbit_minima
from .report import ADVISORY, FAIL, PASS, Report
from .slices import SliceFamily, value_grid


_INVARIANCE_TOL = 1e-12  # the largest |rho[x, y] - rho[g.x, g.y]| allowed


def verify_lifted_metric(gspace: SampledGSpace, quotient: Quotient,
                         lifted: LiftedMetric, tol: float = 1e-9, region=None) -> Report:
    """All checks are exhaustive. ``region`` (a set of point indices, for
    truncated partial-action samples) restricts the pass/fail invariance
    check to quadruples inside it; pairs touching the excluded boundary band
    are reported as a separate advisory residual. The invariance check
    allows ``_INVARIANCE_TOL``, the others ``tol``."""
    _check_scalar(tol, "tolerance")
    rep = Report()
    rho = lifted.rho
    n = gspace.n_points
    d = quotient.d
    orbit = quotient.orbit_of

    iu, ju = np.triu_indices(n, 1)
    if not np.isfinite(rho[iu, ju]).any():
        for name in ("metric_axioms", "g_invariance", "lower_bound_quotient",
                     "cover_local_isometry", "nearest_neighbor_compatibility"):
            rep.add(name, ADVISORY, [("no finite off-diagonal distance",)])
        rep.add("lift_connected", FAIL, [tuple(c[0] for c in lifted.components)])
        return rep

    # the orbit-minimum rows refute first when rho is bitwise invariant
    # under the total elements' generators; either way the same violations
    minima = _total_minima(gspace, rho)
    v, resid = _metric_axiom_violations(rho, tol, minima)
    rep.add("metric_axioms", FAIL if v else PASS, v, resid)

    # invariance wherever both endpoints translate; a finite/infinite
    # mismatch is itself a violation. A block of elements g gathers
    # rho[g.x, g.y] for all pairs from a copy of rho padded with nan, so
    # the gap |rho[x, y] - rho[g.x, g.y]| is nan exactly where a pair does
    # not count: an image is undefined, or both distances are infinite
    # (inf - inf; the copy reads -inf as inf, as ``np.isinf`` does). A nan
    # in rho itself counts as a gap of inf. The maxima skip nan (fmax), and
    # so does the witness test; witnesses in (g, x, y) order, x < y. A pair
    # costs 8 bytes of gap and up to 16 of numpy's gather buffers, so a
    # block holds _BLOCK / 4 pairs, and is freed before the next is gathered.
    table = np.where(np.isinf(rho), np.inf, rho)
    padded = np.full((n + 1, n + 1), np.nan)
    padded[:n, :n] = table
    nan_at = np.isnan(padded)
    nan_at[n, :] = nan_at[:, n] = False
    has_nan = bool(nan_at.any())
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    if region is not None:
        inside = np.zeros(n + 1, dtype=bool)  # slot n: an undefined image
        inside[list(region)] = True
    v = []
    resid = 0.0
    boundary_resid = 0.0
    for rows in _row_blocks(gspace.group.order, 4 * n * n):
        img = gspace.action[rows, :n]
        gap = padded[img[:, :, None], img[:, None, :]]
        if has_nan:
            defined = img >= 0
            lost = nan_at[img[:, :, None], img[:, None, :]] | nan_at[:n, :n]
            lost &= defined[:, :, None] & defined[:, None, :]
        with np.errstate(invalid="ignore"):
            np.subtract(table, gap, out=gap)
        np.abs(gap, out=gap)
        if has_nan:
            gap[lost] = np.inf
        counted = upper
        if region is not None:
            quad = inside[:n] & inside[img]  # x and g.x inside; false where undefined
            counted = quad[:, :, None] & quad[:, None, :]
            counted &= upper
            band = np.logical_xor(upper, counted)  # a pair with an end or image outside
            boundary_resid = float(np.fmax.reduce(gap, axis=None, where=band, initial=boundary_resid))
        resid = float(np.fmax.reduce(gap, axis=None, where=counted, initial=resid))
        bad = gap > _INVARIANCE_TOL
        bad &= counted
        v.extend((rows.start + g, x, y) for g, x, y in np.argwhere(bad).tolist())
        del gap, bad, counted
    rep.add("g_invariance", FAIL if v else PASS, v, resid)
    if region is not None:
        rep.add("g_invariance_boundary_band", ADVISORY, [], boundary_resid)

    # an inf - inf gap is NaN and enters neither the residual nor the witnesses
    with np.errstate(invalid="ignore"):
        gap = d[orbit[iu], orbit[ju]] - rho[iu, ju]
    above = gap[gap > 0]
    bad = np.flatnonzero(gap > tol).tolist()
    rep.add("lower_bound_quotient", FAIL if bad else PASS,
            [(int(iu[k]), int(ju[k])) for k in bad],
            float(above.max()) if above.size else 0.0)

    if lifted.mode == "cover":
        # the pairs u < w sharing a small set, sorted; a NaN gap (inf - inf)
        # enters neither the residual (fmax skips it) nor the witnesses
        u, w = lifted.graph.u, lifted.graph.v
        with np.errstate(invalid="ignore"):
            gap = np.abs(rho[u, w] - d[orbit[u], orbit[w]])
        bad = gap > tol
        rep.add("cover_local_isometry", FAIL if bad.any() else PASS, list(zip(u[bad].tolist(), w[bad].tolist())),
                float(np.fmax.reduce(gap, initial=0.0)))

    # topology proxy: each point's rho-nearest neighbors (finite, within tol
    # of the row minimum) should include one adjacent in the sampling graph
    # or on the same orbit (advisory); the witness is the first nearest y
    finite = np.isfinite(rho)
    np.fill_diagonal(finite, False)
    row = np.where(finite, rho, np.inf)
    best = row.min(axis=1)
    nearest = finite & (row <= best[:, None] + tol)
    compatible = orbit[:, None] == orbit[None, :]
    e = gspace.space.edges
    compatible[e[:, 0], e[:, 1]] = compatible[e[:, 1], e[:, 0]] = True
    lonely = finite.any(axis=1) & ~(nearest & compatible).any(axis=1)
    first = nearest.argmax(axis=1)
    rep.add("nearest_neighbor_compatibility", ADVISORY,
            [(x, int(first[x])) for x in np.flatnonzero(lonely).tolist()])

    if not lifted.connected:
        rep.add("lift_connected", FAIL, [tuple(c[0] for c in lifted.components)])

    return rep


def _inclusion_grid(quotient, d_G, d_O, lifted) -> np.ndarray:
    """The radii of both inclusion searches: the value grid of d, d_G, the
    defined values of d_O and the finite values of rho, then a top radius
    one above the largest."""
    tables = [np.ravel(quotient.d), d_G.table.ravel()]
    if d_O is not None:
        tables.append(d_O.values[~np.isnan(d_O.values)])
    tables.append(lifted.rho[np.isfinite(lifted.rho)])
    grid = value_grid(np.concatenate(tables))
    return np.array(grid + [(grid[-1] if grid else 0.0) + 1.0])


def _run_starts(*keys) -> np.ndarray:
    """Indices where the tuple of equal-length key arrays changes, from 0."""
    change = np.zeros(len(keys[0]), dtype=bool)
    change[0] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(change)


def verify_ball_inclusions(gspace: SampledGSpace, quotient: Quotient,
                           family: SliceFamily, d_G: GroupMetric,
                           d_O: OrbitalMetric, lifted: LiftedMetric) -> Report:
    """Existence searches for the two ball-inclusion statements behind
    topology compatibility: small joint motion stays in a small rho-ball,
    and every small rho-ball is reached by small joint motion.

    Decides exactly what the scalar predicates ``motion_inside_rho_ball``
    and ``rho_ball_inside_motion`` of ``tests/oracles.py`` decide over the
    grid r_0 < r_1 < ..., through the ball-prefix index: an open ball of
    radius r is the prefix of length #{v < r} of its centre's sorted
    distance row (ties fall wholly inside or outside it). For a centre x let L_i, g_j and q_j be the prefix lengths
    at r_i of its rho row, of the identity's d_G row and of its orbit's
    quotient row. A motion set B(r_j) . S_x(r_k) depends only on (g_j, q_k);
    it is built from the action array and reduced to two ints: top, 1 + its
    highest rho-rank, and prefix, the longest rho-sorted prefix of x's row
    inside it. The rho-ball of prefix L contains the motion set iff
    top <= L, and lies in it iff L <= prefix.

    Search 1 wants, for each eps index i, the first j with top_j <= L_i.
    L_i is ascending in i, so every answer lies at or before the answer for
    i = 0: probe top_j for j = 0, 1, ... until the first hit for i = 0
    (top_j is fixed along a run of equal (g_j, q_j), so only the first j of
    each run is probed), take the running minimum m_j of the probes, and
    answer every i by one searchsorted: the first j with top_j <= L_i is
    the first with m_j <= L_i, and m is non-increasing. No monotonicity of
    motion sets is assumed.

    Search 2 wants, for each delta index j, the first i with
    L_i <= prefix(g_j, q_i). Along a run of equal q_i the prefix is fixed
    and L_i ascends, so only the first i of a run can be the answer. The
    columns are resolved in rounds over these run starts; a round makes one
    motion-set evaluation per distinct g_j among the columns still open.

    Each centre's prefix lengths are computed once, and each motion set at
    most once per centre. A quotient prefix that misses the centre's orbit
    raises EmptyResult (the centre's orbit has a positive quotient diagonal
    entry, not below the radius); both searches evaluate the shortest one,
    q_0, first, so they raise at the centre where the scalar scan does. Failures are listed in full, in (x, radius) order; only the
    first three witnesses are kept, which is all the report shows.
    """
    rep = Report()
    n = gspace.n_points
    radii = _inclusion_grid(quotient, d_G, d_O, lifted)
    rho = lifted.rho
    orbit_of = quotient.orbit_of

    identity_row = d_G.table[d_G.group.identity]
    group_order = np.argsort(identity_row, kind="stable")
    group_len = np.searchsorted(identity_row[group_order], radii)
    moved = gspace.action[group_order]  # row g: the g-th element by d_G(e, .)
    group_len_list = group_len.tolist()
    group_lens = sorted(set(group_len_list))

    per_orbit = {}

    def orbit_index(q):
        """Per grid radius the quotient-ball prefix length around q, the rank
        of each orbit in q's row, and the run starts of both searches."""
        if q not in per_orbit:
            order = np.argsort(quotient.d[q], kind="stable")
            q_len = np.searchsorted(quotient.d[q][order], radii)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            per_orbit[q] = (q_len, rank, _run_starts(group_len, q_len).tolist(),
                            _run_starts(q_len).tolist())
        return per_orbit[q]

    fails1, wits1, fails2, wits2 = [], [], [], []
    for x, q in enumerate(orbit_of.tolist()):
        q_len, rank, starts1, starts2 = orbit_index(q)
        rho_order = np.argsort(rho[x], kind="stable")
        rho_len = np.searchsorted(rho[x][rho_order], radii)
        slice_pts = family.members(x)
        slice_rank = rank[orbit_of[slice_pts]]
        motion = {}

        def motion_index(n_group, n_orbits):
            """(top, prefix) of B . S_x for the first n_group elements and
            the first n_orbits orbits around q."""
            key = (n_group, n_orbits)
            if key not in motion:
                if rank[q] >= n_orbits:
                    raise ValidationError("EmptyResult", "center orbit not in the quotient set", x)
                inside = np.zeros(n + 1, dtype=bool)  # slot n catches the -1 images
                inside[moved[:n_group, slice_pts[slice_rank < n_orbits]]] = True
                in_order = inside[rho_order]
                hits = np.flatnonzero(in_order)
                top = int(hits[-1]) + 1 if hits.size else 0
                prefix = n if hits.size == n else int(np.argmin(in_order))
                motion[key] = (top, prefix)
            return motion[key]

        # search 1: probe until the first hit for the smallest rho-ball
        tops = []
        for j in starts1:
            tops.append(motion_index(group_len_list[j], int(q_len[j]))[0])
            if tops[-1] <= rho_len[0]:
                break
        run = np.searchsorted(-np.minimum.accumulate(tops), -rho_len)
        hit = run < len(tops)
        fails1 += [(x, float(radii[i])) for i in np.flatnonzero(~hit).tolist()]
        if len(wits1) < 3:
            for i in np.flatnonzero(hit)[:3 - len(wits1)].tolist():
                wits1.append((x, float(radii[i]), float(radii[starts1[run[i]]])))

        # search 2: rounds over the runs of q_i, one evaluation per open g_j
        found = {}
        open_lens = group_lens
        for i in starts2:
            if not open_lens:
                break
            for g in open_lens:
                if rho_len[i] <= motion_index(g, int(q_len[i]))[1]:
                    found[g] = i
            open_lens = [g for g in open_lens if g not in found]
        if open_lens:
            fails2 += [(x, float(radii[j])) for j in
                       np.flatnonzero(np.isin(group_len, open_lens)).tolist()]
        for j, g in enumerate(group_len_list):
            if len(wits2) == 3:
                break
            if g in found:
                wits2.append((x, float(radii[j]), float(radii[found[g]])))

    rep.add("motion_inside_rho_ball", FAIL if fails1 else PASS, fails1 or wits1)
    rep.add("rho_ball_inside_motion", FAIL if fails2 else PASS, fails2 or wits2)
    return rep


def quotient_consistency(gspace: SampledGSpace, quotient: Quotient,
                         lifted: LiftedMetric, tol: float = 1e-9) -> Report:
    """Push rho back down: d'(P, Q) = min rho over lifts. d' must be a metric
    whenever rho is invariant; its deviation from d is reported as an
    advisory residual (equality is not claimed in general)."""
    _check_scalar(tol, "tolerance")
    rep = Report()
    k = quotient.n_orbits
    if not np.isfinite(lifted.rho).all():
        rep.add("pushforward_is_metric", ADVISORY, [("lift not finite everywhere",)])
        rep.add("pushforward_matches_quotient", ADVISORY, [("lift not finite everywhere",)])
        return rep

    dp = orbit_minima(quotient, lifted.rho)

    v, resid = _metric_axiom_violations(dp, tol)
    rep.add("pushforward_is_metric", FAIL if v else PASS, v, resid)

    gap = np.abs(dp - quotient.d)
    resid = float(gap.max()) if k else 0.0
    wit = []
    if resid > tol:
        wit = [tuple(map(int, np.unravel_index(np.argmax(gap), gap.shape)))]
    rep.add("pushforward_matches_quotient", ADVISORY, wit, resid)

    return rep

"""Verification of lifted metrics: axioms, invariance, ball inclusions,
and quotient consistency.

Every pass/fail check is a finite exhaustive computation. Epsilon/delta
statements quantified over (0, inf) are decided on the grid of realized
values of rho, d, d_G, d_O plus midpoints: over a finite point set, ball
contents (and hence inclusion truth) only change at realized values.

Ball inclusions run on tables rather than on rebuilt sets: every motion
set of a centre at one group-ball size is a sublevel set of one row of a
table of quotient ranks, so both searches are decided for all centres at
once by a few array passes per group-ball size: the forward search at r_0
alone, since motion sets only grow with the radius, the reverse search over
the coarse grid columns where a group or quotient ball changes, against
the nearest point outside each sublevel set (``verify_ball_inclusions``
states the lemmas).

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


def _below(table: np.ndarray, bound: int, queries) -> np.ndarray:
    """#{p : table[r, p] < queries[r, c]} for every row r and column c, when
    each row of ``table`` is nondecreasing and its entries and the queries
    lie in 0 .. bound: one ``np.searchsorted`` over the rows laid end to
    end, row r shifted up by r * (bound + 1)."""
    rows, width = table.shape
    shift = np.arange(rows)[:, None] * (bound + 1)
    return np.searchsorted((table + shift).ravel(), queries + shift) - np.arange(rows)[:, None] * width


def verify_ball_inclusions(gspace: SampledGSpace, quotient: Quotient,
                           family: SliceFamily, d_G: GroupMetric,
                           d_O: OrbitalMetric, lifted: LiftedMetric) -> Report:
    """Existence searches for the two ball-inclusion statements behind
    topology compatibility: small joint motion stays in a small rho-ball,
    and every small rho-ball is reached by small joint motion.

    Decides exactly what the scalar predicates ``motion_inside_rho_ball``
    and ``rho_ball_inside_motion`` of ``tests/oracles.py`` decide over the
    grid r_0 <= r_1 <= ..., for all centres at once. For a centre x let g_j
    and q_j be the prefix lengths at r_j of the identity's d_G row and of
    the quotient row of x's orbit, each sorted: B(r_j) is the first g_j
    elements by d_G(e, .), and S_x(r_j) the points of S_x whose orbits rank
    below q_j in that quotient row.

    Sublevel lemma. For one group-ball size g let t[x, z] be the least rank
    of the orbit of any y in S_x with h.y = z, for h among the first g
    elements (k, the orbit count, where there is none). Then
    B(r_j) . S_x(r_k) = {z : t[x, z] < q_k}: every motion set of x at size
    g is a sublevel set of one row of t. So the rho-ball of radius r holds
    the motion set iff r exceeds rho(x, z) at each z with t[x, z] < q_k,
    and lies in it iff r is at most nearest(q_k), the least rho(x, y) over
    y with t[x, y] >= q_k: a suffix minimum over t's values, one
    ``np.minimum.at`` into k + 1 buckets a row. A NaN distance lies in no
    ball, so it counts as inf.

    Search 1 wants, for each eps index i, the first delta index j with
    B(r_j) . S_x(r_j) inside the rho-ball of r_i. That set only grows with
    j (both balls do), so the answer is j = 0 or none: r_i fails iff it is
    at most the farthest rho from x to the motion set at r_0, a prefix of
    the grid.

    Search 2 wants, for each delta index j, the first i with the rho-ball
    of r_i inside B(r_j) . S_x(r_i). Column lemma: g_j and every quotient
    prefix length change only at the coarse columns, r_0 and each grid
    position just past a realized value of d_G(e, .) or of d. Between
    coarse columns q_i is fixed and r_i grows, so the answer for each
    group-ball size is the first coarse column c with
    r_c <= nearest(q_c), shared by every j of that size, and it starts a
    run of equal q_i, as the scalar scan reports.

    Centres go in blocks of ``_row_blocks``, and each block's table t grows
    by group-ball size, one ``np.minimum.at`` over the new elements' images
    of its slice pairs. A quotient prefix that misses the centre's orbit
    raises EmptyResult (the centre's orbit has a positive quotient diagonal
    entry, not below the radius). The scalar scan first meets that at r_0,
    in x order, so the first centre whose orbit misses q_0 raises before
    anything else runs. Failures are listed in full, in (x, radius) order;
    only the first three witnesses are kept, which is all the report shows.
    """
    rep = Report()
    n, k = gspace.n_points, quotient.n_orbits
    radii = _inclusion_grid(quotient, d_G, d_O, lifted)
    size = radii.size
    radius = radii.tolist()
    d = np.asarray(quotient.d)
    orbit_of = quotient.orbit_of

    identity_row = d_G.table[d_G.group.identity]
    group_order = np.argsort(identity_row, kind="stable")
    group_len = np.searchsorted(identity_row[group_order], radii)
    # row h: the images under the h-th element by d_G(e, .), slot n where undefined
    action = gspace.action[group_order, :n]
    moved = np.where(action < 0, n, action)

    change = np.zeros(size, dtype=bool)
    change[0] = True
    just_past = np.searchsorted(radii, np.concatenate([d.ravel(), identity_row]), side="right")
    change[just_past[just_past < size]] = True
    cols = np.flatnonzero(change)
    # segments of coarse columns of one group-ball size, and their grid ranges
    seg = np.flatnonzero(np.diff(group_len[cols])) + 1
    seg_cols = [0] + seg.tolist() + [cols.size]
    seg_grid = cols[seg_cols[:-1]].tolist() + [size]
    seg_len = group_len[cols[seg_cols[:-1]]].tolist()

    # per orbit: the rank of each orbit in its quotient row, and the ball
    # prefix lengths at the coarse columns
    order = np.argsort(d, axis=1, kind="stable")
    rank = np.empty_like(order)
    rank[np.arange(k)[:, None], order] = np.arange(k)
    q_len = _below(np.searchsorted(radii, np.take_along_axis(d, order, axis=1), side="right"), size, cols + 1)
    missed = rank[orbit_of, orbit_of] >= q_len[orbit_of, 0]
    if missed.any():
        raise ValidationError("EmptyResult", "center orbit not in the quotient set", int(np.argmax(missed)))

    xs, ys = family.pairs
    t_type = np.min_scalar_type(k)
    pair_rank = rank[orbit_of[xs], orbit_of[ys]].astype(t_type)
    reach = radii[cols]
    fails1, fails2, wits2 = [], [], []
    cells = n + k + 1 + cols.size + (xs.size // max(n, 1) + 1) * len(group_order)
    for rows in _row_blocks(n, cells):
        m = min(rows.stop, n) - rows.start
        a, b = family.offsets[rows.start], family.offsets[rows.start + m]
        key = (xs[a:b] - rows.start) * (n + 1)
        r = pair_rank[a:b]
        rho = lifted.rho[rows]
        rho = np.where(np.isnan(rho), np.inf, rho)  # a NaN distance lies in no ball
        q = q_len[orbit_of[rows]]
        shift = np.arange(m)[:, None] * (k + 1)

        t = np.full((m, n + 1), k, dtype=t_type)
        found = np.empty((m, len(seg_len)), dtype=np.intp)
        done = 0
        for s, g in enumerate(seg_len):
            if g > done:
                z = key + moved[done:g][:, ys[a:b]]
                np.minimum.at(t.reshape(-1), z.ravel(), np.broadcast_to(r, z.shape).ravel())
                done = g
            ranks = t[:, :n]
            if s == 0:
                # search 1: r_i fails iff r_i <= the farthest point of the motion set at r_0
                far = np.where(ranks < q[:, :1], rho, -np.inf).max(axis=1)
                lost = np.searchsorted(radii, far, side="right")
            # nearest[x, v]: the least rho from x to a point of rank v or more
            nearest = np.full((m, k + 1), np.inf)
            np.minimum.at(nearest.reshape(-1), (ranks + shift).ravel(), rho.ravel())
            nearest = np.minimum.accumulate(nearest[:, ::-1], axis=1)[:, ::-1]
            hit = np.take_along_axis(nearest, q, axis=1) >= reach
            found[:, s] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)

        for x in np.flatnonzero(lost).tolist():
            fails1 += [(rows.start + x, v) for v in radius[:lost[x]]]

        # search 2: a size with no answer fails at every j of that size
        if len(wits2) == 3 and found.min() >= 0:
            continue
        for x, hits in enumerate(found.tolist()):
            for s, c in enumerate(hits):
                if c < 0:
                    fails2 += [(rows.start + x, v) for v in radius[seg_grid[s]:seg_grid[s + 1]]]
                elif len(wits2) < 3:
                    wits2 += [(rows.start + x, v, radius[cols[c]])
                              for v in radius[seg_grid[s]:seg_grid[s + 1]][:3 - len(wits2)]]

    # without a failure every (x, r_i) is met at r_0
    wits1 = [(x, v, radius[0]) for x in range(min(n, 3)) for v in radius[:3]][:3]
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

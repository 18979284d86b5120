"""Independent reference implementations used only to cross-check results.

Deliberately written with different algorithms than the library (Floyd-
Warshall and exhaustive simple-chain enumeration vs. per-source Dijkstra;
scalar loops and rebuilt frozensets vs. row-vectorised checks and the
ball-prefix index).
"""

import numpy as np

from equimetric import motion_inside_rho_ball, rho_ball_inside_motion
from equimetric.errors import ValidationError
from equimetric.report import ADVISORY, FAIL, PASS, Report
from equimetric.verify import _inclusion_grid


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    d = np.array(weights, dtype=np.float64, copy=True)
    n = d.shape[0]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = d[i, k] + d[k, j]
                if alt < d[i, j]:
                    d[i, j] = alt
    return d


def cheapest_simple_chain(weights: np.ndarray, start: int, goal: int) -> float:
    """Minimum total weight over all simple chains from start to goal,
    found by exhaustive depth-first enumeration with cost pruning."""
    n = weights.shape[0]
    best = [float("inf")]

    def walk(u, cost, visited):
        if cost >= best[0]:
            return
        if u == goal:
            best[0] = cost
            return
        for v in range(n):
            if v not in visited and np.isfinite(weights[u, v]):
                visited.add(v)
                walk(v, cost + float(weights[u, v]), visited)
                visited.remove(v)

    walk(start, 0.0, {start})
    return best[0]


# Scalar references for the row-vectorised checks in the library: the
# loops the library ran before vectorisation, so the differential tests can
# require equal codes, witnesses and residuals.


def check_metric_table(table: np.ndarray, tol: float, code: str = "NotAMetric"):
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValidationError(code, "metric table must be square")
    for i in range(n):
        if abs(table[i, i]) > tol:
            raise ValidationError(code, "nonzero diagonal", i)
        for j in range(n):
            if table[i, j] < -tol:
                raise ValidationError(code, "negative distance", (i, j))
            if abs(table[i, j] - table[j, i]) > tol:
                raise ValidationError(code, "asymmetric", (i, j))
            if i != j and table[i, j] <= tol:
                raise ValidationError(code, "zero distance between distinct points", (i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[i, j] > table[i, k] + table[k, j] + tol:
                    raise ValidationError(code, "triangle inequality fails", (i, j, k))


def check_left_invariance(group, table: np.ndarray):
    mul = group.mul
    for k in range(group.order):
        for g in range(group.order):
            for h in range(group.order):
                if table[mul[k][g], mul[k][h]] != table[g, h]:
                    raise ValidationError("NotLeftInvariant", "left invariance fails", (k, g, h))


def metric_axiom_violations(table: np.ndarray, tol: float):
    n = table.shape[0]
    v = []
    resid = 0.0
    with np.errstate(invalid="ignore"):
        for i in range(n):
            if abs(table[i, i]) > tol:
                v.append(("nonzero_diagonal", i))
                resid = max(resid, abs(float(table[i, i])))
        for i in range(n):
            for j in range(i + 1, n):
                if table[i, j] < -tol:
                    v.append(("negative", i, j))
                if abs(table[i, j] - table[j, i]) > tol:
                    v.append(("asymmetric", i, j))
                    resid = max(resid, abs(float(table[i, j] - table[j, i])))
                if -tol <= table[i, j] <= tol:
                    v.append(("zero_between_distinct", i, j))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    gap = table[i, j] - (table[i, k] + table[k, j])
                    if gap > tol:
                        v.append(("triangle", i, j, k))
                        resid = max(resid, float(gap))
    return v, resid


def lifted_pair_checks(gspace, quotient, rho, invariance_tol=1e-12, tol=1e-9, region=None):
    """The g_invariance (with its boundary band) and lower_bound_quotient
    checks of ``verify_lifted_metric``, as scalar pair loops."""
    rep = Report()
    n = gspace.n_points
    d = quotient.d
    p = quotient.orbit_of
    inside = set(range(n)) if region is None else set(region)
    v = []
    resid = 0.0
    boundary_resid = 0.0
    for g in range(gspace.group.order):
        m = gspace.act[g]
        for x in range(n):
            gx = m.get(x)
            if gx is None:
                continue
            for y in range(x + 1, n):
                gy = m.get(y)
                if gy is None:
                    continue
                a, b = rho[x, y], rho[gx, gy]
                if np.isinf(a) and np.isinf(b):
                    continue
                gap = abs(float(a) - float(b)) if np.isfinite(a) and np.isfinite(b) else float("inf")
                if {x, y, gx, gy} <= inside:
                    resid = max(resid, gap)
                    if gap > invariance_tol:
                        v.append((g, x, y))
                else:
                    boundary_resid = max(boundary_resid, gap)
    rep.add("g_invariance", FAIL if v else PASS, v, resid)
    if region is not None:
        rep.add("g_invariance_boundary_band", ADVISORY, [], boundary_resid)

    v = []
    resid = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            gap = float(d[p[i], p[j]]) - float(rho[i, j])
            if gap > resid:
                resid = gap
            if gap > tol:
                v.append((i, j))
    rep.add("lower_bound_quotient", FAIL if v else PASS, v, max(resid, 0.0))
    return rep


def verify_ball_inclusions(gspace, quotient, family, d_G, d_O, lifted) -> Report:
    """Grid searches over the frozenset-based inclusion predicates."""
    rep = Report()
    n = gspace.n_points
    grid = _inclusion_grid(quotient, d_G, d_O, lifted)

    fails, wits = [], []
    for x in range(n):
        for eps in grid:
            found = None
            for delta in grid:
                if motion_inside_rho_ball(gspace, quotient, family, d_G, lifted, x, delta, eps):
                    found = delta
                    break
            if found is None:
                fails.append((x, eps))
            else:
                wits.append((x, eps, found))
    rep.add("motion_inside_rho_ball", FAIL if fails else PASS, fails or wits[:3])

    fails, wits = [], []
    for x in range(n):
        for delta in grid:
            found = None
            for eps in grid:
                if rho_ball_inside_motion(gspace, quotient, family, d_G, lifted, x, delta, eps):
                    found = eps
                    break
            if found is None:
                fails.append((x, delta))
            else:
                wits.append((x, delta, found))
    rep.add("rho_ball_inside_motion", FAIL if fails else PASS, fails or wits[:3])
    return rep

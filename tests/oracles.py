"""Independent reference implementations used only to cross-check results.

Deliberately written with different algorithms than the library (Floyd-
Warshall and exhaustive simple-chain enumeration vs. all-sources Dijkstra;
scalar loops and rebuilt frozensets vs. row-vectorised checks and the
ball inclusions' tables of quotient ranks; a slice builder that computes each slice on its own and
also scans for openness vs. one that shares its scans with the verifier and
reads slices off join keys; component scans of the edge set per radius or
per (x, y) vs. border edges and component labels over the edge array; per-pair coset
distances and grid rescans vs. cached coset tables and one reduction per
point; scalar group, action and isometry loops vs. one table comparison per
element over the action array; scalar subgroup, normality and closure
scans over sets vs. gathers from the group's product and inverse arrays;
per-element point maps and a union-find over them vs. the action array and
the labelling rounds over it, with the orbits as tuples and the quotient
adjacency as a set of pairs vs. index arrays and a bool table; a depth-first
component search (``graph_components``) and Python sets for quotient balls
and their preimages (``ball``, ``preimage``) vs. the library's union-find
sweeps, key rows and hooking-and-jumping labels (``gspace.components``); a grid
from a Python set searched per grid pair with rebuilt frozensets vs. a
sorted-array grid searched per centre by a running minimum and in rounds;
per-pair loops for the cover isometry, nearest neighbours and pushforward
vs. array reductions and block minima; the minimum over lifts per pair of
orbits vs. one block minimum over orbit-sorted rows and columns; the
general-mode lift edges from n^2 pair loops over the slice sets vs. one
mask over the slice pairs; the witness path's loop over v vs. one array
test per step; charts as per-orbit records vs. the orbit
representatives, and a stabilizer per point vs. stabilizer classes; the
kept symmetries of a space by loops over entries and edge sets vs. one
gather per permutation).
The ball-inclusion predicates, the slice cut and the grid fallback are
scalar copies too, so the reference searches run no library predicate.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from equimetric.errors import ValidationError
from equimetric.gspace import FiniteGroup
from equimetric.orbital import OrbitalMetric
from equimetric.report import ADVISORY, FAIL, PASS, Report
from equimetric.slices import SliceFamily
from equimetric.spath import apsp


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


def dijkstra(weights: np.ndarray, source: int) -> np.ndarray:
    """Scalar single-source Dijkstra over a dense weight matrix, the bitwise
    reference for `equimetric.spath.apsp`: the next vertex is the unvisited
    one of least tentative distance, ties broken by smallest index, and
    relaxation sums are ``dist[u] + w[u, v]`` in ascending v order."""
    n = weights.shape[0]
    dist = [math.inf] * n
    done = [False] * n
    dist[source] = 0.0
    for _ in range(n):
        u = -1
        best = math.inf
        for v in range(n):
            if not done[v] and dist[v] < best:
                best = dist[v]
                u = v
        if u < 0:
            break
        done[u] = True
        row = weights[u]
        du = dist[u]
        for v in range(n):
            wv = row[v]
            if wv != math.inf and not done[v]:
                cand = du + wv
                if cand < dist[v]:
                    dist[v] = cand
    return np.array(dist, dtype=np.float64)


def spath_py(weights: np.ndarray) -> np.ndarray:
    """All-pairs table whose row s is ``dijkstra(weights, s)``."""
    n = weights.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        out[s] = dijkstra(weights, s)
    return out


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


def circle_metric(n: int) -> list:
    """The arc-length metric of n equally spaced circle points, one Python
    float product per entry, as `scenarios._circle_space` built it before
    it became one numpy expression."""
    step = 2.0 * math.pi / n
    return [[min(abs(i - j), n - abs(i - j)) * step for j in range(n)] for i in range(n)]


def disk_metric(g: int) -> list:
    """The Euclidean metric of the odd g x g grid, one `math.hypot` call per
    pair, as `scenarios.disk` built it before it read a table of offsets."""
    c = g // 2
    coords = [(r - c, col - c) for r in range(g) for col in range(g)]
    return [[math.hypot(a[0] - b[0], a[1] - b[1]) for b in coords] for a in coords]


def line_space(m: int, h: float) -> tuple:
    """(metric, labels) of 2m + 1 line points at spacing h, one Python
    float operation per position and per distance, as `scenarios.reflection`
    and `scenarios.shift` built them before they became numpy expressions."""
    pos = [(i - m) * h for i in range(2 * m + 1)]
    return [[abs(a - b) for b in pos] for a in pos], [f"{p:g}" for p in pos]


# Scalar references for the row-vectorised checks in the library: the
# loops the library ran before vectorisation, so the differential tests can
# require equal codes, witnesses and residuals.


def check_left_invariance(group, table: np.ndarray):
    mul = group.mul.tolist()
    for k in range(group.order):
        for g in range(group.order):
            for h in range(group.order):
                if table[mul[k][g], mul[k][h]] != table[g, h]:
                    raise ValidationError("NotLeftInvariant", "left invariance fails", (k, g, h))


# The group, action and isometric-quotient validation as scalar loops over
# the multiplication table and the per-element point maps, as they ran
# before the action array and the group arrays.


def is_subgroup(group, elems) -> bool:
    mul, inv = group.mul.tolist(), group.inv.tolist()
    s = set(elems)
    if group.identity not in s:
        return False
    for a in s:
        if inv[a] not in s:
            return False
        for b in s:
            if mul[a][b] not in s:
                return False
    return True


def is_normal(group, elems) -> bool:
    mul, inv = group.mul.tolist(), group.inv.tolist()
    s = set(elems)
    for g in range(group.order):
        for k in s:
            if mul[mul[g][k]][inv[g]] not in s:
                return False
    return True


def closure(group, seed) -> set:
    """The subgroup generated by seed, grown by a stack of new elements."""
    mul, inv = group.mul.tolist(), group.inv.tolist()
    out = set(seed) | {group.identity}
    stack = list(out)
    while stack:
        a = stack.pop()
        for b in list(out):
            for c in (mul[a][b], mul[b][a], inv[a]):
                if c not in out:
                    out.add(c)
                    stack.append(c)
    return out


def _integer_value(v) -> bool:
    try:
        return int(v) == v
    except (ValueError, OverflowError, TypeError):  # NaN, infinities, None, non-numbers
        return False


def build_group(mul_table, generators=None) -> FiniteGroup:
    n = len(mul_table)
    if n == 0 or any(len(row) != n for row in mul_table):
        raise ValidationError("InvalidParams", "multiplication table must be square and nonempty")
    for g in range(n):
        for h in range(n):
            if not isinstance(mul_table[g][h], (Real, np.bool_)):
                raise ValidationError("InvalidParams", "table entry not a real number", (g, h))
    for g in range(n):
        for h in range(n):
            v = mul_table[g][h]
            if not _integer_value(v):
                raise ValidationError("InvalidParams", "table entry not an integer", (g, h))
            if not 0 <= int(v) < n:
                raise ValidationError("InvalidParams", "table entry out of range", (g, h))
    mul = tuple(tuple(int(v) for v in row) for row in mul_table)

    identity = None
    for e in range(n):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValidationError("NoIdentity", "no two-sided identity element")

    inv = [None] * n
    for g in range(n):
        for h in range(n):
            if mul[g][h] == identity and mul[h][g] == identity:
                inv[g] = h
                break
        if inv[g] is None:
            raise ValidationError("NoInverse", "element has no two-sided inverse", g)

    for g in range(n):
        for h in range(n):
            for x in range(n):
                if mul[mul[g][h]][x] != mul[g][mul[h][x]]:
                    raise ValidationError("NonAssociative", "associativity fails", (g, h, x))

    gens = None
    if generators is not None:
        for i, g in enumerate(generators):
            if not _integer_value(g):
                raise ValidationError("InvalidParams", "generator index not an integer", (i,))
            if not 0 <= g < n:
                raise ValidationError("InvalidParams", "generator index out of range", (i,))
        gens = tuple(int(g) for g in generators)
        reached = {identity}
        frontier = [identity]
        while frontier:
            a = frontier.pop()
            for g in gens:
                for b in (mul[a][g], mul[a][inv[g]]):
                    if b not in reached:
                        reached.add(b)
                        frontier.append(b)
        if len(reached) != n:
            raise ValidationError(
                "GeneratorsDontGenerate",
                "generators do not reach the whole group",
                sorted(set(range(n)) - reached)[0],
            )

    return FiniteGroup(order=n, mul=np.array(mul, dtype=np.intp), identity=identity,
                       inv=np.array(inv, dtype=np.intp), generators=gens)


def group_from_permutations(perms) -> tuple:
    """Closure and composition on permutation tuples, one point at a time;
    the generators are the permutations, then their inverses, each once."""
    npts = len(perms[0])
    ident = tuple(range(npts))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = tuple(g[a[i]] for i in range(npts))
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    order = sorted(elems)
    index = {p: i for i, p in enumerate(order)}
    mul = [[index[tuple(p[q[i]] for i in range(npts))] for q in order] for p in order]
    inverses = [tuple(sorted(range(npts), key=p.__getitem__)) for p in gens]  # the inverse of each
    return build_group(mul, generators=list(dict.fromkeys(index[p] for p in gens + inverses))), order


def action_array(act_maps, n) -> np.ndarray:
    """The |G| x (n + 1) table of g.x, -1 where the partial map is undefined
    and in the last column."""
    act = np.full((len(act_maps), n + 1), -1)
    for g, m in enumerate(act_maps):
        for x, gx in m.items():
            act[g, x] = gx
    return act


class ActionMaps:
    """The action as per-element maps point -> g.x, with the readers that
    ``SampledGSpace`` had before the action array replaced them."""

    def __init__(self, gspace):
        self.space, self.group, self.n_points = gspace.space, gspace.group, gspace.n_points
        self.act = tuple({x: gx for x, gx in enumerate(row) if gx >= 0}
                         for row in gspace.action[:, : gspace.n_points].tolist())

    def is_total(self, g: int) -> bool:
        return len(self.act[g]) == self.n_points

    def total_elements(self) -> list:
        return [g for g in range(self.group.order) if self.is_total(g)]

    def apply(self, g: int, x: int):
        return self.act[g].get(x)

    def translate_set(self, g: int, pts) -> frozenset:
        m = self.act[g]
        return frozenset(m[x] for x in pts if x in m)

    def stabilizer(self, x: int) -> tuple:
        return tuple(g for g in range(self.group.order) if self.act[g].get(x) == x)


def edge_set(space) -> frozenset:
    """The sampling graph's edges as a set of (u, v) pairs of Python ints,
    u < v."""
    return frozenset(map(tuple, space.edges.tolist()))


def kept_symmetries(metric: np.ndarray, edges, perms) -> list:
    """The declared rows, as lists, that ``SampledSpace.symmetries`` keeps:
    those that are permutations of range(n), keep each metric entry bit for
    bit and map the set of edges onto itself."""
    n = len(metric)
    edge = {frozenset(e) for e in edges}
    kept = []
    for p in perms:
        p = [int(v) for v in p]
        if sorted(p) != list(range(n)):
            continue
        if any(metric[p[i], p[j]].tobytes() != metric[i, j].tobytes() for i in range(n) for j in range(n)):
            continue
        if {frozenset((p[u], p[v])) for u, v in edge} == edge:
            kept.append(p)
    return kept


def graph_components(n_points: int, edges, subset=None) -> list:
    """Connected components (sorted lists) of the induced subgraph on subset,
    by a depth-first search from each unseen point in ascending order."""
    if subset is None:
        subset = range(n_points)
    alive = set(subset)
    adj = {u: [] for u in alive}
    for a, b in edges:
        if a in alive and b in alive:
            adj[a].append(b)
            adj[b].append(a)
    seen = set()
    comps = []
    for start in sorted(alive):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def members(quotient, orbit) -> tuple:
    """The points of an orbit of a library ``Quotient``, as Python ints."""
    return tuple(quotient.members(orbit).tolist())


def adjacent_pairs(quotient) -> frozenset:
    """The pairs (a, b), a < b, of orbits the quotient adjacency joins."""
    return frozenset(map(tuple, np.argwhere(np.triu(quotient.adjacency)).tolist()))


def ball(quotient, orbit: int, radius: float) -> frozenset:
    """Open metric ball in the orbit space."""
    return frozenset(q for q in range(quotient.n_orbits) if quotient.d[orbit, q] < radius)


def preimage(quotient, orbits) -> frozenset:
    wanted = set(orbits)
    return frozenset(x for x, q in enumerate(quotient.orbit_of.tolist()) if q in wanted)


@dataclass(frozen=True)
class Orbits:
    """The orbit partition as the quotient held it before its index arrays."""

    n_orbits: int
    orbit_of: tuple  # point -> orbit index
    representative: tuple  # orbit -> least point
    orbit_members: tuple  # orbit -> sorted tuple of points
    quotient_adjacency: frozenset  # (a, b), a < b, for orbits an edge joins


def compute_orbits(gspace) -> Orbits:
    """Orbits by union-find over the pairs (x, g.x) of the maps, numbered by
    least member, and the quotient adjacency."""
    maps = ActionMaps(gspace)
    n = maps.n_points
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra

    for g in range(maps.group.order):
        for x, gx in maps.act[g].items():
            union(x, gx)

    roots = sorted({find(x) for x in range(n)})
    orbit_index = {r: i for i, r in enumerate(roots)}
    orbit_of = tuple(orbit_index[find(x)] for x in range(n))
    members = [[] for _ in roots]
    for x in range(n):
        members[orbit_of[x]].append(x)
    members = tuple(tuple(m) for m in members)

    qadj = set()
    for a, b in edge_set(maps.space):
        pa, pb = orbit_of[a], orbit_of[b]
        if pa != pb:
            qadj.add((min(pa, pb), max(pa, pb)))

    return Orbits(
        n_orbits=len(roots),
        orbit_of=orbit_of,
        representative=tuple(m[0] for m in members),
        orbit_members=members,
        quotient_adjacency=frozenset(qadj),
    )


def bind_action(space, group, act_maps) -> tuple:
    """The checks of ``equimetric.bind_action`` over (g, h, x) and per g
    over x and the sorted edges; returns (maps, stabilizers)."""
    n = space.n_points
    if len(act_maps) != group.order:
        raise ValidationError("InvalidParams", "one map required per group element")
    act = []
    for g, m in enumerate(act_maps):
        m = dict(m)
        for k, v in m.items():
            if not _integer_value(k):
                raise ValidationError("InvalidParams", "action point not an integer", (g, k))
            if not _integer_value(v):
                raise ValidationError("InvalidParams", "action image not an integer", (g, k))
            if not (0 <= int(k) < n and 0 <= int(v) < n):
                raise ValidationError("InvalidParams", "action image out of range", (g, int(k)))
        m = {int(k): int(v) for k, v in m.items()}
        if len(set(m.values())) != len(m):
            raise ValidationError("InvalidParams", "action map not injective", g)
        act.append(m)

    e = group.identity
    if len(act[e]) != n or any(act[e][x] != x for x in range(n)):
        raise ValidationError("IdentityNotIdentity", "identity element must act as the total identity map")

    mul, inv = group.mul.tolist(), group.inv.tolist()
    edges = edge_set(space)
    for g in range(group.order):
        for h in range(group.order):
            gh = mul[g][h]
            for x in range(n):
                hx = act[h].get(x)
                lhs = act[gh].get(x)
                rhs = act[g].get(hx) if hx is not None else None
                if lhs is not None and rhs is not None and lhs != rhs:
                    raise ValidationError("NotHomomorphism", "composition mismatch", (g, h, x))

    for g in range(group.order):
        if len(act[g]) == n:
            gi = inv[g]
            if len(act[gi]) != n:
                raise ValidationError("NotHomomorphism", "total element with partial inverse", g)
            for x in range(n):
                if act[gi][act[g][x]] != x:
                    raise ValidationError("NotHomomorphism", "inverse element does not invert", (g, x))
        for a, b in sorted(edges):
            ga, gb = act[g].get(a), act[g].get(b)
            if ga is not None and gb is not None:
                if ga == gb or (min(ga, gb), max(ga, gb)) not in edges:
                    raise ValidationError("NotGraphAutomorphism", "edge not preserved", (g, (a, b)))

    stabs = []
    for x in range(n):
        s = tuple(g for g in range(group.order) if act[g].get(x) == x)
        if not is_subgroup(group, s):
            raise ValidationError("NotHomomorphism", "stabilizer is not a subgroup", x)
        stabs.append(s)
    return tuple(act), tuple(stabs)


def min_over_lifts(table, members_p, members_q) -> float:
    best = float("inf")
    for a in members_p:
        for b in members_q:
            v = table[a, b]
            if v < best:
                best = float(v)
    return best


def isometric_quotient_table(gspace, orbits, tol: float = 1e-9) -> np.ndarray:
    """The isometry scan over (g, a, b) and the table of min base distances
    over lift pairs that ``quotient_metric(mode="isometric")`` adopts."""
    rho0 = gspace.space.base_metric
    npts = gspace.n_points
    maps = ActionMaps(gspace)
    for g in maps.total_elements():
        m = maps.act[g]
        for a in range(npts):
            for b in range(npts):
                if abs(rho0[m[a], m[b]] - rho0[a, b]) > tol:
                    raise ValidationError(
                        "NotIsometricAction", "total element is not a base-metric isometry", (g, a, b)
                    )
    n = orbits.n_orbits
    d = np.zeros((n, n), dtype=np.float64)
    for p in range(n):
        for q in range(p + 1, n):
            d[p, q] = d[q, p] = min_over_lifts(rho0, members(orbits, p), members(orbits, q))
    raise_first_axiom_violation(d, tol)
    return d


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


AXIOM_MESSAGES = {
    "nonzero_diagonal": "nonzero diagonal",
    "negative": "negative distance",
    "asymmetric": "asymmetric",
    "zero_between_distinct": "zero distance between distinct points",
    "triangle": "triangle inequality fails",
}


def raise_first_axiom_violation(table: np.ndarray, tol: float):
    """What validating a finite square table raises: NotAMetric on the
    first violation ``metric_axiom_violations`` collects."""
    v, _ = metric_axiom_violations(table, tol)
    if v:
        kind, *witness = v[0]
        raise ValidationError("NotAMetric", AXIOM_MESSAGES[kind],
                              witness[0] if len(witness) == 1 else tuple(witness))


def verify_lifted_metric(gspace, quotient, lifted, tol=1e-9, invariance_tol=1e-12, region=None):
    """Every line of ``verify_lifted_metric``, from scalar pair loops: the
    axiom scan, invariance with its boundary band, the quotient lower bound,
    the cover isometry per distinct pair that shares a small set, in sorted
    order, and a nearest-neighbour candidate list per point."""
    rep = Report()
    rho = lifted.rho
    n = gspace.n_points
    d = quotient.d
    p = quotient.orbit_of.tolist()
    edges = edge_set(gspace.space)
    if not any(np.isfinite(rho[i, j]) for i in range(n) for j in range(i + 1, n)):
        for name in ("metric_axioms", "g_invariance", "lower_bound_quotient",
                     "cover_local_isometry", "nearest_neighbor_compatibility"):
            rep.add(name, ADVISORY, [("no finite off-diagonal distance",)])
        rep.add("lift_connected", FAIL, [tuple(c[0] for c in lifted.components)])
        return rep

    v, resid = metric_axiom_violations(rho, tol)
    rep.add("metric_axioms", FAIL if v else PASS, v, resid)

    inside = set(range(n)) if region is None else set(region)
    v = []
    resid = 0.0
    boundary_resid = 0.0
    maps = ActionMaps(gspace)
    for g in range(gspace.group.order):
        m = maps.act[g]
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

    if lifted.mode == "cover":
        v = []
        resid = 0.0
        pairs = {(u, w) for s in lifted.graph.small_sets for u in s for w in s if u < w}
        for u, w in sorted(pairs):
            gap = abs(float(rho[u, w]) - float(d[p[u], p[w]]))
            resid = max(resid, gap)
            if gap > tol:
                v.append((u, w))
        rep.add("cover_local_isometry", FAIL if v else PASS, v, resid)

    v = []
    for x in range(n):
        cands = [(float(rho[x, y]), y) for y in range(n) if y != x and np.isfinite(rho[x, y])]
        if not cands:
            continue
        best = min(c[0] for c in cands)
        nearest = [y for val, y in cands if val <= best + tol]
        ok = any(
            (min(x, y), max(x, y)) in edges or p[x] == p[y]
            for y in nearest
        )
        if not ok:
            v.append((x, nearest[0]))
    rep.add("nearest_neighbor_compatibility", ADVISORY, v)

    if not lifted.connected:
        rep.add("lift_connected", FAIL, [tuple(c[0] for c in lifted.components)])
    return rep


def quotient_consistency(gspace, quotient, lifted, tol: float = 1e-9) -> Report:
    """The pushforward d'(a, b) as a Python min over every pair of lifts."""
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
                for x in members(quotient, a)
                for y in members(quotient, b)
            )
            dp[a, b] = dp[b, a] = best

    v, resid = metric_axiom_violations(dp, tol)
    rep.add("pushforward_is_metric", FAIL if v else PASS, v, resid)

    resid = 0.0
    wit = []
    for a in range(k):
        for b in range(k):
            gap = abs(float(dp[a, b]) - float(quotient.d[a, b]))
            if gap > resid:
                resid = gap
                wit = [(a, b)] if gap > tol else []
    rep.add("pushforward_matches_quotient", ADVISORY, wit, resid)
    return rep


def value_grid(values) -> list:
    """Sorted distinct positive values with midpoints, from a Python set."""
    vals = sorted({float(v) for v in values if v > 0})
    out = []
    for i, v in enumerate(vals):
        out.append(v)
        if i + 1 < len(vals):
            out.append((v + vals[i + 1]) / 2.0)
    return out


def candidate_radii(quotient, orbit) -> list:
    """Descending open-ball radii for one orbit: value_grid of the distances
    from its image to the other orbits, reversed, topped by a value covering
    the whole quotient."""
    grid = value_grid([float(quotient.d[orbit, q]) for q in range(quotient.n_orbits) if q != orbit])
    top = (grid[-1] if grid else 0.0) + 1.0
    return [top] + grid[::-1]


def inclusion_grid(quotient, d_G, d_O, lifted) -> list:
    """The ball-inclusion radii from Python lists of every table entry."""
    vals = list(np.asarray(quotient.d).ravel()) + list(d_G.table.ravel())
    if d_O is not None:
        vals += [v for v in d_O.values.ravel() if not np.isnan(v)]
    vals += [v for v in lifted.rho.ravel() if np.isfinite(v)]
    grid = value_grid(vals)
    top = (grid[-1] if grid else 0.0) + 1.0
    return grid + [top]


def grid_or(values, fallback) -> list:
    grid = value_grid(values)
    return grid if grid else [fallback]


def group_ball(d_G, radius) -> list:
    """The g with d_G(e, g) < radius, ascending."""
    e = d_G.group.identity
    return [g for g in range(d_G.group.order) if d_G.table[e, g] < radius]


def subslice(family, x, quotient, eps) -> frozenset:
    """The y in S_x with d(p x, p y) < eps; EmptyResult when d(p x, p x)
    is not below eps (a positive quotient diagonal)."""
    orbit_of = quotient.orbit_of.tolist()
    o = orbit_of[x]
    if not quotient.d[o, o] < eps:
        raise ValidationError("EmptyResult", "center orbit not in the quotient set", x)
    return frozenset(y for y in family.slice_of[x] if quotient.d[o, orbit_of[y]] < eps)


def motion_set(gspace, quotient, family, d_G, x, delta, slice_radius) -> frozenset:
    """B(delta) . S_x(slice_radius) as a set of g.y."""
    base = subslice(family, x, quotient, slice_radius)
    out = set()
    for g in group_ball(d_G, delta):
        for y in base:
            gy = gspace.apply(g, y)
            if gy is not None:
                out.add(gy)
    return frozenset(out)


def rho_ball(lifted, x, eps) -> frozenset:
    return frozenset(y for y in range(lifted.rho.shape[0]) if lifted.rho[x, y] < eps)


def motion_inside_rho_ball(gspace, quotient, family, d_G, lifted, x, delta, eps) -> bool:
    return motion_set(gspace, quotient, family, d_G, x, delta, delta) <= rho_ball(lifted, x, eps)


def rho_ball_inside_motion(gspace, quotient, family, d_G, lifted, x, delta, eps) -> bool:
    return rho_ball(lifted, x, eps) <= motion_set(gspace, quotient, family, d_G, x, delta, eps)


def verify_ball_inclusions(gspace, quotient, family, d_G, d_O, lifted) -> Report:
    """Grid searches over the frozenset-based inclusion predicates."""
    rep = Report()
    n = gspace.n_points
    grid = inclusion_grid(quotient, d_G, d_O, lifted)

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


# The slice builder as it was before it shared its scans with the verifier:
# one preimage-component pass per point, private per-orbit loops, and a
# joint scan for condition (ii) and openness (*) after every shrink.


def _slice_at(gspace, quotient, x, radius):
    o = int(quotient.orbit_of[x])
    near = ball(quotient, o, radius)
    if o not in near:  # radius at or below d(p(x), p(x))
        raise ValidationError("EmptyResult", "center orbit not in the quotient set", x)
    comps = graph_components(gspace.n_points, edge_set(gspace.space), preimage(quotient, near))
    return next(frozenset(c) for c in comps if x in c)


def _per_orbit_violation(gspace, quotient, orbit, slices):
    mates = set(members(quotient, orbit))
    for x in members(quotient, orbit):
        s = slices[x]
        inter = sorted(s & mates)
        if inter != [x]:
            return ("slice_meets_orbit", (x, [p for p in inter if p != x][0]))
        for g in range(gspace.group.order):
            if gspace.translate_set(g, s) & s:
                if gspace.apply(g, x) != x:
                    return ("translate_overlap", (x, g))
    return None


def _quotient_diameter(quotient, pts):
    orbs = sorted({int(quotient.orbit_of[p]) for p in pts})
    best = 0.0
    for i, a in enumerate(orbs):
        for b in orbs[i + 1 :]:
            v = float(quotient.d[a, b])
            if v > best:
                best = v
    return best


def build_slice_family(gspace, quotient, shrink_factor: float = 1.0) -> SliceFamily:
    gspace = ActionMaps(gspace)
    n_orbits = quotient.n_orbits
    log = []
    global_pos = [float(v) for v in quotient.d.ravel() if v > 0]
    fallback_radius = (min(global_pos) / 2.0) if global_pos else 0.5
    cands = [[c / shrink_factor for c in candidate_radii(quotient, o)] for o in range(n_orbits)]

    def settle(orbit, start_idx):
        for i in range(start_idx, len(cands[orbit])):
            r = cands[orbit][i]
            slices = {x: _slice_at(gspace, quotient, x, r) for x in members(quotient, orbit)}
            viol = _per_orbit_violation(gspace, quotient, orbit, slices)
            if viol is None:
                return r, slices, i
            log.append({"orbit": orbit, "radius": r, "condition": viol[0], "witness": viol[1]})
        slices = {x: frozenset([x]) for x in members(quotient, orbit)}
        log.append({"orbit": orbit, "radius": fallback_radius, "condition": "singleton_fallback", "witness": None})
        return fallback_radius, slices, len(cands[orbit])

    radii = [None] * n_orbits
    idx = [0] * n_orbits
    slice_of = {}
    for o in range(n_orbits):
        r, slices, i = settle(o, 0)
        radii[o], idx[o] = r, i
        slice_of.update(slices)

    def joint_violation():
        for x in range(gspace.n_points):
            sx = slice_of[x]
            for y in sorted(sx):
                sy = slice_of[y]
                for g in range(gspace.group.order):
                    gx = gspace.apply(g, x)
                    if gx is None:
                        continue
                    if (sy & slice_of[gx]) and gx != x:
                        return ("family_condition_ii", (x, y, g), x, y)
                ox = int(quotient.orbit_of[x])
                cut = sorted(sy & preimage(quotient, ball(quotient, ox, radii[ox])))
                inter = sx & sy
                for comp in graph_components(gspace.n_points, edge_set(gspace.space), cut):
                    hit = inter & set(comp)
                    if hit and hit != frozenset(comp):
                        return ("openness", (x, y, tuple(comp)), x, y)
        return None

    while True:
        viol = joint_violation()
        if viol is None:
            break
        cond, witness, x, y = viol
        ox, oy = int(quotient.orbit_of[x]), int(quotient.orbit_of[y])
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
        log.append({"orbit": target, "radius": radii[target], "condition": cond, "witness": witness})
        if idx[target] >= len(cands[target]):
            target = oy if target == ox else ox
            log.append({"orbit": target, "radius": radii[target], "condition": cond, "witness": witness})
        r, slices, i = settle(target, idx[target] + 1)
        radii[target], idx[target] = r, i
        slice_of.update(slices)

    slices_tuple = tuple(slice_of[x] for x in range(gspace.n_points))
    degenerate = all(len(s) == 1 for s in slices_tuple)
    if degenerate:
        log.append({"orbit": None, "radius": None, "condition": "DegenerateFamily", "witness": None})
    return SliceFamily.from_sets(
        slices_tuple,
        radii,
        tuple(tuple(sorted(rec.items())) for rec in log),
        degenerate,
    )


# The slice verifier and the cover small sets as they were before the join
# keys: every scan over every g, one graph_components pass over the edge set
# per (x, y) for openness and per slice for connectedness, and preimages and
# components rebuilt, with one convexity apsp per component, for every
# candidate radius.


def _translate_overlaps(gspace, x, s):
    for g in range(gspace.group.order):
        if gspace.apply(g, x) != x and gspace.translate_set(g, s) & s:
            yield g


def _orbit_meet(quotient, x, s):
    mates = members(quotient, quotient.orbit_of[x])
    return next((p for p in mates if p != x and p in s), None)


def _condition_ii_violations(gspace, slice_of):
    for x in range(gspace.n_points):
        for y in sorted(slice_of[x]):
            sy = slice_of[y]
            for g in range(gspace.group.order):
                gx = gspace.apply(g, x)
                if gx is not None and gx != x and sy & slice_of[gx]:
                    yield (x, y, g)


def verify_slice_family(gspace, quotient, family) -> Report:
    gspace = ActionMaps(gspace)
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
    rep.add("family_condition_ii", FAIL if v else PASS, v)

    v = []
    for x in range(n):
        ox = int(quotient.orbit_of[x])
        pre = preimage(quotient, ball(quotient, ox, family.radius_of_orbit[ox]))
        for y in sorted(slice_of[x]):
            cut = sorted(slice_of[y] & pre)
            inter = slice_of[x] & slice_of[y]
            for comp in graph_components(n, edge_set(gspace.space), cut):
                hit = inter & set(comp)
                if hit and hit != frozenset(comp):
                    v.append((x, y, comp[0]))
    rep.add("openness_condition_star", FAIL if v else PASS, v)

    v = []
    for x in range(n):
        if len(graph_components(n, edge_set(gspace.space), slice_of[x])) != 1:
            v.append((x,))
    rep.add("slice_connected", FAIL if v else PASS, v)

    if all(len(s) == 1 for s in slice_of):
        rep.add("degenerate_family", ADVISORY, [("all slices are singletons",)])

    pairs = bad = 0
    for x in range(n):
        for y in slice_of[x]:
            pairs += 1
            if not slice_of[y] <= slice_of[x]:
                bad += 1
    rep.add("strong_nesting_statistic", ADVISORY, [], (bad / pairs) if pairs else 0.0)

    return rep


def general_edges(gspace, quotient, family, d_O) -> tuple:
    """The general-mode allowability edges from pair loops: a slice edge for
    each u < v with u in S_v or v in S_u, weighing d(p u, p v) + d_O(u, v),
    and an orbit edge for each point u and element g with g.u > u, one per
    g; pairs nan in d_O are skipped."""
    n = gspace.n_points
    d, p = quotient.d, quotient.orbit_of.tolist()
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u in family.slice_of[v] or v in family.slice_of[u]:
                dov = d_O.values[u, v]
                if np.isnan(dov):
                    continue
                edges.append((u, v, float(d[p[u], p[v]]) + float(dov), "slice"))
    rows = gspace.action.tolist()
    for u in range(n):
        for row in rows:
            gu = row[u]
            if gu <= u:  # also where undefined (-1)
                continue
            dov = d_O.values[u, gu]
            if np.isnan(dov):
                continue
            edges.append((u, gu, float(dov), "orbit"))
    return tuple(sorted(edges))


def cover_edges(quotient, sets) -> tuple:
    """The cover-mode allowability edges from the pairs of each small set:
    one edge per pair u < v that shares a set, weighing d(p u, p v), in
    sorted order."""
    d, p = quotient.d, quotient.orbit_of.tolist()
    pairs = {(u, v) for s in sets for u in s for v in s if u < v}
    return tuple(sorted((u, v, float(d[p[u], p[v]]), "cover") for u, v in pairs))


def naive_edges(quotient) -> tuple:
    """The naive-mode allowability edges: one edge per pair u < v on two
    orbits, weighing d(p u, p v), in sorted order."""
    d, p = quotient.d, quotient.orbit_of.tolist()
    return tuple((u, v, float(d[p[u], p[v]]), "naive-elementary")
                 for u in range(len(p)) for v in range(u + 1, len(p)) if p[u] != p[v])


def weight_matrix(graph) -> np.ndarray:
    """The lift's weight table from a loop over the edges in order, which
    replaces a pair's weight only by a strictly smaller one."""
    w = np.full((graph.n_points, graph.n_points), np.inf)
    np.fill_diagonal(w, 0.0)
    for u, v, weight, _ in graph.edges:
        if weight < w[u, v]:
            w[u, v] = w[v, u] = weight
    return w


def witness_path(w: np.ndarray, rho: np.ndarray, x: int, y: int, tol: float) -> tuple:
    """The lift's witness path as the scalar loop over v it ran before its
    one array test per step: from the current vertex, the smallest v that
    stays on a shortest path to y."""
    path = [x]
    current = x
    guard = 0
    while current != y:
        guard += 1
        if guard > w.shape[0]:
            return None
        nxt = None
        for v in range(w.shape[0]):
            if v == current or not np.isfinite(w[current, v]):
                continue
            if rho[v, y] < rho[current, y] and \
                    abs(w[current, v] + rho[v, y] - rho[current, y]) <= tol:
                nxt = v
                break
        if nxt is None:
            return None
        path.append(nxt)
        current = nxt
    return tuple(path)


def _is_elementary(quotient, comp) -> bool:
    orbs = [int(quotient.orbit_of[p]) for p in comp]
    return len(orbs) == len(set(orbs))


def _image_is_convex(quotient, comp, tol: float) -> bool:
    orbs = sorted({int(quotient.orbit_of[p]) for p in comp})
    k = len(orbs)
    if k <= 2:
        return True
    pos = {q: i for i, q in enumerate(orbs)}
    w = np.full((k, k), np.inf)
    np.fill_diagonal(w, 0.0)
    for a, b in adjacent_pairs(quotient):
        if a in pos and b in pos:
            w[pos[a], pos[b]] = w[pos[b], pos[a]] = quotient.d[a, b]
    internal = apsp(w)
    for i, a in enumerate(orbs):
        for j, b in enumerate(orbs):
            if abs(internal[i, j] - quotient.d[a, b]) > tol:
                return False
    return True


def cover_small_sets(gspace, quotient, enlargement_factor: float = 1.0, tol: float = 1e-9) -> tuple:
    sets = set()
    for q in range(quotient.n_orbits):
        for r in candidate_radii(quotient, q):
            pre = preimage(quotient, ball(quotient, q, r))
            comps = graph_components(gspace.n_points, edge_set(gspace.space), pre)
            if not all(_is_elementary(quotient, c) for c in comps):
                continue
            if not all(_image_is_convex(quotient, c, tol) for c in comps):
                continue
            if enlargement_factor > 1.0:
                big = preimage(quotient, ball(quotient, q, r * enlargement_factor))
                big_comps = graph_components(gspace.n_points, edge_set(gspace.space), big)
                if not all(_is_elementary(quotient, c) for c in big_comps):
                    continue
            for c in comps:
                sets.add(frozenset(c))
            break
    maximal = [s for s in sets if not any(s < t for t in sets)]
    return tuple(sorted(maximal, key=sorted))


# The orbital stage as it was before the coset tables: one coset distance
# per call behind a scalar right-invariance check, the element sending a
# base point found by a linear scan, and property searches that rescan
# rebuilt balls for every grid value.


def right_invariant(d_G, subgroup) -> bool:
    mul, t = d_G.group.mul.tolist(), d_G.table
    for u in sorted(subgroup):
        for g in range(d_G.group.order):
            for h in range(d_G.group.order):
                if t[mul[g][u], mul[h][u]] != t[g, h]:
                    return False
    return True


def one_sided_coset_distance(d_G, subgroup, g1, g2) -> float:
    mul, t = d_G.group.mul, d_G.table
    return min(float(t[g1, mul[g2, u]]) for u in subgroup)


def two_sided_coset_distance(d_G, subgroup, g1, g2) -> float:
    mul, t = d_G.group.mul, d_G.table
    return min(float(t[mul[g1, u], mul[g2, v]]) for u in subgroup for v in subgroup)


def _coset_distance_fn(d_G):
    """Per-pair coset distance, one-sided when d_G is right K-invariant;
    the right-invariance verdict is kept per subgroup."""
    verdicts = {}

    def dist(subgroup, g1, g2):
        K = tuple(subgroup)
        if not is_subgroup(d_G.group, K):
            raise ValidationError("NotASubgroup", "coset distance requires a subgroup", K)
        if K not in verdicts:
            verdicts[K] = right_invariant(d_G, K)
        if verdicts[K]:
            return one_sided_coset_distance(d_G, K, g1, g2)
        return two_sided_coset_distance(d_G, K, g1, g2)

    return dist


def coset_distance(d_G, subgroup, g1, g2) -> float:
    return _coset_distance_fn(d_G)(subgroup, g1, g2)


def _element_sending(gspace, src, dst):
    for g in range(gspace.group.order):
        if gspace.apply(g, src) == dst:
            return g
    return None


def build_orbital_metric(gspace, quotient, family, d_G):
    group = gspace.group
    coset = _coset_distance_fn(d_G)
    for x in range(gspace.n_points):
        K = gspace.stabilizer(x)
        if not (right_invariant(d_G, K) or is_normal(group, K)):
            raise ValidationError(
                "IncompatibleGroupMetric",
                "group metric is neither right invariant for a stabilizer nor is the stabilizer normal",
                x,
            )

    # chart o: the slice at the representative of orbit o, with its base
    # point (least slice point) on each orbit it meets and its tent weights
    n_orbits = quotient.n_orbits
    bases, raws = [], []
    for o in range(n_orbits):
        pts = family.slice_of[int(quotient.representative[o])]
        radius = family.radius_of_orbit[o]
        base = {}
        for q in range(n_orbits):
            meet = sorted(pts & set(members(quotient, q)))
            if meet:
                base[q] = meet[0]
        raw = np.zeros(n_orbits)
        for q in range(n_orbits):
            w = radius - float(quotient.d[o, q])
            if w > 0 and q in base:
                raw[q] = w
        bases.append(base)
        raws.append(raw)

    chi = np.zeros((n_orbits, n_orbits))
    for q in range(n_orbits):
        total = sum(raw[q] for raw in raws)
        if total <= 0:
            raise ValidationError("UncoveredOrbit", "orbit meets no chart", q)
        for a, raw in enumerate(raws):
            chi[q, a] = raw[q] / total

    orbit_of = quotient.orbit_of.tolist()

    def chart_metric(a, x, y):
        q = orbit_of[x]
        if orbit_of[y] != q or q not in bases[a]:
            return None
        y0 = bases[a][q]
        g1 = _element_sending(gspace, y0, x)
        g2 = _element_sending(gspace, y0, y)
        if g1 is None or g2 is None:
            return None
        return coset(gspace.stabilizer(y0), g1, g2)

    n = gspace.n_points
    values = np.zeros((n, n))
    for q in range(n_orbits):
        mates = members(quotient, q)
        active = [a for a in range(n_orbits) if chi[q, a] > 0]
        for i, x in enumerate(mates):
            for y in mates[i + 1 :]:
                acc = 0.0
                ok = True
                for a in active:
                    dv = chart_metric(a, x, y)
                    if dv is None:
                        ok = False
                        break
                    acc += chi[q, a] * dv
                values[x, y] = values[y, x] = acc if ok else np.nan

    values.setflags(write=False)
    return OrbitalMetric(chi=chi, group_metric=d_G, values=values)


def verify_orbital_properties(gspace, quotient, family, d_O, d_G, tol: float = 1e-12) -> Report:
    coset_distance = _coset_distance_fn(d_G)
    rep = Report()
    group = gspace.group
    e = group.identity
    mul = group.mul.tolist()
    n = gspace.n_points

    dO_vals = [v for v in d_O.values.ravel() if not np.isnan(v)]
    eps_grid = grid_or(dO_vals, 1.0)
    delta_grid = grid_or(
        list(np.asarray(quotient.d).ravel()) + list(d_G.table.ravel()), 1.0
    )

    def slice_ball(x, delta):
        return subslice(family, x, quotient, delta)

    # Property A: small quotient ball + small group ball => small orbital move
    fails, wits = [], []
    for x in range(n):
        for eps in eps_grid:
            found = None
            for delta in reversed(delta_grid):
                ok = True
                for y in sorted(slice_ball(x, delta)):
                    for g in group_ball(d_G, delta):
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
                    if not any(d_G.table[e, mul[g][u]] < delta for u in K):
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
    for o, anchor in enumerate(quotient.representative.tolist()):
        K_anchor = gspace.stabilizer(anchor)
        for y in sorted(family.slice_of[anchor]):
            K_y = gspace.stabilizer(y)
            for g1 in range(group.order):
                for g2 in range(group.order):
                    da = coset_distance(K_anchor, g1, g2)
                    dy = coset_distance(K_y, g1, g2)
                    dg = float(d_G.table[g1, g2])
                    worst = max(da - dy, dy - dg)
                    if worst > resid:
                        resid = worst
                    if worst > tol:
                        fails.append((o, y, g1, g2))
    rep.add("coset_inequality_chain", FAIL if fails else PASS, fails, resid)

    # translated-slice bound: d(g0 K, g g0 K) <= d_G(g0, g g0) holds at u = e
    rep.add("translated_motion_bound", ADVISORY,
            [("u = e lies in K, so the bound holds exactly at tol >= 0",)])

    return rep

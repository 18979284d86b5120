"""Finite groups, sampled spaces, and validated group actions.

The topology of the underlying space is modelled by a neighborhood graph:
connectedness questions become graph-component questions. Group elements act
as injective (possibly partial) maps on point indices; total elements must be
automorphisms of the neighborhood graph.

The action has one form, the |G| x (n + 1) array of g.x
(``SampledGSpace.action``, -1 where a partial map is undefined). Per-element
point maps are only the input format of ``bind_action``, which writes them
into the array; the stabilizers and the mask of total elements are derived
from it once, and every stage reads the array.

Validation runs on arrays: the multiplication table as a |G| x |G| array and
the action array. Each check makes one array comparison per group element
and raises on the first violation in the order of the scalar scan it
replaces: row-major over (g, h, x), and per element the inverse test before
the edges, which are taken in sorted order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table group; element 0 need not be the identity."""

    order: int
    mul: tuple  # order x order tuple-of-tuples of element indices
    identity: int
    inv: tuple
    generators: Optional[tuple] = None

    def op(self, g: int, h: int) -> int:
        return self.mul[g][h]

    def is_subgroup(self, elems: Sequence[int]) -> bool:
        s = set(elems)
        if self.identity not in s:
            return False
        for a in s:
            if self.inv[a] not in s:
                return False
            for b in s:
                if self.mul[a][b] not in s:
                    return False
        return True

    def subgroups(self) -> list:
        """All subgroups, as sorted element tuples (brute-force closure scan)."""
        found = {(self.identity,)}
        frontier = [frozenset([self.identity])]
        while frontier:
            base = frontier.pop()
            for g in range(self.order):
                if g in base:
                    continue
                new = self._closure(base | {g})
                key = tuple(sorted(new))
                if key not in found:
                    found.add(key)
                    frontier.append(frozenset(new))
        return sorted(found, key=lambda t: (len(t), t))

    def _closure(self, seed) -> set:
        out = set(seed) | {self.identity}
        stack = list(out)
        while stack:
            a = stack.pop()
            for b in list(out):
                for c in (self.mul[a][b], self.mul[b][a], self.inv[a]):
                    if c not in out:
                        out.add(c)
                        stack.append(c)
        return out

    def is_normal(self, elems: Sequence[int]) -> bool:
        s = set(elems)
        for g in range(self.order):
            gi = self.inv[g]
            for k in s:
                if self.mul[self.mul[g][k]][gi] not in s:
                    return False
        return True


def build_group(mul_table, generators=None) -> FiniteGroup:
    """Validate a multiplication table and return the group.

    Scan order is fixed, so the first reported violation is deterministic:
    entries row-major over (g, h), the least two-sided identity, per g the
    least two-sided inverse, associativity row-major over (g, h, x).
    Associativity compares M[M[g]] with M[g][M] one row g at a time, so the
    temporaries stay O(|G|^2).
    """
    mul = tuple(tuple(int(v) for v in row) for row in mul_table)
    n = len(mul)
    if n == 0 or any(len(row) != n for row in mul):
        raise ValidationError("InvalidParams", "multiplication table must be square and nonempty")
    table = np.array(mul)
    bad = np.argwhere((table < 0) | (table >= n))
    if len(bad):
        raise ValidationError("InvalidParams", "table entry out of range", tuple(int(v) for v in bad[0]))
    table = table.astype(np.intp, copy=False)
    ids = np.arange(n)

    two_sided = (table == ids).all(axis=1) & (table.T == ids).all(axis=1)
    if not two_sided.any():
        raise ValidationError("NoIdentity", "no two-sided identity element")
    identity = int(two_sided.argmax())

    inverts = (table == identity) & (table.T == identity)
    missing = np.flatnonzero(~inverts.any(axis=1))
    if len(missing):
        raise ValidationError("NoInverse", "element has no two-sided inverse", int(missing[0]))
    inv = inverts.argmax(axis=1).tolist()

    for g in range(n):  # (gh)x against g(hx) over (h, x)
        differ = table[table[g]] != table[g][table]
        if differ.any():
            h, x = (int(v) for v in np.argwhere(differ)[0])
            raise ValidationError("NonAssociative", "associativity fails", (g, h, x))

    gens = None
    if generators is not None:
        gens = tuple(int(g) for g in generators)
        if any(not 0 <= g < n for g in gens):
            raise ValidationError("InvalidParams", "generator index out of range")
        reached = {identity}
        frontier = [identity]
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = mul[a][g]
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
                b = mul[a][inv[g]]
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
        if len(reached) != n:
            raise ValidationError(
                "GeneratorsDontGenerate",
                "generators do not reach the whole group",
                sorted(set(range(n)) - reached)[0],
            )

    return FiniteGroup(order=n, mul=mul, identity=identity, inv=tuple(inv), generators=gens)


def group_from_permutations(perms, generator_names=None) -> tuple:
    """Close a set of permutations (tuples) into a permutation group.

    Returns (FiniteGroup, element_perms) where element i acts as
    element_perms[i]. Elements are sorted by permutation tuple for a stable
    indexing; the multiplication matches composition, so the action of the
    returned group on the permuted set is a homomorphism by construction.
    Compositions are array gathers, looked up by their bytes.
    """
    gens = np.array(perms, dtype=np.intp)
    ident = np.arange(gens.shape[1])
    elems = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = g[a]
            key = b.tobytes()
            if key not in elems:
                elems[key] = b
                frontier.append(b)
    table = np.array(list(elems.values()))
    table = table[np.lexsort(table.T[::-1])]  # lexicographic, as tuples sort
    index = {p.tobytes(): i for i, p in enumerate(table)}
    mul = [[index[r.tobytes()] for r in p[table]] for p in table]
    gen_idx = [index[g.tobytes()] for g in gens]
    group = build_group(mul, generators=gen_idx)
    return group, [tuple(p) for p in table.tolist()]


def _check_metric_table(table: np.ndarray, tol: float, code: str = "NotAMetric"):
    """Raise on the first metric-axiom violation.

    Non-finite entries are rejected first (every comparison with NaN is
    false, so they would pass the axioms silently). The axioms are then
    scanned one row at a time in the scalar order: per row i the diagonal,
    then per j the negative, asymmetric and zero tests; the triangle
    inequality last, row-major over (i, j, k). Extra memory is O(n^2).
    """
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValidationError(code, "metric table must be square")
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        raise ValidationError("NonFinite", "non-finite distance", tuple(int(v) for v in bad[0]))
    for i in range(n):
        if abs(table[i, i]) > tol:
            raise ValidationError(code, "nonzero diagonal", i)
        row = table[i]
        negative = row < -tol
        asymmetric = np.abs(row - table[:, i]) > tol
        zero = row <= tol
        zero[i] = False
        hits = np.flatnonzero(negative | asymmetric | zero)
        if len(hits):
            j = int(hits[0])
            if negative[j]:
                raise ValidationError(code, "negative distance", (i, j))
            if asymmetric[j]:
                raise ValidationError(code, "asymmetric", (i, j))
            raise ValidationError(code, "zero distance between distinct points", (i, j))
    # row i: t[i, j] > t[i, k] + t[k, j] + tol over (j, k), same additions
    # in the same order as the scalar test
    for i in range(n):
        hits = table[i][:, None] > table[i][None, :] + table.T + tol
        if hits.any():
            j, k = (int(v) for v in np.argwhere(hits)[0])
            raise ValidationError(code, "triangle inequality fails", (i, j, k))


@dataclass(frozen=True)
class SampledSpace:
    n_points: int
    base_metric: np.ndarray
    edges: frozenset  # undirected, stored as (u, v) with u < v
    labels: tuple = None
    # point -> sorted tuple of its neighbours; derived from edges, once
    adjacency: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nbrs = [[] for _ in range(self.n_points)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in nbrs))


def build_space(base_metric, edges, labels=None, tol: float = 1e-9) -> SampledSpace:
    """Validate base metric axioms (exhaustively) and the edge set."""
    table = np.asarray(base_metric, dtype=np.float64)
    n = table.shape[0]
    _check_metric_table(table, tol)
    norm = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValidationError("InvalidParams", "self-loop in adjacency", u)
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError("InvalidParams", "edge endpoint out of range", (u, v))
        norm.add((min(u, v), max(u, v)))
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValidationError("InvalidParams", "label count mismatch")
    table.setflags(write=False)
    return SampledSpace(n_points=n, base_metric=table, edges=frozenset(norm), labels=labels)


def graph_components(n_points: int, edges, subset=None) -> list:
    """Connected components (sorted lists) of the induced subgraph on subset."""
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


def component_of(adjacency, start: int, alive) -> set:
    """The points joined to start by paths through alive (start included)."""
    seen = {start}
    stack = [start]
    while stack:
        for v in adjacency[stack.pop()]:
            if v in alive and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@dataclass(frozen=True)
class SampledGSpace:
    space: SampledSpace
    group: FiniteGroup
    # |G| x (n + 1) array of g.x, -1 where the map is undefined; the last
    # column is all -1, so that an undefined image indexes to -1 again
    action: np.ndarray = field(repr=False)
    # per point: tuple of the element indices fixing it; derived from action
    stabilizers: tuple = field(init=False, repr=False)
    # per element: does it act on every point; derived from action
    total: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.space.n_points
        images = self.action[:, :n]
        fixed = images == np.arange(n)
        total = (images >= 0).all(axis=1)
        total.setflags(write=False)
        object.__setattr__(self, "stabilizers", tuple(tuple(np.flatnonzero(c).tolist()) for c in fixed.T))
        object.__setattr__(self, "total", total)

    @property
    def n_points(self) -> int:
        return self.space.n_points

    def apply(self, g: int, x: int):
        """g.x, or None when the partial map is undefined at x."""
        gx = int(self.action[g, x])
        return gx if gx >= 0 else None

    def stabilizer(self, x: int) -> tuple:
        return self.stabilizers[x]


def bind_action(space: SampledSpace, group: FiniteGroup, act_maps) -> SampledGSpace:
    """Validate an action given as per-element partial injective point maps
    and write it into the action array A.

    Every check reads A and makes one comparison per element g; the first
    violation is the one the scalar scan over (g, h, x), then per g over x
    and the sorted edges, would meet first.
    """
    n = space.n_points
    if len(act_maps) != group.order:
        raise ValidationError("InvalidParams", "one map required per group element")
    A = np.full((group.order, n + 1), -1, dtype=np.intp)
    for g, m in enumerate(act_maps):
        m = {int(k): int(v) for k, v in dict(m).items()}
        for k, v in m.items():
            if not (0 <= k < n and 0 <= v < n):
                raise ValidationError("InvalidParams", "action image out of range", (g, k))
        if len(set(m.values())) != len(m):
            raise ValidationError("InvalidParams", "action map not injective", g)
        A[g, list(m)] = list(m.values())
    A.setflags(write=False)
    gspace = SampledGSpace(space=space, group=group, action=A)
    images = A[:, :n]
    ids = np.arange(n)

    if (images[group.identity] != ids).any():
        raise ValidationError("IdentityNotIdentity", "identity element must act as the total identity map")

    # act(g.h) = act(g) o act(h) wherever both sides are defined: row h of
    # A[mul[g]] against g applied to row h of A (-1 stays -1 via the padding)
    mul = np.asarray(group.mul)
    for g in range(group.order):
        lhs, rhs = images[mul[g]], A[g][images]
        differ = (lhs != rhs) & (lhs >= 0) & (rhs >= 0)
        if differ.any():
            h, x = (int(v) for v in np.argwhere(differ)[0])
            raise ValidationError("NotHomomorphism", "composition mismatch", (g, h, x))

    # total elements act by graph automorphisms; partial ones preserve edges
    # where defined. For a total g its inverse element must also act totally
    # and invert it, so forward edge preservation suffices.
    edges = sorted(space.edges)
    a_end = np.array([a for a, _ in edges], dtype=np.intp)
    b_end = np.array([b for _, b in edges], dtype=np.intp)
    adjacent = np.zeros((n + 1, n + 1), dtype=bool)
    adjacent[a_end, b_end] = adjacent[b_end, a_end] = True
    total = gspace.total
    for g in range(group.order):
        if total[g]:
            gi = group.inv[g]
            if not total[gi]:
                raise ValidationError("NotHomomorphism", "total element with partial inverse", g)
            bad = np.flatnonzero(A[gi][images[g]] != ids)
            if len(bad):
                raise ValidationError("NotHomomorphism", "inverse element does not invert", (g, int(bad[0])))
        ga, gb = A[g, a_end], A[g, b_end]
        bad = np.flatnonzero((ga >= 0) & (gb >= 0) & ((ga == gb) | ~adjacent[ga, gb]))
        if len(bad):
            raise ValidationError("NotGraphAutomorphism", "edge not preserved", (g, edges[bad[0]]))

    verdicts = {}  # one subgroup test per distinct stabilizer
    for x, K in enumerate(gspace.stabilizers):
        if K not in verdicts:
            verdicts[K] = group.is_subgroup(K)
        if not verdicts[K]:
            raise ValidationError("NotHomomorphism", "stabilizer is not a subgroup", x)

    return gspace

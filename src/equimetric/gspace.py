"""Finite groups, sampled spaces, and validated group actions.

The topology of the underlying space is modelled by a neighborhood graph:
connectedness questions become graph-component questions. Group elements act
as injective (possibly partial) maps on point indices; total elements must be
automorphisms of the neighborhood graph.
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

    def inverse(self, g: int) -> int:
        return self.inv[g]

    def elements(self) -> range:
        return range(self.order)

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

    Scan order is fixed (row-major over (g, h, x)), so the first reported
    violation is deterministic.
    """
    mul = tuple(tuple(int(v) for v in row) for row in mul_table)
    n = len(mul)
    if n == 0 or any(len(row) != n for row in mul):
        raise ValidationError("InvalidParams", "multiplication table must be square and nonempty")
    for g in range(n):
        for h in range(n):
            if not 0 <= mul[g][h] < n:
                raise ValidationError("InvalidParams", "table entry out of range", (g, h))

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
    """
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
    mul = [
        [index[tuple(p[q[i]] for i in range(npts))] for q in order]
        for p in order
    ]
    gen_idx = [index[tuple(p)] for p in perms]
    group = build_group(mul, generators=gen_idx)
    return group, order


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
        hits = np.argwhere(table[i][:, None] > table[i][None, :] + table.T + tol)
        if len(hits):
            j, k = (int(v) for v in hits[0])
            raise ValidationError(code, "triangle inequality fails", (i, j, k))


@dataclass(frozen=True)
class SampledSpace:
    n_points: int
    base_metric: np.ndarray
    edges: frozenset  # undirected, stored as (u, v) with u < v
    labels: tuple = None

    def neighbors(self, u: int) -> list:
        out = []
        for a, b in self.edges:
            if a == u:
                out.append(b)
            elif b == u:
                out.append(a)
        return sorted(out)

    def adjacency_lists(self) -> list:
        adj = [[] for _ in range(self.n_points)]
        for a, b in sorted(self.edges):
            adj[a].append(b)
            adj[b].append(a)
        return [sorted(x) for x in adj]


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


@dataclass(frozen=True)
class SampledGSpace:
    space: SampledSpace
    group: FiniteGroup
    act: tuple  # per element: dict point -> point (partial maps allowed)
    stabilizers: tuple = field(default=None)  # per point: tuple of element indices

    @property
    def n_points(self) -> int:
        return self.space.n_points

    def is_total(self, g: int) -> bool:
        return len(self.act[g]) == self.space.n_points

    def total_elements(self) -> list:
        return [g for g in range(self.group.order) if self.is_total(g)]

    def apply(self, g: int, x: int):
        """g.x, or None when the partial map is undefined at x."""
        return self.act[g].get(x)

    def translate_set(self, g: int, pts) -> frozenset:
        m = self.act[g]
        return frozenset(m[x] for x in pts if x in m)

    def stabilizer(self, x: int) -> tuple:
        return self.stabilizers[x]


def bind_action(space: SampledSpace, group: FiniteGroup, act_maps) -> SampledGSpace:
    """Validate an action given as per-element partial injective point maps."""
    n = space.n_points
    if len(act_maps) != group.order:
        raise ValidationError("InvalidParams", "one map required per group element")
    act = []
    for g, m in enumerate(act_maps):
        m = {int(k): int(v) for k, v in dict(m).items()}
        for k, v in m.items():
            if not (0 <= k < n and 0 <= v < n):
                raise ValidationError("InvalidParams", "action image out of range", (g, k))
        if len(set(m.values())) != len(m):
            raise ValidationError("InvalidParams", "action map not injective", g)
        act.append(m)

    e = group.identity
    if len(act[e]) != n or any(act[e][x] != x for x in range(n)):
        raise ValidationError("IdentityNotIdentity", "identity element must act as the total identity map")

    # act(g.h) = act(g) o act(h) wherever both sides are defined
    for g in range(group.order):
        for h in range(group.order):
            gh = group.mul[g][h]
            for x in range(n):
                hx = act[h].get(x)
                lhs = act[gh].get(x)
                rhs = act[g].get(hx) if hx is not None else None
                if lhs is not None and rhs is not None and lhs != rhs:
                    raise ValidationError("NotHomomorphism", "composition mismatch", (g, h, x))

    # total elements act by graph automorphisms; partial ones preserve edges
    # where defined. For a total g its inverse element must also act totally
    # and invert it, so forward edge preservation suffices.
    for g in range(group.order):
        total = len(act[g]) == n
        if total:
            gi = group.inv[g]
            if len(act[gi]) != n:
                raise ValidationError("NotHomomorphism", "total element with partial inverse", g)
            for x in range(n):
                if act[gi][act[g][x]] != x:
                    raise ValidationError("NotHomomorphism", "inverse element does not invert", (g, x))
        for a, b in sorted(space.edges):
            ga, gb = act[g].get(a), act[g].get(b)
            if ga is not None and gb is not None:
                if ga == gb or (min(ga, gb), max(ga, gb)) not in space.edges:
                    raise ValidationError("NotGraphAutomorphism", "edge not preserved", (g, (a, b)))

    stabs = []
    for x in range(n):
        s = tuple(g for g in range(group.order) if act[g].get(x) == x)
        if not group.is_subgroup(s):
            raise ValidationError("NotHomomorphism", "stabilizer is not a subgroup", x)
        stabs.append(s)

    return SampledGSpace(space=space, group=group, act=tuple(act), stabilizers=tuple(stabs))

"""Finite groups, sampled spaces, and validated group actions.

The topology of the underlying space is modelled by a neighborhood graph:
connectedness questions become graph-component questions. Group elements act
as injective (possibly partial) maps on point indices; total elements must be
automorphisms of the neighborhood graph.

The action has one form, the |G| x (n + 1) array of g.x
(``SampledGSpace.action``, -1 where a partial map is undefined). Per-element
point maps are only the input format of ``bind_action``, which writes them
into the array; the stabilizers, their classes and the mask of total
elements are derived from it once, and every stage reads these.

The group has one form as well: ``FiniteGroup.mul``, the |G| x |G| array
of products, and ``FiniteGroup.inv``, the array of inverses, both read-only
``np.intp`` arrays. Subgroup, normality and closure tests are gathers from
them, and every stage indexes them directly.

Validation runs on these arrays and the action array. Each check makes one
array comparison per group element and raises on the first violation in
the order of the scalar scan it replaces: row-major over (g, h, x), and per
element the inverse test before the edges, which are taken in sorted order.

Every metric table (base, quotient, group, lifted, pushforward) goes through
one axiom scan with one arithmetic, t[i, j] - (t[i, k] + t[k, j]) > tol:
``_metric_axiom_violations`` collects for a report, ``_check_metric_table``
raises on its first witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table group; element 0 need not be the identity."""

    order: int
    # order x order read-only np.intp array: mul[g, h] = gh
    mul: np.ndarray = field(repr=False)
    identity: int
    # read-only np.intp array: inv[g] = g^-1
    inv: np.ndarray
    generators: Optional[tuple] = None

    def _mask(self, elems) -> np.ndarray:
        member = np.zeros(self.order, dtype=bool)
        member[np.fromiter(elems, dtype=np.intp)] = True
        return member

    def is_subgroup(self, elems: Sequence[int]) -> bool:
        """The identity, inv[K] and mul[K x K] all within K: one mask."""
        member = self._mask(elems)
        K = np.flatnonzero(member)
        return bool(member[self.identity] and member[self.inv[K]].all() and member[self.mul[np.ix_(K, K)]].all())

    def is_normal(self, elems: Sequence[int]) -> bool:
        """g K g^-1 within K for every g: one gather of g k g^-1."""
        member = self._mask(elems)
        K = np.flatnonzero(member)
        return bool(member[self.mul[self.mul[:, K], self.inv[:, None]]].all())

    def subgroups(self) -> list:
        """All subgroups, as sorted element tuples: the closures of each
        subgroup found so far with one more element, from the trivial one."""
        trivial = self._mask([self.identity])
        found = {trivial.tobytes(): trivial}
        frontier = [trivial]
        while frontier:
            base = frontier.pop()
            for g in np.flatnonzero(~base):
                new = self._closure(base | self._mask([g]))
                if new.tobytes() not in found:
                    found[new.tobytes()] = new
                    frontier.append(new)
        return sorted((tuple(np.flatnonzero(m).tolist()) for m in found.values()), key=lambda t: (len(t), t))

    def _closure(self, member: np.ndarray) -> np.ndarray:
        """The mask of the subgroup generated by a nonempty mask. Each round
        adds all products of two members, which doubles the word length
        covered, until nothing new appears; in a finite group the inverses
        are among the powers."""
        while True:
            K = np.flatnonzero(member)
            grown = member.copy()
            grown[self.mul[np.ix_(K, K)]] = True
            if np.array_equal(grown, member):
                return member
            member = grown


def build_group(mul_table, generators=None) -> FiniteGroup:
    """Validate a multiplication table and return the group.

    Scan order is fixed, so the first reported violation is deterministic:
    entries row-major over (g, h), each either not an integer value or out
    of range, the least two-sided identity, per g the least two-sided
    inverse, associativity row-major over (g, h, x). Associativity compares
    M[M[g]] with M[g][M] one row g at a time, so the temporaries stay
    O(|G|^2).
    """
    n = len(mul_table)
    if n == 0 or any(len(row) != n for row in mul_table):
        raise ValidationError("InvalidParams", "multiplication table must be square and nonempty")
    values = np.asarray(mul_table)
    integral = True  # an integer dtype holds integer values only
    if values.dtype.kind not in "biu":  # floats, or Python ints past the index type
        values = values.astype(np.float64)
        integral = np.isfinite(values) & (np.floor(values) == values)
    bad = np.argwhere(~(integral & (values >= 0) & (values < n)))
    if len(bad):
        at = tuple(int(v) for v in bad[0])
        reason = "out of range" if integral is True or integral[at] else "not an integer"
        raise ValidationError("InvalidParams", f"table entry {reason}", at)
    table = values.astype(np.intp)
    ids = np.arange(n)

    two_sided = (table == ids).all(axis=1) & (table.T == ids).all(axis=1)
    if not two_sided.any():
        raise ValidationError("NoIdentity", "no two-sided identity element")
    identity = int(two_sided.argmax())

    inverts = (table == identity) & (table.T == identity)
    missing = np.flatnonzero(~inverts.any(axis=1))
    if len(missing):
        raise ValidationError("NoInverse", "element has no two-sided inverse", int(missing[0]))
    inv = inverts.argmax(axis=1)

    for g in range(n):  # (gh)x against g(hx) over (h, x)
        differ = table[table[g]] != table[g][table]
        if differ.any():
            h, x = (int(v) for v in np.argwhere(differ)[0])
            raise ValidationError("NonAssociative", "associativity fails", (g, h, x))

    table.setflags(write=False)
    inv.setflags(write=False)
    gens = None
    if generators is not None:
        gens = tuple(int(g) for g in generators)
        if any(not 0 <= g < n for g in gens):
            raise ValidationError("InvalidParams", "generator index out of range")
    group = FiniteGroup(order=n, mul=table, identity=identity, inv=inv, generators=gens)
    if gens is not None:
        unreached = np.flatnonzero(~group._closure(group._mask((identity,) + gens)))
        if len(unreached):
            raise ValidationError(
                "GeneratorsDontGenerate", "generators do not reach the whole group", int(unreached[0])
            )
    return group


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
    mul = np.empty((len(table), len(table)), dtype=np.intp)
    for i, p in enumerate(table):
        mul[i] = [index[r.tobytes()] for r in p[table]]
    gen_idx = [index[g.tobytes()] for g in gens]
    group = build_group(mul, generators=gen_idx)
    return group, [tuple(p) for p in table.tolist()]


_AXIOM_MESSAGES = {
    "nonzero_diagonal": "nonzero diagonal",
    "negative": "negative distance",
    "asymmetric": "asymmetric",
    "zero_between_distinct": "zero distance between distinct points",
    "triangle": "triangle inequality fails",
}


def _axiom_violation_blocks(table: np.ndarray, tol: float):
    """Yield the metric-axiom violations in scan order, a block at a time,
    each with its worst residual: the diagonal by i; the pairs i < j in
    ``triu_indices`` order, each with its negative, asymmetric and zero
    tests; one block per triangle row i with a violation, over (j, k). A
    row writes t[i, j] - (t[i, k] + t[k, j]) into one n x n buffer, read
    against a contiguous copy of the transpose."""
    n = table.shape[0]
    diag = np.abs(np.diagonal(table))
    bad = np.flatnonzero(diag > tol)
    if bad.size:
        yield [("nonzero_diagonal", i) for i in bad.tolist()], float(diag[bad].max())

    iu, ju = np.triu_indices(n, 1)
    upper = table[iu, ju]
    skew = np.abs(upper - table[ju, iu])
    negative = upper < -tol
    asymmetric = skew > tol
    zero = (-tol <= upper) & (upper <= tol)
    block = []
    for p in np.flatnonzero(negative | asymmetric | zero).tolist():
        i, j = int(iu[p]), int(ju[p])
        if negative[p]:
            block.append(("negative", i, j))
        if asymmetric[p]:
            block.append(("asymmetric", i, j))
        if zero[p]:
            block.append(("zero_between_distinct", i, j))
    if block:
        yield block, float(skew[asymmetric].max(initial=0.0))

    tT = np.ascontiguousarray(table.T)
    gap = np.empty_like(tT)
    hits = np.empty(tT.shape, dtype=bool)
    for i in range(n):
        np.add(table[i], tT, out=gap)
        np.subtract(table[i][:, None], gap, out=gap)
        np.greater(gap, tol, out=hits)
        if hits.any():
            yield [("triangle", i, j, k) for j, k in np.argwhere(hits).tolist()], float(gap[hits].max())


def _metric_axiom_violations(table: np.ndarray, tol: float):
    """Every metric-axiom violation in scan order, and the worst residual."""
    v = []
    resid = 0.0
    # infinities are legitimate (extended metric on a disconnected lift);
    # inf - inf evaluates to nan, which never exceeds tol
    with np.errstate(invalid="ignore"):
        for block, worst in _axiom_violation_blocks(table, tol):
            v += block
            resid = max(resid, worst)
    return v, resid


def _check_metric_table(table: np.ndarray, tol: float):
    """Raise on a non-finite entry (NaN would pass every axiom silently),
    else on the first witness of ``_metric_axiom_violations``; the scan
    stops at the first block that has one."""
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValidationError("NotAMetric", "metric table must be square")
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        raise ValidationError("NonFinite", "non-finite distance", tuple(int(v) for v in bad[0]))
    first = next(_axiom_violation_blocks(table, tol), None)
    if first is not None:
        kind, *witness = first[0][0]
        witness = witness[0] if len(witness) == 1 else tuple(witness)
        raise ValidationError("NotAMetric", _AXIOM_MESSAGES[kind], witness)


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
    # the distinct stabilizers, in the order of their least point
    stabilizer_classes: tuple = field(init=False, repr=False)
    # per point: read-only np.intp index of its stabilizer in stabilizer_classes
    stabilizer_class: np.ndarray = field(init=False, repr=False)
    # per element: does it act on every point; derived from action
    total: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.space.n_points
        images = self.action[:, :n]
        fixed = images == np.arange(n)
        total = (images >= 0).all(axis=1)
        total.setflags(write=False)
        stabilizers = tuple(tuple(np.flatnonzero(c).tolist()) for c in fixed.T)
        classes = {}
        of = np.array([classes.setdefault(K, len(classes)) for K in stabilizers], dtype=np.intp)
        of.setflags(write=False)
        object.__setattr__(self, "stabilizers", stabilizers)
        object.__setattr__(self, "stabilizer_classes", tuple(classes))
        object.__setattr__(self, "stabilizer_class", of)
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
    for g in range(group.order):
        lhs, rhs = images[group.mul[g]], A[g][images]
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

    # one subgroup test per stabilizer class; classes go by least point, so
    # the least point of the first failing class is the least failing point
    verdicts = [group.is_subgroup(K) for K in gspace.stabilizer_classes]
    if not all(verdicts):
        x = int(np.argmax(gspace.stabilizer_class == verdicts.index(False)))
        raise ValidationError("NotHomomorphism", "stabilizer is not a subgroup", x)

    return gspace

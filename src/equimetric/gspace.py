"""Finite groups, sampled spaces, and validated group actions.

The topology of the underlying space is modelled by a neighborhood graph:
connectedness questions become graph-component questions. Group elements act
as injective (possibly partial) maps on point indices; total elements must be
automorphisms of the neighborhood graph.

The action has one form, the |G| x (n + 1) array of g.x
(``SampledGSpace.action``, -1 where a partial map is undefined). Per-element
point maps are only the input format of ``bind_action``, which checks and
writes them into the array and hands it to ``bind_action_array``, the one
validator; the built-in permutation scenarios pass their element table to
it directly. The stabilizers, their classes and the mask of total elements
are derived from the array once, and every stage reads these.

The group has one form as well: ``FiniteGroup.mul``, the |G| x |G| array
of products, and ``FiniteGroup.inv``, the array of inverses, both read-only
``np.intp`` arrays. Subgroup, normality and closure tests are gathers from
them, and every stage indexes them directly.

Validation runs on these arrays and the action array. Each check stacks a
block of elements g into one gather, at most ``_BLOCK`` cells a block (the
cap every stacked check shares), in compact integer types, and raises on
the first violation in the order of the scalar scan it replaces: row-major
over (g, h, x), and per element the inverse test before the edges, which
are taken in sorted order. ``group_from_permutations`` finds every product
by one ``np.searchsorted`` on the keys of its images of a base.

Every metric table (base, quotient, group, lifted, pushforward) goes through
one axiom scan with one arithmetic, t[i, j] - (t[i, k] + t[k, j]) > tol:
``_metric_axiom_violations`` collects for a report, ``_check_metric_table``
raises on its first witness. Its O(n^3) triangle part refutes first and
confirms after: a block of rows takes the least t[i, k] + t[k, j] over k
(the min-plus product of the table with itself), which decides exactly
which rows hold a violation, and only those rows are scanned over (j, k)
for their witnesses. A table equal to its transpose needs only the columns
j at or past the block's first row (``_axiom_violation_blocks`` proves
both).
"""

from __future__ import annotations

from bisect import bisect_right
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


# Cells one stacked gather may hold: every check that stacks a block of
# rows (group elements, points, orbit sets) caps the block by it, so its
# temporaries stay in cache and bounded however large the input grows.
_BLOCK = 1 << 15


def _row_blocks(rows: int, cells: int):
    """Slices of consecutive rows, each row holding ``cells`` cells, with at
    most ``_BLOCK`` cells a slice; a row larger than that is a slice of its
    own."""
    step = max(1, _BLOCK // max(cells, 1))
    return (slice(i, i + step) for i in range(0, rows, step))


def _point_blocks(offsets: np.ndarray, cells: int):
    """Runs (start, stop) of consecutive points whose items, offsets[start]
    to offsets[stop], hold at most ``_BLOCK`` cells at ``cells`` an item; a
    point larger than that is a run of its own."""
    bounds = offsets.tolist()
    per = max(1, _BLOCK // max(cells, 1))
    start, n = 0, len(bounds) - 1
    while start < n:
        stop = min(max(bisect_right(bounds, bounds[start] + per) - 1, start + 1), n)
        yield start, stop
        start = stop


def _compact(values: np.ndarray, bound: int) -> np.ndarray:
    """Integers in -1 .. bound - 1 in the smallest signed type that holds
    them: the stacked comparisons then gather one or two bytes per cell."""
    return values.astype(np.min_scalar_type(-max(bound, 1)))


def _index_array(values: np.ndarray, low: int, high: int, what: str) -> np.ndarray:
    """values as a new np.intp array, each checked to be an integer value
    in low .. high - 1. The first entry that is not, row-major, is
    rejected as "<what> not an integer" or "<what> out of range"."""
    integral = True  # an integer dtype holds integer values only
    if values.dtype.kind not in "biu":  # floats, or Python ints past the index type
        values = values.astype(np.float64)
        integral = np.isfinite(values) & (np.floor(values) == values)
    ok = integral & (values >= low) & (values < high)
    if not ok.all():
        at = tuple(int(v) for v in np.argwhere(~ok)[0])
        reason = "out of range" if integral is True or integral[at] else "not an integer"
        raise ValidationError("InvalidParams", f"{what} {reason}", at)
    return values.astype(np.intp)


def _integer_value(v) -> bool:
    """Is v an integer value (2 or 2.0, not 2.5, nan, None or "2")?"""
    try:
        return int(v) == v
    except (ValueError, OverflowError, TypeError):  # nan, infinities, None, non-numbers
        return False


def build_group(mul_table, generators=None) -> FiniteGroup:
    """Validate a multiplication table and return the group.

    Scan order is fixed, so the first reported violation is deterministic:
    entries row-major over (g, h), each either not an integer value or out
    of range, the least two-sided identity, per g the least two-sided
    inverse, associativity row-major over (g, h, x). Associativity compares
    M[M[g]] with M[g][M] for a block of rows g at once, at most ``_BLOCK``
    cells a block.
    """
    try:
        values = np.asarray(mul_table)
    except ValueError:  # ragged rows
        values = None
    if values is None or values.ndim != 2 or values.shape[0] != values.shape[1] or values.size == 0:
        raise ValidationError("InvalidParams", "multiplication table must be square and nonempty")
    n = len(values)
    table = _index_array(values, 0, n, "table entry")
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

    small = _compact(table, n)
    for rows in _row_blocks(n, n * n):  # (gh)x against g(hx) over (g, h, x)
        differ = np.take(small, table[rows], axis=0) != np.take(small[rows], table, axis=1)
        if differ.any():
            g, h, x = (int(v) for v in np.argwhere(differ)[0])
            raise ValidationError("NonAssociative", "associativity fails", (rows.start + g, h, x))

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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One ``S`` bytes key per row of non-negative integers. The big-endian
    bytes put the first column first and its high byte first, so the keys
    sort, and compare, as the rows do lexicographically."""
    big = np.ascontiguousarray(rows, dtype=">u4")
    return big.view(f"S{4 * big.shape[-1]}")[..., 0]


def _permutation_group(perms) -> tuple:
    """(FiniteGroup, table): the group a set of permutations generates, its
    element i acting as row i of ``table``, a read-only |G| x n np.intp
    array with the rows in lexicographic order.

    The closure is a breadth-first walk over products s o a, looked up by
    their bytes: one dict lookup per element and generator, which measured
    3 to 6 times faster on the built-in groups than stacked rounds of the
    walk (a round per step of its depth, k rounds for a cyclic group of
    order k). The product table is looked up on a base (Sims 1970): the
    shortest prefix of columns on which the sorted rows already differ,
    found from the first column where each row differs from the next. A
    permutation is fixed by its images of the base, so the key of a
    product's base images finds its row by one ``np.searchsorted``, for a
    block of rows at once.
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
    rows = np.array(list(elems.values()))
    rows = rows[np.lexsort(rows.T[::-1])]  # lexicographic, as tuples sort

    order = len(rows)
    base = int((rows[1:] != rows[:-1]).argmax(axis=1).max()) + 1 if order > 1 else 1
    base_keys = _row_keys(rows[:, :base])
    mul = np.empty((order, order), dtype=np.intp)
    for block in _row_blocks(order, order * base):  # (p q)[:base] = p[q[:base]]
        mul[block] = np.searchsorted(base_keys, _row_keys(rows[block][:, rows[:, :base]]))
    group = build_group(mul, generators=np.searchsorted(base_keys, _row_keys(gens[:, :base])))
    rows.setflags(write=False)
    return group, rows


def group_from_permutations(perms, generator_names=None) -> tuple:
    """Close a set of permutations (tuples) into a permutation group.

    Returns (FiniteGroup, element_perms) where element i acts as
    element_perms[i]. Elements are sorted by permutation tuple for a stable
    indexing; the multiplication matches composition, so the action of the
    returned group on the permuted set is a homomorphism by construction.
    """
    group, rows = _permutation_group(perms)
    return group, [tuple(p) for p in rows.tolist()]


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
    tests; one block per triangle row i with a violation, over (j, k).

    The triangle rows are found by refutation, a block of rows at a time
    (``_row_blocks``, n x n cells a row): m[i, j], the ``np.fmin`` over k
    of t[i, k] + t[k, j], in one add and one reduction along k. Two facts
    make it exact:

    - Row i has a violation at column j exactly when t[i, j] - m[i, j] >
      tol. For a fixed x the rounded x - y never increases as y grows, so
      the largest gap is the one at the least sum. ``fmin`` skips a NaN sum,
      whose gap is NaN and never exceeds tol; infinities agree case by case
      (inf - inf is NaN, and no hit, on both sides).
    - If the table holds no NaN and equals its transpose bit for bit (0.0
      against -0.0 is a difference), the gap of (j, i, k) is the gap of
      (i, j, k) bit for bit, since IEEE addition commutes: violations come
      in mirrored pairs. A block starting at row lo then reads only the columns j >=
      lo, and a hit at (i, j) marks both rows i and j; a hit at j < lo is
      the mirror of one that an earlier block marked. Any other table
      reads every column.

    Once a block is refuted, each of its marked rows is rescanned, in
    ascending order: it writes t[i, j] - (t[i, k] + t[k, j]) into one n x n
    buffer, read against a contiguous copy of the transpose, and yields
    its witnesses in (j, k) order. An unmarked row has no violation."""
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
    mirrored = bool((table == tT).all()) and np.array_equal(np.signbit(table), np.signbit(tT))
    marked = np.zeros(n, dtype=bool)
    gap = np.empty_like(tT)
    hits = np.empty(tT.shape, dtype=bool)
    sums = None
    for rows in _row_blocks(n, n * n):
        lo, hi = rows.start, min(rows.stop, n)
        cols = lo if mirrored else 0
        if sums is None:  # the first block is the largest: t[i, k] + t[k, j] over (i, j, k)
            sums = np.empty((hi - lo) * n * n, dtype=tT.dtype)
        block = sums[: (hi - lo) * (n - cols) * n].reshape(hi - lo, n - cols, n)
        np.add(table[rows, None, :], tT[None, cols:, :], out=block)
        least = np.fmin.reduce(block, axis=-1)
        hit = np.subtract(table[rows, cols:], least, out=least) > tol
        if hit.any():
            marked[lo:hi] |= hit.any(axis=1)
            if mirrored:
                marked[cols:] |= hit.any(axis=0)
        for i in (lo + np.flatnonzero(marked[lo:hi])).tolist():
            np.add(table[i], tT, out=gap)
            np.subtract(table[i][:, None], gap, out=gap)
            np.greater(gap, tol, out=hits)
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
    # the distinct stabilizers (tuples of the element indices fixing a
    # point), in the order of their least point; derived from action
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
        classes = {}
        of = np.array([classes.setdefault(tuple(np.flatnonzero(c).tolist()), len(classes)) for c in fixed.T],
                      dtype=np.intp)
        of.setflags(write=False)
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
        """The element indices fixing x, ascending."""
        return self.stabilizer_classes[self.stabilizer_class[x]]


def bind_action(space: SampledSpace, group: FiniteGroup, act_maps) -> SampledGSpace:
    """Validate an action given as per-element partial injective point maps:
    each map is checked, in element order, for integer points and images in
    range, entry by entry, then for injectivity, and written into the action
    array, which ``bind_action_array`` validates."""
    n = space.n_points
    if len(act_maps) != group.order:
        raise ValidationError("InvalidParams", "one map required per group element")
    A = np.full((group.order, n), -1, dtype=np.intp)
    for g, m in enumerate(act_maps):
        m = dict(m)
        for k, v in m.items():
            if not _integer_value(k):
                raise ValidationError("InvalidParams", "action point not an integer", (g, k))
            if not _integer_value(v):
                raise ValidationError("InvalidParams", "action image not an integer", (g, k))
            if not (0 <= k < n and 0 <= v < n):
                raise ValidationError("InvalidParams", "action image out of range", (g, int(k)))
        m = {int(k): int(v) for k, v in m.items()}
        if len(set(m.values())) != len(m):
            raise ValidationError("InvalidParams", "action map not injective", g)
        A[g, list(m)] = list(m.values())
    return bind_action_array(space, group, A)


def bind_action_array(space: SampledSpace, group: FiniteGroup, images: np.ndarray) -> SampledGSpace:
    """Validate an action given as the |G| x n array of g.x (-1 where the
    partial map is undefined) and bind it, padded with the column of -1
    that ``SampledGSpace`` keeps. Its shape, its images (integer values in
    -1 .. n - 1, as ``build_group`` checks its table) and the injectivity of
    each row are checked first, over the whole array.

    The checks gather a block of elements g at once, at most ``_BLOCK``
    cells a block, and the first violation is the one the scalar scan over
    (g, h, x), then per g over x and the sorted edges, would meet first.
    """
    n = space.n_points
    images = np.asarray(images)
    if images.shape != (group.order, n):
        raise ValidationError("InvalidParams", "one row of n images required per group element")
    images = _index_array(images, -1, n, "action image")
    ordered = np.sort(_compact(images, n), axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
    if repeated.any():
        raise ValidationError("InvalidParams", "action map not injective", int(repeated.any(axis=1).argmax()))
    A = np.full((group.order, n + 1), -1, dtype=np.intp)
    A[:, :n] = images
    A.setflags(write=False)
    gspace = SampledGSpace(space=space, group=group, action=A)
    images, ids = A[:, :n], np.arange(n)
    total = gspace.total

    if (images[group.identity] != ids).any():
        raise ValidationError("IdentityNotIdentity", "identity element must act as the total identity map")

    # act(g.h) = act(g) o act(h) wherever both sides are defined: the
    # blocks hold act(gh) x and act(g) (act(h) x), both -1 where undefined
    # (an undefined act(h) x indexes the padding column), so their xor is
    # positive exactly where both are defined and differ (a -1 against an
    # image is negative)
    small = _compact(A, n)
    for rows in _row_blocks(group.order, group.order * n):
        lhs = np.take(small[:, :n], group.mul[rows], axis=0)
        rhs = np.take(small[rows], images, axis=1)
        np.bitwise_xor(lhs, rhs, out=lhs)
        hit = lhs > 0
        if hit.any():
            g, h, x = (int(v) for v in np.argwhere(hit)[0])
            raise ValidationError("NotHomomorphism", "composition mismatch", (rows.start + g, h, x))

    # total elements act by graph automorphisms; partial ones preserve edges
    # where defined. For a total g its inverse element must also act totally
    # and invert it, so forward edge preservation suffices. An edge maps to
    # an edge, or has an undefined end: the lookup table pads the
    # adjacency with a row and a column of True, and a self-image fails
    # (there are no self-loops).
    edges = sorted(space.edges)
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    kept = np.zeros((n + 1, n + 1), dtype=bool)
    kept[ends[0], ends[1]] = kept[ends[1], ends[0]] = True
    kept[n, :] = kept[:, n] = True
    partial_inverse = total & ~total[group.inv]
    inverted = total & total[group.inv]
    for rows in _row_blocks(group.order, n + len(edges)):
        back = A[group.inv[rows, None], images[rows]]
        not_inverted = (back != ids) & inverted[rows, None]
        moved = ~kept[A[rows][:, ends[0]], A[rows][:, ends[1]]]
        failing = partial_inverse[rows] | not_inverted.any(axis=1) | moved.any(axis=1)
        if failing.any():
            i = int(failing.argmax())
            g = rows.start + i
            if partial_inverse[g]:
                raise ValidationError("NotHomomorphism", "total element with partial inverse", g)
            if not_inverted[i].any():
                x = int(not_inverted[i].argmax())
                raise ValidationError("NotHomomorphism", "inverse element does not invert", (g, x))
            raise ValidationError("NotGraphAutomorphism", "edge not preserved", (g, edges[int(moved[i].argmax())]))

    # one subgroup test per stabilizer class; classes go by least point, so
    # the least point of the first failing class is the least failing point
    verdicts = [group.is_subgroup(K) for K in gspace.stabilizer_classes]
    if not all(verdicts):
        x = int(np.argmax(gspace.stabilizer_class == verdicts.index(False)))
        raise ValidationError("NotHomomorphism", "stabilizer is not a subgroup", x)

    return gspace

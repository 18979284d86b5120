"""Finite groups, sampled spaces, and validated group actions.

The topology of the underlying space is modelled by a neighborhood graph:
connectedness questions become graph-component questions. Group elements act
as injective (possibly partial) maps on point indices; total elements must be
automorphisms of the neighborhood graph.

The graph has one form, CSR arrays (``SampledSpace``). A component question
is one ``components`` call; one about many subgraphs, one call over their
disjoint union, vertex (i, x) numbered i * n + x.

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
are taken in sorted order; associativity is the composition scan
(``_check_composition``) of the group acting on itself.
``group_from_permutations`` finds each product by one ``np.searchsorted``.

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

Symmetry. If t[pi i, pi j] has the bits of t[i, j] for a point
permutation pi, so does everything computed from t entry by entry with the
same float operations. ``_keeps`` tests this for each permutation on its
own, so one that fails drops out alone. The permutations come from the
action (the total elements' generators) and from the space: a scenario
declares its sample's isometries to ``build_space``, and
``SampledSpace.symmetries`` keeps those that keep the base metric and the
edges. Two stages use the rows of one point per orbit alone. The axiom scan
(``_orbit_minima``): the gap at (i, j, k) is the gap at (pi i, pi j, pi k)
bit for bit, so the rows holding a triangle violation are a union of
orbits, and an orbit-minimum row holds one whenever any row does. The lift
(``lift.lift_metric``): dense Dijkstra's table does not depend on its tie
rule (``spath``), so row pi x is row x moved by pi, bit for bit. It fills
each G-orbit's rows from one row through the action array, and moves rows
between G-orbits by the symmetries along a transversal (Schreier tree,
Sims 1970) of the permutations they induce on the orbits: no closure of
the symmetries is formed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
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


def _check_composition(mul: np.ndarray, action: np.ndarray, code: str, message: str) -> None:
    """Raise ``code`` at the first (g, h, x), row-major, where act(gh) x and
    act(g) (act(h) x) are both defined and differ. ``action`` is |G| x (n + 1),
    g.x or -1 where undefined and in its last column; the table ``mul`` so
    padded, the group acting on itself, makes this associativity. A block of
    g (``_BLOCK`` cells) gathers both sides, -1 where undefined (an undefined
    act(h) x indexes the last column), so their xor is positive exactly where
    both are defined and differ: -1 has the sign bit."""
    n = action.shape[1] - 1
    small = _compact(action, n)
    for rows in _row_blocks(len(action), len(action) * n):
        lhs = np.take(small[:, :n], mul[rows], axis=0)
        np.bitwise_xor(lhs, np.take(small[rows], action[:, :n], axis=1), out=lhs)
        if (hit := lhs > 0).any():
            g, h, x = np.argwhere(hit)[0].tolist()
            raise ValidationError(code, message, (rows.start + g, h, x))


def _integer_value(v) -> bool:
    """Is v an integer value (2 or 2.0, not 2.5, nan, None or "2")?"""
    try:
        return int(v) == v
    except (ValueError, OverflowError, TypeError):  # nan, infinities, None, non-numbers
        return False


def build_group(mul_table, generators=None) -> FiniteGroup:
    """Validate a multiplication table and return the group.

    Scan order is fixed, so the first reported violation is deterministic:
    entries row-major over (g, h), first any that is not a real number (a
    string is not read through float), then each either not an integer
    value or out of range, the least two-sided identity, per g the least
    two-sided inverse, associativity row-major over (g, h, x)
    (``_check_composition``).
    Generators must be numbers, each then checked as a table entry is.
    """
    try:
        values = np.asarray(mul_table)
    except ValueError:  # ragged rows
        values = None
    if values is None or values.ndim != 2 or values.shape[0] != values.shape[1] or values.size == 0:
        raise ValidationError("InvalidParams", "multiplication table must be square and nonempty")
    n = len(values)
    if values.dtype.kind not in "biuf":  # strings, complex values, or Python objects
        real = [isinstance(v, (Real, np.bool_)) for v in np.asarray(mul_table, dtype=object).flat]
        if not all(real):
            raise ValidationError("InvalidParams", "table entry not a real number", divmod(real.index(False), n))
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

    regular = np.pad(table, ((0, 0), (0, 1)), constant_values=-1)  # the group acting on itself
    _check_composition(table, regular, "NonAssociative", "associativity fails")

    table.setflags(write=False)
    inv.setflags(write=False)
    gens = None
    if generators is not None:
        gens = list(generators) if np.iterable(generators) else None
        if gens is None or not all(isinstance(g, Real) and not isinstance(g, bool) for g in gens):
            raise ValidationError("InvalidParams", "generators must be a sequence of element indices")
        gens = tuple(_index_array(np.asarray(gens), 0, n, "generator index").tolist())
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
    array with the rows in lexicographic order. Its generators are the
    given permutations and then their inverses, each once: the
    inverse-closed set a word metric needs.

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
    named = np.concatenate([gens, np.argsort(gens, axis=1)])  # the permutations, then their inverses
    index = np.searchsorted(base_keys, _row_keys(named[:, :base])).tolist()
    group = build_group(mul, generators=list(dict.fromkeys(index)))
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


def _as_perms(perms, n: int) -> np.ndarray:
    """perms as a k x n integer array (p[x] the image of x), or no rows
    when it is not one; ``_keeps`` tests the rows."""
    try:
        perms = np.asarray([] if perms is None else perms)
    except ValueError:  # ragged rows
        perms = np.zeros(0)
    if perms.ndim != 2 or perms.shape[1] != n or perms.dtype.kind not in "iu":
        return np.zeros((0, n), dtype=np.intp)
    return perms


def _keeps(table: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Per row p of a k x n integer array: is it a bijection of range(n)
    under which the n x n table is bitwise invariant, table[p[i], p[j]]
    with the bits of table[i, j]? So 0.0 against -0.0, or two NaN
    payloads, count as a change. Each row is tested on its own, at most
    ``_BLOCK`` cells a block."""
    n = table.shape[0]
    if not len(perms):
        return np.zeros(0, dtype=bool)
    ok = (np.sort(perms, axis=1) == np.arange(n)).all(axis=1)
    bits = table.view(f"i{table.itemsize}")
    for i in np.flatnonzero(ok).tolist():
        p = perms[i]
        ok[i] = all(np.array_equal(bits[p[rows]][:, p], bits[rows]) for rows in _row_blocks(n, n))
    return ok


def _orbit_minima(table: np.ndarray, perms) -> Optional[np.ndarray]:
    """The least point of each orbit of the group generated by the
    permutations (k x n integers) that keep the n x n table bitwise
    (``_keeps``), ascending: the components of the edges x - p[x]
    (``components``). A row that fails is dropped on its own. None when
    every orbit is one point, and at once when n^3 cells, a whole triangle
    scan or dense Dijkstra, fit one ``_BLOCK`` block, which then costs less
    than the tests."""
    n = table.shape[0]
    if n ** 3 <= _BLOCK or table.shape != (n, n):
        return None
    perms = _as_perms(perms, n)
    perms = perms[_keeps(table, perms)]
    if not len(perms):
        return None
    ids = np.arange(n)
    minima = np.flatnonzero(components(n, np.tile(ids, len(perms)), perms.ravel()) == ids)
    return None if len(minima) == n else minima


def _symmetry_minima(gspace: SampledGSpace, table: np.ndarray) -> Optional[np.ndarray]:
    """``_orbit_minima`` of an n x n table under the point maps of the total
    elements' generators and the space's symmetries. None at once when n^3
    cells fit one ``_BLOCK`` block, before the generators are derived."""
    n = gspace.n_points
    if n ** 3 <= _BLOCK:
        return None
    return _orbit_minima(table, np.concatenate([gspace.action[gspace.total_generators, :n],
                                                gspace.space.symmetries]))


_AXIOM_MESSAGES = {
    "nonzero_diagonal": "nonzero diagonal",
    "negative": "negative distance",
    "asymmetric": "asymmetric",
    "zero_between_distinct": "zero distance between distinct points",
    "triangle": "triangle inequality fails",
}


def _axiom_violation_blocks(table: np.ndarray, tol: float, rows=None):
    """Yield the metric-axiom violations in scan order, a block at a time,
    each with its worst residual: the diagonal by i; the pairs i < j in
    ``triu_indices`` order, each with its negative, asymmetric and zero
    tests; one block per triangle row i with a violation, over (j, k).

    The triangle rows are found by refutation, a block of rows at a time,
    each block at most ``_BLOCK`` of the cells it reads (a row larger than
    that is a block of its own): m[i, j], the ``np.fmin`` over k of t[i, k]
    + t[k, j], in one add and one reduction along k. Two facts make it
    exact:

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

    ``rows``, when given, holds a row of each orbit of a group of point
    permutations that keeps the table bitwise (``_orbit_minima``, or one
    row for a transitive group). The rows with a triangle violation are a
    union of orbits (module docstring), so if these rows, refuted first
    over every column, hold none, no row does. On any hit the scan runs as
    without them, with the same witnesses and residuals.

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
    # t[i, k] + t[k, j] over (i, j, k) of the largest block
    sums = np.empty(min(n ** 3, max(_BLOCK, n * n)), dtype=tT.dtype)

    def refuted(t, cols):
        """t[i, j] - m[i, j] > tol over the rows t of the table and the
        columns j >= cols."""
        block = sums[: len(t) * (n - cols) * n].reshape(len(t), n - cols, n)
        np.add(t[:, None, :], tT[None, cols:, :], out=block)
        least = np.fmin.reduce(block, axis=-1)
        return np.subtract(t[:, cols:], least, out=least) > tol

    if rows is not None and not any(refuted(table[rows[b]], 0).any() for b in _row_blocks(len(rows), n * n)):
        return
    mirrored = bool((table == tT).all()) and np.array_equal(np.signbit(table), np.signbit(tT))
    marked = np.zeros(n, dtype=bool)
    gap = np.empty_like(tT)
    hits = np.empty(tT.shape, dtype=bool)
    hi = 0
    while hi < n:
        lo = hi
        cols = lo if mirrored else 0
        hi = min(n, lo + max(1, _BLOCK // ((n - cols) * n)))
        hit = refuted(table[lo:hi], cols)
        if hit.any():
            marked[lo:hi] |= hit.any(axis=1)
            if mirrored:
                marked[cols:] |= hit.any(axis=0)
        for i in (lo + np.flatnonzero(marked[lo:hi])).tolist():
            np.add(table[i], tT, out=gap)
            np.subtract(table[i][:, None], gap, out=gap)
            np.greater(gap, tol, out=hits)
            yield [("triangle", i, j, k) for j, k in np.argwhere(hits).tolist()], float(gap[hits].max())


def _metric_axiom_violations(table: np.ndarray, tol: float, rows=None):
    """Every metric-axiom violation in scan order, and the worst residual;
    ``rows`` as in ``_axiom_violation_blocks``."""
    v = []
    resid = 0.0
    # infinities are legitimate (extended metric on a disconnected lift);
    # inf - inf evaluates to nan, which never exceeds tol
    with np.errstate(invalid="ignore"):
        for block, worst in _axiom_violation_blocks(table, tol, rows):
            v += block
            resid = max(resid, worst)
    return v, resid


def _check_scalar(value, what: str, positive: bool = False) -> None:
    """Reject a tolerance or factor: NaN or an infinity (which passes every
    ``> tol`` test silently) as NonFinite; a non-number (a bool too) or a
    value below zero, or at zero when ``positive``, as InvalidParams."""
    number = isinstance(value, Real) and not isinstance(value, bool)
    if number and not -np.inf < value < np.inf:  # exact for ints past float, unlike np.isfinite
        raise ValidationError("NonFinite", f"{what} must be finite", value)
    if not number or (value <= 0 if positive else value < 0):
        sign = "positive" if positive else "non-negative"
        raise ValidationError("InvalidParams", f"{what} must be a {sign} number")


def _check_metric_table(table: np.ndarray, tol: float, rows=None):
    """Raise on a bad ``tol`` (``_check_scalar``), on a non-finite entry (NaN
    would pass every axiom silently), else on the first witness of
    ``_metric_axiom_violations``; the scan stops at the first block that has
    one. ``rows`` as in ``_axiom_violation_blocks``."""
    _check_scalar(tol, "tolerance")
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValidationError("NotAMetric", "metric table must be square")
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        raise ValidationError("NonFinite", "non-finite distance", tuple(int(v) for v in bad[0]))
    first = next(_axiom_violation_blocks(table, tol, rows), None)
    if first is not None:
        kind, *witness = first[0][0]
        witness = witness[0] if len(witness) == 1 else tuple(witness)
        raise ValidationError("NotAMetric", _AXIOM_MESSAGES[kind], witness)


@dataclass(frozen=True, eq=False)
class SampledSpace:
    n_points: int
    base_metric: np.ndarray
    # read-only np.intp CSR arrays: x's neighbours, ascending, are
    # indices[indptr[x]:indptr[x + 1]]; each edge is stored both ways
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    labels: tuple = None
    # the point permutations declared to ``build_space``, as given
    perms: object = field(default=None, repr=False)
    # derived once: the read-only (m, 2) np.intp edges (u, v), u < v, sorted
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.repeat(np.arange(self.n_points), np.diff(self.indptr))
        edges = np.stack([u, self.indices], axis=1)[u < self.indices]
        for a in (self.indptr, self.indices, edges):
            a.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def symmetries(self) -> np.ndarray:
        """Read-only (s, n) np.intp rows of the declared ``perms``: those
        that keep the base metric bit for bit (``_keeps``) and map the
        edges onto the edges, each tested on its own. Derived on first
        use, only by tables whose n^3 cells exceed one ``_BLOCK`` block."""
        n = self.n_points
        kept = _as_perms(self.perms, n)
        kept = kept[_keeps(self.base_metric, kept)].astype(np.intp)
        if len(kept):  # a bijection maps the edges onto the edges when their images, sorted, are the edges
            src = np.repeat(np.arange(n), np.diff(self.indptr))
            key = src * n + self.indices  # ascending, as the CSR arrays
            kept = kept[(np.sort(kept[:, src] * n + kept[:, self.indices], axis=1) == key).all(axis=1)]
        kept.setflags(write=False)
        return kept


def build_space(base_metric, edges, labels=None, tol: float = 1e-9, perms=None) -> SampledSpace:
    """Validate base metric axioms (exhaustively) and the edges: an (m, 2)
    integer array, read as it is, or pairs of numbers, each endpoint
    checked as ``build_group`` checks a table entry, then for self-loops;
    duplicate and reversed pairs collapse.

    ``perms`` declares point permutations (k x n integers, p[x] the image
    of x), such as the sample's isometries. Nothing about them is assumed:
    the triangle scan refutes first the least point of each orbit of those
    that keep the table bitwise (``_orbit_minima``), and the space keeps
    them as ``SampledSpace.symmetries``, each tested on its own."""
    table = np.asarray(base_metric, dtype=np.float64)
    n = table.shape[0]
    _check_metric_table(table, tol, None if perms is None else _orbit_minima(table, perms))
    if isinstance(edges, np.ndarray) and edges.size:
        ends = edges
    else:
        try:
            ends = np.asarray(list(edges) or np.zeros((0, 2), dtype=np.intp))
        except ValueError:  # ragged pairs
            ends = None
    if ends is None or ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "biuf":
        raise ValidationError("InvalidParams", "edges must be pairs of point indices")
    ends = _index_array(ends, 0, n, "edge endpoint")
    loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
    if loops.size:
        raise ValidationError("InvalidParams", "self-loop in adjacency", int(ends[loops[0], 0]))
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValidationError("InvalidParams", "label count mismatch")
    key = np.sort(np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]]))
    first = np.ones(len(key), dtype=bool)  # each directed edge once
    np.not_equal(key[1:], key[:-1], out=first[1:])
    src, indices = np.divmod(key[first], n)
    table.setflags(write=False)
    return SampledSpace(n_points=n, base_metric=table, indptr=np.searchsorted(src, np.arange(n + 1)),
                        indices=indices, labels=labels, perms=perms)


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component, an np.intp array, in the
    graph on range(n) with the edges (a[i], b[i]): hooking and pointer
    jumping (Shiloach and Vishkin 1982). Each vertex starts as its own
    label. A round hooks the label of each end of an edge whose ends differ
    to the least label across its edges, then takes the label of the label
    until nothing changes; an edge whose ends agree stays so, and is dropped.

    Lemma. A label is a vertex of the same component at or below the
    vertex. The labels are fully compressed before each hook, so a hook
    moves only roots, and only down, to a label joined to them by an edge:
    the pointers form trees, and the rounds end. Then both ends of every
    edge share a label, which is constant on each component and, at its
    least vertex m, at most m: it is m."""
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            return label
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        np.minimum.at(label, la, lb)
        np.minimum.at(label, lb, la)
        while not np.array_equal(up := label[label], label):
            label = up


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

    @cached_property
    def total_generators(self) -> np.ndarray:
        """Read-only np.intp generators of the total elements, each the first
        outside the subgroup of those before; empty when only the identity is
        total or two totals have a partial product (no group). Derived on
        first use, by ``_symmetry_minima`` and ``lift.lift_metric``."""
        group, T = self.group, np.flatnonzero(self.total)
        gens = []
        if self.total.all() or self.total[group.mul[np.ix_(T, T)]].all():
            member = group._mask([group.identity])
            for g in T.tolist():
                if not member[g]:
                    gens.append(g)
                    member = group._closure(member | group._mask([g]))
        gens = np.array(gens, dtype=np.intp)
        gens.setflags(write=False)
        return gens

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
    A = np.pad(images, ((0, 0), (0, 1)), constant_values=-1)
    A.setflags(write=False)
    gspace = SampledGSpace(space=space, group=group, action=A)
    images, ids = A[:, :n], np.arange(n)
    total = gspace.total

    if (images[group.identity] != ids).any():
        raise ValidationError("IdentityNotIdentity", "identity element must act as the total identity map")

    _check_composition(group.mul, A, "NotHomomorphism", "composition mismatch")

    # total elements act by graph automorphisms; partial ones preserve edges
    # where defined. For a total g its inverse element must also act totally
    # and invert it, so forward edge preservation suffices. An edge maps to
    # an edge, or has an undefined end: the lookup table pads the
    # adjacency with a row and a column of True, and a self-image fails
    # (there are no self-loops).
    ends = space.edges.T
    kept = np.zeros((n + 1, n + 1), dtype=bool)
    kept[ends[0], ends[1]] = kept[ends[1], ends[0]] = True
    kept[n, :] = kept[:, n] = True
    partial_inverse = total & ~total[group.inv]
    inverted = total & total[group.inv]
    for rows in _row_blocks(group.order, n + ends.shape[1]):
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
            raise ValidationError("NotGraphAutomorphism", "edge not preserved",
                                  (g, tuple(space.edges[int(moved[i].argmax())].tolist())))

    # one subgroup test per stabilizer class; classes go by least point, so
    # the least point of the first failing class is the least failing point
    verdicts = [group.is_subgroup(K) for K in gspace.stabilizer_classes]
    if not all(verdicts):
        x = int(np.argmax(gspace.stabilizer_class == verdicts.index(False)))
        raise ValidationError("NotHomomorphism", "stabilizer is not a subgroup", x)

    return gspace

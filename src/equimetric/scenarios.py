"""Built-in example spaces: deterministic constructions of small symmetric
samples with validated group actions.

circle(n, k)      n points on the unit circle, cyclic rotation group of
                  order k (k must divide n), arc-length metric.
reflection(m, h)  2m+1 points at spacing h on a line, order-2 negation.
dihedral(n)       n circle points under the full dihedral group (order 2n);
                  a single orbit, so slices degenerate to singletons.
disk(g)           odd g x g grid with the 90-degree rotation group, Euclidean
                  metric, 4-neighbor adjacency; the origin is a fixed point.
shift(m, h, N)    2m+1 line points at spacing h; integer shifts truncated to
                  |j| <= N act partially (points near the boundary leave the
                  sample). The carrier group is the cyclic group of order
                  4N+1 so that every defined product of defined shifts agrees
                  with the group multiplication: |j1|,|j2| <= N never wraps.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral, Real

import numpy as np

from .errors import ValidationError
from .gspace import SampledGSpace, _permutation_group, bind_action_array, build_group, build_space


def _circle_space(n: int) -> tuple:
    """(metric, edges, labels) of n points on the unit circle."""
    step = 2.0 * math.pi / n
    i = np.arange(n)
    hops = np.abs(i[:, None] - i)  # integers convert exactly: one multiply per entry
    metric = np.minimum(hops, n - hops) * step
    edges = [(i, (i + 1) % n) for i in range(n)]
    labels = [f"{360.0 * i / n:g}deg" for i in range(n)]
    return metric, edges, labels


def _line_space(m: int, h: float) -> tuple:
    """(metric, edges, labels) of 2m + 1 points at spacing h on a line: the
    positions (i - m) * h and their distances |a - b|, one float operation
    an entry, as a scalar loop over floats makes them (an integer h is
    taken as a float, so a large one cannot wrap around)."""
    n = 2 * m + 1
    pos = (np.arange(n) - m) * float(h)
    edges = [(i, i + 1) for i in range(n - 1)]
    return np.abs(pos[:, None] - pos), edges, [f"{p:g}" for p in pos.tolist()]


def _permutation_gspace(space: tuple, perms) -> SampledGSpace:
    """The space (metric, edges, labels) under the group its point
    permutations generate: the base metric is checked with their orbit
    minima (``build_space``), and the group's element table is the action
    array."""
    space = build_space(*space, perms=perms)
    group, table = _permutation_group(perms)
    return bind_action_array(space, group, table)


def circle(n: int, k: int) -> SampledGSpace:
    if n < 3 or k < 1 or n % k != 0:
        raise ValidationError("InvalidParams", "circle requires n >= 3 and k dividing n", (n, k))
    shift_by = n // k
    rot = tuple((i + shift_by) % n for i in range(n))
    return _permutation_gspace(_circle_space(n), [rot])


def reflection(m: int, h: float) -> SampledGSpace:
    if m < 1 or h <= 0:
        raise ValidationError("InvalidParams", "reflection requires m >= 1 and positive spacing", (m, h))
    n = 2 * m + 1
    neg = tuple(n - 1 - i for i in range(n))
    return _permutation_gspace(_line_space(m, h), [neg])


def dihedral(n: int) -> SampledGSpace:
    if n < 3:
        raise ValidationError("InvalidParams", "dihedral requires n >= 3", n)
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((n - i) % n for i in range(n))
    return _permutation_gspace(_circle_space(n), [rot, flip])


def disk(g: int) -> SampledGSpace:
    if g < 3 or g % 2 == 0:
        raise ValidationError("InvalidParams", "disk requires an odd grid side >= 3", g)
    c = g // 2
    coords = [(r - c, col - c) for r in range(g) for col in range(g)]
    index = {xy: i for i, xy in enumerate(coords)}
    n = g * g
    # d(a, b) depends only on the offset a - b: one math.hypot per offset,
    # read off a (2g - 1)^2 table by the row and column offsets of each pair
    span = range(1 - g, g)
    by_offset = np.array([[math.hypot(dr, dc) for dc in span] for dr in span])
    row, col = np.divmod(np.arange(n), g)
    metric = by_offset[row[:, None] - row + g - 1, col[:, None] - col + g - 1]
    edges = []
    for i, (x, y) in enumerate(coords):
        for dx, dy in ((1, 0), (0, 1)):
            if (x + dx, y + dy) in index:
                edges.append((i, index[(x + dx, y + dy)]))
    labels = [f"({x},{y})" for x, y in coords]
    rot = tuple(index[(-y, x)] for x, y in coords)
    return _permutation_gspace((metric, edges, labels), [rot])


def shift(m: int, h: float, N: int) -> SampledGSpace:
    if m < 1 or h <= 0 or N < 1:
        raise ValidationError("InvalidParams", "shift requires m >= 1, positive spacing, N >= 1", (m, h, N))
    stride = round(1.0 / h)
    if stride < 1 or abs(stride * h - 1.0) > 1e-9:
        raise ValidationError("InvalidParams", "shift requires 1/h to be a positive integer", h)
    n = 2 * m + 1
    if N * stride >= n:
        raise ValidationError("InvalidParams", "largest shift leaves no point in the sample", (m, h, N))
    space = build_space(*_line_space(m, h))

    order = 4 * N + 1
    elems = np.arange(order)
    group = build_group(np.add.outer(elems, elems) % order, generators=[1 % order])
    j = np.where(elems <= 2 * N, elems, elems - order)  # the shift of each element
    images = np.arange(n) + (j * stride)[:, None]
    images[(np.abs(j) > N)[:, None] | (images < 0) | (images >= n)] = -1
    return bind_action_array(space, group, images)


def shift_acceptance_margin(h: float, N: int) -> float:
    """Positions within this distance of the sample boundary are excluded
    from shift-scenario invariance checks: truncation distorts shortest
    paths out to the reach of one maximal shift (N units), measurably —
    the invariance residual drops to exactly zero past this margin and
    stays as large as the group-metric scale inside it."""
    return N * h * round(1.0 / h)


def shift_acceptance_region(m: int, h: float, N: int) -> frozenset:
    """Point indices strictly farther than the acceptance margin from both
    sample boundaries."""
    margin = shift_acceptance_margin(h, N)
    n = 2 * m + 1
    lo, hi = -m * h, m * h
    return frozenset(
        i for i in range(n)
        if (i - m) * h - lo > margin and hi - (i - m) * h > margin
    )


_BUILDERS = {
    "circle": (circle, ("n", "k")),
    "reflection": (reflection, ("m", "h")),
    "dihedral": (dihedral, ("n",)),
    "disk": (disk, ("g",)),
    "shift": (shift, ("m", "h", "N")),
}
_REAL_PARAMS = frozenset({"h"})  # every other parameter is an integer
_FLOAT_MAX = sys.float_info.max


def scenario_names() -> tuple:
    return tuple(sorted(_BUILDERS))


def scenario_params(name: str) -> tuple:
    if name not in _BUILDERS:
        raise ValidationError("InvalidParams", f"unknown scenario {name!r}")
    return _BUILDERS[name][1]


def _check_param(name: str, key: str, value) -> None:
    # bool is an int subclass: a JSON true would otherwise read as 1.
    if key in _REAL_PARAMS:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValidationError("InvalidParams", f"parameter {key!r} of scenario {name!r} must be a number", value)
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # exact: an int past the float range is no float
            raise ValidationError("NonFinite", f"parameter {key!r} of scenario {name!r} must be finite", value)
    elif isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError("InvalidParams", f"parameter {key!r} of scenario {name!r} must be an integer", value)


def generate_scenario(name: str, params: dict) -> SampledGSpace:
    if not isinstance(name, str) or name not in _BUILDERS:
        raise ValidationError("InvalidParams", f"unknown scenario {name!r}")
    if not isinstance(params, dict):
        raise ValidationError("InvalidParams", f"parameters of scenario {name!r} must be an object")
    fn, wanted = _BUILDERS[name]
    extra = sorted(set(params) - set(wanted))
    if extra:
        raise ValidationError("InvalidParams", f"unknown parameter {extra[0]!r} for scenario {name!r}")
    missing = [w for w in wanted if w not in params]
    if missing:
        raise ValidationError("InvalidParams", f"scenario {name!r} requires parameter {missing[0]!r}")
    for w in wanted:
        _check_param(name, w, params[w])
    return fn(**{w: params[w] for w in wanted})

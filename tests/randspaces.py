"""Randomized small symmetric samples for property testing.

Points are disjoint unions of coset spaces of a small cyclic or dihedral
group acting by left multiplication (so the action is a homomorphism by
construction); edges are whole action-orbits of point pairs (so every group
element is a graph automorphism); the base metric is the unit-weight
shortest-path metric of that graph (finite because the graph is made
connected).
"""

import random

import numpy as np

from equimetric import bind_action, build_group, build_space
from equimetric.gspace import bind_action_array
from tests.oracles import floyd_warshall


def cyclic_table(k):
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def dihedral_table(m):
    """Order-2m table: index s*m + r encodes rotation r with/without flip s."""
    def mul(i, j):
        r1, s1 = i % m, i // m
        r2, s2 = j % m, j // m
        r = (r1 + (r2 if s1 == 0 else -r2)) % m
        return ((s1 + s2) % 2) * m + r

    return [[mul(i, j) for j in range(2 * m)] for i in range(2 * m)]


def _subgroups(group, rng):
    return group.subgroups()


def random_gspace(seed: int, max_points: int = 16):
    """Deterministic-in-seed random sampled space with a total group action."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        k = rng.randint(2, 8)
        group = build_group(cyclic_table(k))
    else:
        m = rng.randint(2, 4)
        group = build_group(dihedral_table(m))

    subs = group.subgroups()
    mul = group.mul.tolist()
    blocks = []  # list of lists of cosets (frozensets of elements)
    total = 0
    for _ in range(rng.randint(1, 3)):
        H = list(rng.choice(subs))
        cosets = sorted({frozenset(mul[g][h] for h in H) for g in range(group.order)},
                        key=sorted)
        if total + len(cosets) > max_points:
            continue
        blocks.append(cosets)
        total += len(cosets)
    if not blocks:
        H = list(subs[-1])  # the whole group: a single fixed point
        blocks = [[frozenset(range(group.order))]]
        total = 1

    # flat point indexing and the left-multiplication action
    points = [(b, c) for b, block in enumerate(blocks) for c in range(len(block))]
    index = {pc: i for i, pc in enumerate(points)}
    n = len(points)
    act = []
    for g in range(group.order):
        mapping = {}
        for i, (b, c) in enumerate(points):
            coset = blocks[b][c]
            image = frozenset(mul[g][x] for x in coset)
            mapping[i] = index[(b, blocks[b].index(image))]
        act.append(mapping)

    # invariant edge set: orbits of seed pairs, plus a chain linking blocks
    pair_orbits = set()

    def add_orbit(u, v):
        for g in range(group.order):
            a, b = act[g][u], act[g][v]
            if a != b:
                pair_orbits.add((min(a, b), max(a, b)))

    for b in range(len(blocks) - 1):
        add_orbit(index[(b, 0)], index[(b + 1, 0)])
    for _ in range(rng.randint(1, 4)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            add_orbit(u, v)
    # connect within blocks if a block is still split from the rest
    for b, block in enumerate(blocks):
        if len(block) > 1:
            add_orbit(index[(b, 0)], index[(b, 1)])

    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for u, v in pair_orbits:
        w[u, v] = w[v, u] = 1.0
    metric = floyd_warshall(w)
    if not np.isfinite(metric).all():
        # fall back to the complete graph metric orbit-by-orbit
        for u in range(n):
            for v in range(u + 1, n):
                add_orbit(u, v)
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        for u, v in pair_orbits:
            w[u, v] = w[v, u] = 1.0
        metric = floyd_warshall(w)

    space = build_space(metric, pair_orbits)
    return bind_action(space, group, act)


def symmetric_gspace(seed: int):
    """(G-space, declared rows): random_gspace(seed) bound to a random
    subgroup K of its group, with declared symmetries that ``SampledSpace``
    tests: the point maps of every element of the whole group, which keep
    the metric and the edges but may map a K-orbit across two, a random
    permutation and a row that is not a permutation."""
    full = random_gspace(seed)
    rng = random.Random(-1 - seed)
    group, n = full.group, full.n_points
    elems = np.array(rng.choice(group.subgroups()))
    index = np.full(group.order, -1)
    index[elems] = np.arange(len(elems))
    images = full.action[:, :n]
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    declared = np.vstack([images, shuffled, np.zeros(n, dtype=int)])
    space = build_space(full.space.base_metric, full.space.edges, perms=declared)
    return bind_action_array(space, build_group(index[group.mul[np.ix_(elems, elems)]]), images[elems]), declared

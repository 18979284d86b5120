"""The symmetry-reduced lift and triangle scans against the full ones they
stand in for: ``gspace._orbit_minima``, the orbit-minimum rows of
``lift_metric``, the orbit-row refutation of the metric-axiom scan (base
metric, rho and group tables) and ``SampledGSpace.total_generators``.
Equal means bitwise equal tables, or the same violations, residual and
first error. The symmetric paths are skipped where n^3 cells fit one
``gspace._BLOCK`` block, so the small tables here run them at caps of 1
and 1000 cells (a fill block of one element, and of many)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import equimetric as eq
from equimetric import cli
from equimetric.gspace import _check_metric_table, _metric_axiom_violations, _orbit_minima, bind_action_array
from equimetric.lift import AllowabilityGraph
from equimetric.orbital import _check_left_invariance
from equimetric.spath import apsp
from perfbench.workloads import GRID_CELLS
from tests import oracles
from tests.conftest import pipeline
from tests.test_lift import edge_arrays
from tests.randspaces import cyclic_table, dihedral_table, random_gspace, symmetric_gspace
from tests.test_differential import outcome, without_symmetries


CAPS = (1, 1000)


def generator_maps(gs):
    return gs.action[gs.total_generators, :gs.n_points]


def at_cap(cap, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eq.gspace, "_BLOCK", cap)
        return fn(*args)


def assert_lift_is_the_full_table(graph):
    w = graph.weight_matrix()
    for cap in CAPS + (eq.gspace._BLOCK,):
        assert at_cap(cap, eq.lift_metric, graph).rho.tobytes() == apsp(w).tobytes()
    return w


LIFT_CELLS = sorted({(name, tuple(sorted(params.items())), mode)
                     for name, params, mode in GRID_CELLS if mode in ("general", "cover")})


@pytest.mark.parametrize("name,params,mode", LIFT_CELLS)
def test_lift_equals_the_full_table_on_small_sweep_cells(name, params, mode):
    """Every scenario but shift has a nontrivial total element, and its
    weights are bitwise invariant, so the orbit-minimum rows fill rho."""
    r = pipeline(name, dict(params), mode=mode)
    w = assert_lift_is_the_full_table(r["graph"])
    assert (at_cap(1, _orbit_minima, w, generator_maps(r["gspace"])) is None) == (name == "shift")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), mode=st.sampled_from(["general", "cover"]))
def test_lift_equals_the_full_table_on_random_spaces(seed, mode):
    gs = random_gspace(seed)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_O = eq.build_orbital_metric(gs, quotient, family, eq.group_metric(gs.group, "discrete"))
    assert_lift_is_the_full_table(eq.build_allowability_graph(gs, quotient, family=family, d_O=d_O, mode=mode))


def test_planted_non_invariant_weight_takes_the_full_table_and_fails_invariance():
    r = pipeline("circle", {"n": 12, "k": 3})
    graph = r["graph"]
    weight = graph.weight.copy()
    weight[0] += 0.5
    planted = replace(graph, weight=weight)
    w = assert_lift_is_the_full_table(planted)
    assert at_cap(1, _orbit_minima, w, generator_maps(r["gspace"])) is None
    for cap in CAPS:
        report = at_cap(cap, eq.verify_lifted_metric, r["gspace"], r["quotient"], at_cap(cap, eq.lift_metric, planted))
        assert report["g_invariance"].status == "fail"


@pytest.mark.parametrize("plant", ["orbit", "one"])
def test_lifted_checks_of_a_planted_rho_match_the_scalar_checks(plant):
    """rho of circle(12, 3) with d(0, 6) raised on its whole orbit, which
    keeps it invariant and is found from the orbit-minimum rows, or on the
    one pair, which breaks the invariance and takes the full scan."""
    r = pipeline("circle", {"n": 12, "k": 3})
    gs, quotient = r["gspace"], r["quotient"]
    rho = np.array(r["lifted"].rho)
    pairs = [(0, 6)] if plant == "one" else [(gs.action[g, 0], gs.action[g, 6]) for g in range(gs.group.order)]
    for x, y in pairs:
        rho[x, y] = rho[y, x] = rho[x, y] + 2.0
    lifted = replace(r["lifted"], rho=rho)
    assert (at_cap(1, _orbit_minima, rho, generator_maps(gs)) is None) == (plant == "one")
    want = oracles.verify_lifted_metric(gs, quotient, lifted).lines()
    for cap in CAPS:
        report = at_cap(cap, eq.verify_lifted_metric, gs, quotient, lifted)
        assert report.lines() == want
        assert report["metric_axioms"].status == "fail"


def klein_four():
    """Z2 x Z2 acting regularly on four points, all pairs adjacent: element
    1 = (0 1)(2 3) and element 2 = (0 2)(1 3), the greedy generators."""
    group = eq.build_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    space = eq.build_space(1.0 - np.eye(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    return bind_action_array(space, group, group.mul.copy())


def test_weights_moved_by_the_second_generator_drop_it_alone(monkeypatch):
    """Weights invariant under the first generator but not the second: the
    second is dropped on its own, and the orbits of the first, {0, 1} and
    {2, 3}, fill from the rows of 0 and 2. They must not be filled by the
    second, which would copy row 0 onto row 2."""
    gs = klein_four()
    assert gs.total_generators.tolist() == [1, 2]
    edges = ((0, 1, 1.0, "slice"), (0, 2, 1.5, "slice"), (0, 3, 4.0, "slice"),
             (1, 2, 4.0, "slice"), (1, 3, 1.5, "slice"), (2, 3, 2.0, "slice"))
    graph = AllowabilityGraph(n_points=4, mode="general", **edge_arrays(edges), gspace=gs)
    w = assert_lift_is_the_full_table(graph)
    assert at_cap(1, _orbit_minima, w, generator_maps(gs)[:1]).tolist() == [0, 2]
    assert at_cap(1, _orbit_minima, w, generator_maps(gs)).tolist() == [0, 2]
    assert at_cap(1, _orbit_minima, w, generator_maps(gs)[::-1]).tolist() == [0, 2]
    assert searched_sources(monkeypatch, graph) == [[0, 2]]


def searched_sources(monkeypatch, graph, cap=1):
    """The sources of each apsp call of ``lift_metric`` on the graph, at a
    cap of ``cap`` cells (None for a call that searches every row)."""
    calls = []

    def counted(w, sources=None):
        calls.append(None if sources is None else np.asarray(sources).tolist())
        return apsp(w, sources)

    monkeypatch.setattr(eq.lift, "apsp", counted)
    at_cap(cap, eq.lift_metric, graph)
    return calls


def rotations_with_partial_products():
    """Z5 on a 5-cycle: 1 and 4 rotate it, 2 and 3 are undefined everywhere,
    so the totals 0, 1, 4 have the partial product 1 + 1 = 2."""
    space = eq.build_space(np.minimum(np.abs(np.subtract.outer(np.arange(5), np.arange(5))),
                                      5 - np.abs(np.subtract.outer(np.arange(5), np.arange(5)))).astype(float),
                           [(i, (i + 1) % 5) for i in range(5)])
    images = np.full((5, 5), -1)
    images[0], images[1], images[4] = np.arange(5), (np.arange(5) + 1) % 5, (np.arange(5) - 1) % 5
    return bind_action_array(space, eq.build_group(cyclic_table(5)), images)


def test_totals_with_a_partial_product_give_no_symmetry():
    """Filling from the totals alone would leave the rows of points 2 and 3
    unwritten: no generator is derived, and every row is searched."""
    gs = rotations_with_partial_products()
    assert gs.total.tolist() == [True, True, False, False, True]
    assert gs.total_generators.tolist() == []
    edges = tuple((i, (i + 1) % 5, 1.0, "slice") if i < 4 else (0, 4, 1.0, "slice") for i in range(5))
    assert_lift_is_the_full_table(AllowabilityGraph(n_points=5, mode="general", **edge_arrays(edges), gspace=gs))


@pytest.mark.parametrize("name,params,gens", [
    ("circle", {"n": 12, "k": 3}, 1), ("dihedral", {"n": 8}, 2), ("disk", {"g": 5}, 1),
    ("reflection", {"m": 3, "h": 1.0}, 1), ("shift", {"m": 8, "h": 0.5, "N": 2}, 0),
])
def test_total_generators_generate_the_totals(name, params, gens):
    gs = eq.generate_scenario(name, params)
    group = gs.group
    assert len(gs.total_generators) == gens
    reached = group._closure(group._mask([group.identity, *gs.total_generators.tolist()]))
    assert (reached == gs.total).all()


@pytest.mark.parametrize("mode", ["general", "cover", "naive"])
def test_small_pipeline_never_derives_total_generators(mode):
    """circle(12, 3): n^3 = 1728 cells fit one block, so neither the lift
    nor the lifted-metric checks derive the generators; reading them
    derives them then."""
    gs = cli.run_pipeline(cli.make_config({
        "scenario": {"name": "circle", "params": {"n": 12, "k": 3}}, "mode": mode}))["gspace"]
    assert gs.n_points ** 3 <= eq.gspace._BLOCK
    assert "total_generators" not in vars(gs)
    assert gs.total_generators.tolist() == [1]
    assert "total_generators" in vars(gs)


def circle_table(n=12):
    hops = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.minimum(hops, n - hops).astype(float)


ROT = [(np.arange(12) + 3) % 12]  # order 4: orbits {0, 3, 6, 9}, {1, 4, 7, 10}, {2, 5, 8, 11}


def orbit_wide_violation():
    """d(0, 6) raised on its whole orbit: still invariant, and the
    refutation of the orbit minima hits."""
    t = circle_table()
    for g in range(4):
        a, b = 3 * g % 12, (3 * g + 6) % 12
        t[a, b] = t[b, a] = 7.5
    return t


def signed_zero_swap():
    """Invariant in value but not in bits: d(1, 1) is -0.0 and its images
    0.0."""
    t = circle_table()
    t[1, 1] = -0.0
    return t


def orbit_wide_nan():
    """A NaN on the whole orbit of (0, 5), with the same payload: the
    table is bitwise invariant, and the scan's NaN rule decides."""
    t = circle_table()
    for g in range(4):
        a, b = 3 * g % 12, (3 * g + 5) % 12
        t[a, b] = t[b, a] = np.nan
    return t


def single_nan():
    t = orbit_wide_violation()
    t[2, 7] = np.nan
    return t


NOT_A_PERMUTATION = [np.r_[0, np.arange(11)]]  # 0 twice, 11 never
SCAN_CASES = {
    "orbit_wide_violation": (orbit_wide_violation(), ROT, [0, 1, 2]),
    "signed_zero": (signed_zero_swap(), ROT, None),
    "orbit_wide_nan": (orbit_wide_nan(), ROT, [0, 1, 2]),
    "single_nan": (single_nan(), ROT, None),
    "not_a_permutation": (orbit_wide_violation(), NOT_A_PERMUTATION, None),
    "out_of_range": (orbit_wide_violation(), [np.r_[np.arange(11), 12]], None),
    "clean": (circle_table(), ROT, [0, 1, 2]),
}


@pytest.mark.parametrize("cap", [1, 100, 1000])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_orbit_row_scan_matches_the_full_scan(case, cap, monkeypatch):
    monkeypatch.setattr(eq.gspace, "_BLOCK", cap)
    t, perms, minima = SCAN_CASES[case]
    rows = _orbit_minima(t, perms)
    assert (None if rows is None else rows.tolist()) == minima
    got = _metric_axiom_violations(t, 1e-9, rows)
    assert got == _metric_axiom_violations(t, 1e-9) == oracles.metric_axiom_violations(t, 1e-9)
    assert any(w[0] == "triangle" for w in got[0]) == (case not in ("clean", "orbit_wide_nan", "signed_zero"))
    if np.isfinite(t).all():
        assert outcome(_check_metric_table, t, 1e-9, rows) == outcome(oracles.raise_first_axiom_violation, t, 1e-9)


def test_a_table_that_fits_one_block_takes_the_full_scan():
    """12^3 cells fit the default cap: no test is made, and no orbit rows."""
    assert 12 ** 3 <= eq.gspace._BLOCK
    assert _orbit_minima(orbit_wide_violation(), ROT) is None


def test_non_invariant_table_leaves_the_orbit_rows_unused(monkeypatch):
    """A triangle violation in row 4 alone: the orbit minima 0, 1, 2 would
    miss it, so a table it breaks the symmetry of takes the full scan."""
    monkeypatch.setattr(eq.gspace, "_BLOCK", 1)
    t = circle_table()
    t[4, 8] = t[8, 4] = 9.0
    assert _orbit_minima(t, ROT) is None
    v, _ = _metric_axiom_violations(t, 1e-9, _orbit_minima(t, ROT))
    assert {w[1] for w in v if w[0] == "triangle"} == {4, 8}


@pytest.mark.parametrize("name,params", [("circle", {"n": 12, "k": 3}), ("disk", {"g": 5}),
                                         ("reflection", {"m": 3, "h": 1.0}), ("dihedral", {"n": 6})])
def test_planted_base_metric_reports_its_first_error(name, params, monkeypatch):
    """A scenario's base table broken on a whole orbit, and on one entry:
    build_space with the scenario's generators raises what it raises
    without them."""
    gs = eq.generate_scenario(name, params)
    monkeypatch.setattr(eq.gspace, "_BLOCK", 1)
    perms = generator_maps(gs)
    t = np.array(gs.space.base_metric)
    x, y = 0, gs.n_points - 1
    orbit = np.zeros(t.shape, dtype=bool)
    orbit[gs.action[:, x], gs.action[:, y]] = orbit[gs.action[:, y], gs.action[:, x]] = True
    t[orbit] *= 10.0
    assert _orbit_minima(t, perms) is not None
    one = np.array(gs.space.base_metric)
    one[x, y] = one[y, x] = one[x, y] * 10.0
    for table in (t, one):
        error = outcome(eq.build_space, table, [], None, 1e-9)
        assert error is not None and error[0] == "NotAMetric"
        assert outcome(eq.build_space, table, [], None, 1e-9, perms) == error


def group_table(group, f):
    return np.asarray(f, dtype=float)[group.mul[group.inv]]


def raise_as_scalar(group, t, tol):
    oracles.raise_first_axiom_violation(t, tol)
    oracles.check_left_invariance(group, t)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_metric_scan_matches_the_full_scan(data):
    """d(g, h) = f(g^-1 h) for a random f, which need not be subadditive,
    with up to two entries changed: left invariant tables refute the
    identity row alone, the others scan every row; each raises the first
    error of the scalar scans, metric axioms before left invariance."""
    if data.draw(st.booleans()):
        group = eq.build_group(cyclic_table(data.draw(st.integers(1, 8))))
    else:
        group = eq.build_group(dihedral_table(data.draw(st.integers(2, 4))))
    n = group.order
    f = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.5]), min_size=n, max_size=n))
    f[group.identity] = data.draw(st.sampled_from([0.0, -0.0]))
    t = group_table(group, f)
    for _ in range(data.draw(st.integers(0, 2))):
        g, h = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        t[g, h] = data.draw(st.sampled_from([t[g, h] + 0.25, -0.0 if t[g, h] == 0 else t[g, h] * 4]))
    tol = data.draw(st.sampled_from([0.0, 1e-9]))
    got = outcome(eq.group_metric, group, "explicit", 1.0, None, t, tol)
    assert got == outcome(raise_as_scalar, group, t, tol)
    if got is None:
        assert outcome(_check_left_invariance, group, t) is None


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("plant", [None, "triangle", "late", "pair"])
def test_group_metric_scan_matches_the_full_scan_at_dihedral_sizes(n, plant):
    """The groups of dihedral(32) and dihedral(64): a word-length table, one
    whose f breaks the triangle inequality on every row, one with an entry
    near the end raised, and one with a far pair raised on both sides, which
    breaks the triangle inequality in its two rows only, neither of them
    the identity's, and left invariance."""
    group = eq.generate_scenario("dihedral", {"n": n}).group
    gens = sorted({*group.generators, *group.inv[list(group.generators)].tolist()})
    f = eq.group_metric(group, "word", generators=gens).table[group.identity].copy()
    if plant == "triangle":
        f[f == f.max()] *= 3.0
    t = group_table(group, f)
    if plant == "late":
        t[group.order - 1, group.order - 2] += 0.25
    if plant == "pair":
        g = group.order - 1
        h = int(np.argmax(t[g]))
        t[g, h] = t[h, g] = t[g, h] + 0.25
    got = outcome(eq.group_metric, group, "explicit", 1.0, None, t, 1e-9)
    assert got == outcome(raise_as_scalar, group, t, 1e-9)
    assert (got is None) == (plant is None)
    if plant == "pair":
        assert got[1].startswith("NotAMetric: triangle") and group.identity not in got[2][:2]


# Declared sample symmetries: the scenarios' isometries beyond G, kept by
# SampledSpace after their bitwise test, then used by the cover centres,
# the lift and the lifted-metric scan, each after its own test.

def assert_cover_and_lift_are_full(gs, quotient, factor=1.0):
    """cover_small_sets at caps of 1 and the default equals the reference;
    the cover lift equals the full table, and its checks the scalar ones."""
    want = oracles.cover_small_sets(gs, quotient, factor)
    for cap in (1, eq.gspace._BLOCK):
        assert at_cap(cap, eq.cover_small_sets, gs, quotient, factor) == want
    graph = eq.build_allowability_graph(gs, quotient, mode="cover", enlargement_factor=factor)
    assert graph.small_sets == want
    assert_lift_is_the_full_table(graph)
    lifted = eq.lift_metric(graph)
    lines = oracles.verify_lifted_metric(gs, quotient, lifted).lines()
    for cap in (1, eq.gspace._BLOCK):
        assert at_cap(cap, eq.verify_lifted_metric, gs, quotient, lifted).lines() == lines


def centre_roots(gs, quotient):
    return eq.lift._centre_roots(gs, quotient).tolist()


def cycle_edges(n):
    return np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)


def rotation_and_flip(n):
    i = np.arange(n)
    return [(i + 1) % n, (n - i) % n]


def trivial_action(space):
    return bind_action_array(space, eq.build_group([[0]]), np.arange(space.n_points)[None])


def one_weight_changed():
    """circle_table(12) with d(0, 6) lowered to 5.5 under the trivial group,
    its quotient the base metric: the flip keeps (0, 6) and is kept, the
    rotation moves it and is dropped, on its own."""
    t = circle_table()
    t[0, 6] = t[6, 0] = 5.5
    gs = trivial_action(eq.build_space(t, cycle_edges(12), perms=rotation_and_flip(12)))
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs), mode="isometric"), rotation_and_flip(12)[1:]


def edges_not_kept():
    """The discrete metric on 12 points with the cycle as edges, under the
    rotation by 4: the transposition (0 2) keeps the metric but not the
    edges, and the last row is no permutation; the rotation by one is kept."""
    swap = np.arange(12)
    swap[[0, 2]] = [2, 0]
    declared = [swap, (np.arange(12) + 1) % 12, np.r_[0, np.arange(11)]]
    space = eq.build_space(1.0 - np.eye(12), cycle_edges(12), perms=declared)
    gs = bind_action_array(space, eq.build_group(cyclic_table(3)), (np.arange(12) + 4 * np.arange(3)[:, None]) % 12)
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs)), declared[1:2]


def not_a_permutation():
    """circle(12, 3)'s space with a row that repeats 0 declared first."""
    declared = [np.r_[0, np.arange(11)], *rotation_and_flip(12)]
    space = eq.build_space(circle_table(), cycle_edges(12), perms=declared)
    gs = bind_action_array(space, eq.build_group(cyclic_table(3)), (np.arange(12) + 4 * np.arange(3)[:, None]) % 12)
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs)), declared[1:]


def explicit_quotient_breaks_the_rotation():
    """circle(12, 3) with an explicit quotient table: its graph metric with
    d(1, 3) lowered from 2 steps to 1.5. The flip's induced permutation
    (1 3) keeps it, the rotation's 4-cycle does not."""
    gs = eq.generate_scenario("circle", {"n": 12, "k": 3})
    table = np.array(eq.quotient_metric(gs, eq.compute_orbits(gs)).d)
    table[1, 3] = table[3, 1] = 0.75 * table[1, 3]
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs), mode="explicit", table=table), rotation_and_flip(12)


def orbit_across_two():
    """K4 with the discrete metric under (0 1): the orbits {0, 1}, {2}, {3}.
    The symmetry (0 2) is kept by SampledSpace, and the permutation of the
    orbits read off their least points swaps {0, 1} and {2}, keeping d and
    the adjacency, but it maps {0, 1} onto {2, 1}, across two orbits. The
    centres {0, 1} and {2} accept different radii."""
    space = eq.build_space(1.0 - np.eye(4), [(a, b) for a in range(4) for b in range(a + 1, 4)],
                           perms=[[2, 1, 0, 3]])
    gs = bind_action_array(space, eq.build_group(cyclic_table(2)), [[0, 1, 2, 3], [1, 0, 2, 3]])
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs)), [[2, 1, 0, 3]]


SYMMETRY_CASES = {
    "one_weight_changed": (one_weight_changed, [0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]),
    "edges_not_kept": (edges_not_kept, [0, 0, 0, 0]),
    "not_a_permutation": (not_a_permutation, [0, 0, 0, 0]),
    "explicit_quotient_breaks_the_rotation": (explicit_quotient_breaks_the_rotation, [0, 1, 2, 1]),
    "orbit_across_two": (orbit_across_two, [0, 1, 2]),
}


@pytest.mark.parametrize("case", sorted(SYMMETRY_CASES))
def test_declared_symmetries_are_tested_and_give_the_full_results(case):
    """Each case keeps exactly the declared rows that pass the scalar test
    of the metric and the edges, merges the centres the permutations kept
    by the cover's own tests join, and gives the reference's small sets
    and the full lift at caps of 1 and the default."""
    build, roots = SYMMETRY_CASES[case]
    gs, quotient, kept = build()
    assert gs.space.symmetries.tolist() == [list(map(int, p)) for p in kept]
    assert centre_roots(gs, quotient) == roots
    assert_cover_and_lift_are_full(gs, quotient)


def test_symmetries_are_kept_by_the_scalar_test():
    """SampledSpace.symmetries keeps exactly what the scalar loops keep, in
    order."""
    for build, _ in SYMMETRY_CASES.values():
        gs = build()[0]
        declared = [*gs.space.symmetries, np.r_[1, 0, np.arange(2, gs.n_points)], np.arange(gs.n_points)[::-1]]
        space = eq.build_space(gs.space.base_metric, gs.space.edges, perms=declared)
        assert space.symmetries.tolist() == oracles.kept_symmetries(gs.space.base_metric, gs.space.edges.tolist(),
                                                                     declared)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), factor=st.sampled_from([1.0, 1.5]))
def test_declared_symmetries_give_the_full_results_on_random_spaces(seed, factor):
    """A random space bound to a random subgroup of its group, its whole
    group, a random permutation and a broken row declared: the kept rows
    are the scalar test's, the cover sets the reference's, the lifts (cover
    and general) the full tables."""
    gs, declared = symmetric_gspace(seed)
    assert gs.space.symmetries.tolist() == oracles.kept_symmetries(gs.space.base_metric, gs.space.edges.tolist(),
                                                                   declared)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    assert_cover_and_lift_are_full(gs, quotient, factor)
    family = eq.build_slice_family(gs, quotient)
    d_O = eq.build_orbital_metric(gs, quotient, family, eq.group_metric(gs.group, "discrete"))
    assert_lift_is_the_full_table(eq.build_allowability_graph(gs, quotient, family=family, d_O=d_O))


def test_a_symmetry_that_splits_an_orbit_is_not_used_by_the_lift(monkeypatch):
    """K5 with unit weights under (0 1)(2 3): orbits A = {0, 1}, B = {2, 3},
    C = {4}. (0 3)(1 2) swaps A and B and is used; (2 4) keeps the weights
    but maps B across B and C, so the rows of A and C are searched."""
    space = eq.build_space(1.0 - np.eye(5), [(a, b) for a in range(5) for b in range(a + 1, 5)],
                           perms=[[3, 2, 1, 0, 4], [0, 1, 4, 3, 2]])
    assert len(space.symmetries) == 2
    gs = bind_action_array(space, eq.build_group(cyclic_table(2)), [[0, 1, 2, 3, 4], [1, 0, 3, 2, 4]])
    edges = tuple((a, b, 1.0, "cover") for a in range(5) for b in range(a + 1, 5))
    graph = AllowabilityGraph(n_points=5, mode="cover", **edge_arrays(edges), gspace=gs)
    assert_lift_is_the_full_table(graph)
    assert searched_sources(monkeypatch, graph) == [[0, 4]]


SCENARIO_SYMMETRIES = [("circle", {"n": 12, "k": 3}), ("circle", {"n": 80, "k": 4}), ("dihedral", {"n": 8}),
                       ("disk", {"g": 5}), ("disk", {"g": 7}), ("reflection", {"m": 3, "h": 1.0}),
                       ("shift", {"m": 8, "h": 0.5, "N": 2})]


def declared_symmetries(name, params):
    """The scenario's isometries as its docstring states them, by their
    formulas on coordinates."""
    if name in ("circle", "dihedral"):
        return [list(map(int, p)) for p in rotation_and_flip(params["n"])]
    if name == "reflection":
        return [list(range(2 * params["m"], -1, -1))]
    if name == "disk":
        g = params["g"]
        c = g // 2
        at = {(r - c, q - c): r * g + q for r in range(g) for q in range(g)}
        return [[at[(-y, x)] for x, y in at], [at[(y, x)] for x, y in at]]
    return []


@pytest.mark.parametrize("name,params", SCENARIO_SYMMETRIES)
def test_scenarios_declare_their_symmetries(name, params):
    """circle and dihedral: the rotation by one and the flip; disk: its
    rotation and the grid transpose; reflection: its negation; shift:
    none. All of them are kept."""
    gs = eq.generate_scenario(name, params)
    assert gs.space.symmetries.tolist() == declared_symmetries(name, params)
    assert not gs.space.symmetries.flags.writeable


def sweeps(monkeypatch, gs):
    """The number of ``lift._sweep`` calls of gs's cover small sets, and
    whether they equal those with no symmetry declared."""
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    calls = []
    sweep = eq.lift._sweep
    monkeypatch.setattr(eq.lift, "_sweep", lambda *args: calls.append(1) or sweep(*args))
    sets = eq.cover_small_sets(gs, quotient)
    count = len(calls)
    return count, sets == eq.cover_small_sets(without_symmetries(gs), quotient)


def test_circle_cover_runs_one_centre_and_searches_one_row(monkeypatch):
    """circle(80, 4) cover: the rotation by one joins its 20 centres, so
    one sweep runs, against 20 with no symmetry declared, and rho and its
    scan start from the one row of point 0."""
    gs = eq.generate_scenario("circle", {"n": 80, "k": 4})
    assert sweeps(monkeypatch, gs) == (1, True)
    assert sweeps(monkeypatch, without_symmetries(gs)) == (20, True)
    r = pipeline("circle", {"n": 80, "k": 4}, mode="cover")
    assert searched_sources(monkeypatch, r["graph"], eq.gspace._BLOCK) == [[0]]
    assert eq.gspace._symmetry_minima(r["gspace"], r["lifted"].rho).tolist() == [0]


def test_disk_cover_runs_one_centre_per_induced_orbit(monkeypatch):
    """disk(7) cover: the transpose joins the 13 rotation orbits into the
    10 orbits of the square's symmetry group, one sweep each."""
    g, c = 7, 3
    points = {(r - c, q - c) for r in range(g) for q in range(g)}
    orbits = {frozenset({(x, y), (-y, x), (-x, -y), (y, -x), (y, x), (-x, y), (-y, -x), (x, -y)})
              for x, y in points}
    assert len(orbits) == 10
    assert sweeps(monkeypatch, eq.generate_scenario("disk", {"g": 7})) == (len(orbits), True)

"""Differential tests: the row-vectorised checks, the ball-prefix index, the
slice builder and verifier, the cover small sets and the orbital stage
against the references in tests/oracles.py, and the join keys against
graph_components. Equal means the same error code, message and witness, the
same violation list, residual and report lines, or the same slice family and
construction log."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import equimetric as eq
from equimetric import lift, orbital
from equimetric.errors import ValidationError
from equimetric.gspace import SampledGSpace, _check_metric_table, graph_components
from equimetric.orbital import _check_left_invariance
from equimetric.scenarios import shift_acceptance_region
from equimetric.slices import _join_orders, value_grid
from equimetric.verify import _inclusion_grid, _metric_axiom_violations
from tests import oracles
from perfbench.workloads import GRID_CELLS
from tests.conftest import pipeline
from tests.randspaces import cyclic_table, dihedral_table, random_gspace

PLANTS = ("negative", "negative_one_side", "asymmetric", "zero", "triangle", "inf", "nan", "within_tol")
TOLS = st.sampled_from([0.0, 1e-9, 1e-3])
# (0.7 + 0.69) + 1e-9 rounds above 0.7 + (0.69 + 1e-9), so the order of the
# additions decides whether this triangle holds at tol = 1e-9
ROUNDING = np.array([[0.0, 0.7, 1.390000001], [0.7, 0.0, 0.69], [1.390000001, 0.69, 0.0]])
# negative and asymmetric at the same first entry: the scalar scan names "negative"
NEGATIVE_AND_ASYMMETRIC = np.array([[0.0, -2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def outcome(fn, *args):
    try:
        fn(*args)
    except ValidationError as exc:
        return exc.code, str(exc), exc.witness
    return None


@st.composite
def planted_tables(draw):
    """A line metric (points may coincide) with up to three planted defects."""
    n = draw(st.integers(min_value=1, max_value=7))
    pos = draw(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                        min_size=n, max_size=n))
    t = np.abs(np.subtract.outer(pos, pos))
    plants = draw(st.lists(
        st.tuples(st.sampled_from(PLANTS), st.integers(0, n - 1), st.integers(0, n - 1),
                  st.floats(min_value=0, max_value=30, allow_nan=False)),
        max_size=3,
    ))
    for kind, i, j, val in plants:
        if kind == "negative":
            t[i, j] = t[j, i] = -val - 1.0
        elif kind == "negative_one_side":
            t[i, j] = -val - 1.0
        elif kind == "asymmetric":
            t[i, j] += val + 1.0
        elif kind == "zero":
            t[i, j] = t[j, i] = 0.0
        elif kind == "triangle":
            t[i, j] = t[j, i] = t[i, j] + val + 1.0
        elif kind == "inf":
            t[i, j] = np.inf
        elif kind == "nan":
            t[i, j] = np.nan
        else:
            t[i, j] += 1e-10
    return t


@settings(max_examples=300, deadline=None)
@given(t=planted_tables(), tol=TOLS)
@example(t=ROUNDING, tol=1e-9)
@example(t=NEGATIVE_AND_ASYMMETRIC, tol=1e-9)
def test_check_metric_table_matches_scalar(t, tol):
    got = outcome(_check_metric_table, t, tol)
    if np.isfinite(t).all():
        assert got == outcome(oracles.check_metric_table, t, tol)
    else:
        first = tuple(np.argwhere(~np.isfinite(t))[0].tolist())
        assert got == ("NonFinite", f"NonFinite: non-finite distance (witness: {first})", first)


@settings(max_examples=300, deadline=None)
@given(t=planted_tables(), tol=TOLS)
@example(t=ROUNDING, tol=1e-9)
@example(t=NEGATIVE_AND_ASYMMETRIC, tol=1e-9)
def test_metric_axiom_violations_match_scalar(t, tol):
    v, resid = _metric_axiom_violations(t, tol)
    ref_v, ref_resid = oracles.metric_axiom_violations(t, tol)
    assert v == ref_v
    assert resid == ref_resid
    assert [type(x) for w in v for x in w[1:]] == [int for w in v for x in w[1:]]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_left_invariance_matches_scalar(data):
    if data.draw(st.booleans()):
        group = eq.build_group(cyclic_table(data.draw(st.integers(1, 8))))
    else:
        group = eq.build_group(dihedral_table(data.draw(st.integers(2, 4))))
    n = group.order
    # d(g, h) = f(g^-1 h) is left invariant by construction
    f = data.draw(st.lists(st.floats(min_value=0.5, max_value=5, allow_nan=False),
                           min_size=n, max_size=n))
    f[group.identity] = 0.0
    t = np.array([[f[group.mul[group.inv[g]][h]] for h in range(n)] for g in range(n)])
    for _ in range(data.draw(st.integers(0, 2))):
        g, h = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        t[g, h] = data.draw(st.sampled_from([t[g, h] + 0.25, np.nan, np.inf]))
    assert outcome(_check_left_invariance, group, t) == \
        outcome(oracles.check_left_invariance, group, t)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("plant", [None, "late", "nan"])
def test_left_invariance_matches_scalar_at_dihedral_group_sizes(n, plant):
    """The groups of dihedral(32) and dihedral(64), |G| = 64 and 128, with
    d(g, h) = f(g^-1 h) and one entry near the end of the table raised or
    made nan: the same code, message and witness as the scalar scan."""
    group = eq.generate_scenario("dihedral", {"n": n}).group
    order = group.order
    f = 1.0 + np.arange(order) % 7 / 8.0
    f[group.identity] = 0.0
    t = f[np.asarray(group.mul)[np.asarray(group.inv)]]
    if plant == "late":
        t[order - 1, order - 2] += 0.25
    elif plant == "nan":
        t[order - 2, order - 1] = np.nan
    got = outcome(_check_left_invariance, group, t)
    assert got == outcome(oracles.check_left_invariance, group, t)
    assert (got is None) == (plant is None)


def _region(name, params):
    if name != "shift":
        return None
    return shift_acceptance_region(params["m"], params["h"], params["N"])


def assert_lifted_checks_match(r, region=None):
    gs, quotient, lifted = r["gspace"], r["quotient"], r["lifted"]
    assert eq.verify_lifted_metric(gs, quotient, lifted, region=region).lines() == \
        oracles.verify_lifted_metric(gs, quotient, lifted, region=region).lines()
    assert _metric_axiom_violations(lifted.rho, 1e-9) == \
        oracles.metric_axiom_violations(lifted.rho, 1e-9)


def assert_pushforward_matches(r):
    gs, quotient, lifted = r["gspace"], r["quotient"], r["lifted"]
    assert eq.quotient_consistency(gs, quotient, lifted).lines() == \
        oracles.quotient_consistency(gs, quotient, lifted).lines()


def assert_ball_inclusions_match(r):
    args = (r["gspace"], r["quotient"], r["family"], r["d_G"], r["d_O"], r["lifted"])
    grid = _inclusion_grid(r["quotient"], r["d_G"], r["d_O"], r["lifted"])
    ref = oracles.inclusion_grid(r["quotient"], r["d_G"], r["d_O"], r["lifted"])
    assert grid.tobytes() == np.array(ref).tobytes()
    assert eq.verify_ball_inclusions(*args).lines() == \
        oracles.verify_ball_inclusions(*args).lines()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.30000000000000004, 1.0, np.inf, -np.inf, np.nan]),
    st.floats(min_value=-1.0, max_value=1e3, allow_nan=False)), max_size=30))
def test_value_grid_matches_set_reference_bitwise(values):
    got = value_grid(np.array(values, dtype=np.float64))
    ref = oracles.value_grid(values)
    assert np.array(got, dtype=np.float64).tobytes() == np.array(ref, dtype=np.float64).tobytes()
    assert all(type(v) is float for v in got)


SCENARIOS = {
    "circle": {"n": 12, "k": 3},
    "dihedral": {"n": 6},
    "disk": {"g": 5},
    "reflection": {"m": 3, "h": 1.0},
    "shift": {"m": 8, "h": 0.5, "N": 2},
}


def test_every_scenario_is_covered():
    assert tuple(sorted(SCENARIOS)) == eq.scenario_names()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", ["general", "cover"])
def test_builtin_scenarios_match_scalar(name, mode):
    params = SCENARIOS[name]
    r = pipeline(name, params, mode=mode)
    gs, quotient = r["gspace"], r["quotient"]
    for table in (gs.space.base_metric, quotient.d, r["d_G"].table):
        assert outcome(_check_metric_table, table, 1e-9) is None
        assert outcome(oracles.check_metric_table, table, 1e-9) is None
    assert outcome(_check_left_invariance, gs.group, r["d_G"].table) is None
    assert_lifted_checks_match(r, _region(name, params))
    assert_lifted_checks_match(r)
    assert_ball_inclusions_match(r)
    assert_pushforward_matches(r)


@pytest.mark.parametrize("plant,failing", [
    ("diagonal", ["motion_inside_rho_ball"]),
    ("orbit_zero", ["rho_ball_inside_motion"]),
    ("gap", []),
    ("below_quotient", []),
    ("asymmetric", []),
])
def test_planted_lift_defects_match_scalar(plant, failing):
    """Defects on circle(12, 3), two of which make an inclusion search fail
    and so scan the whole grid."""
    r = pipeline("circle", {"n": 12, "k": 3}, mode="general")
    rho = np.array(r["lifted"].rho)
    if plant == "diagonal":
        rho[0, 0] = 0.3  # x outside its own small rho-balls
    elif plant == "orbit_zero":
        rho[0, 4] = rho[4, 0] = 0.0  # orbit mate in every rho-ball of 0
    elif plant == "gap":
        rho[2, 3] = rho[3, 2] = np.inf
    elif plant == "asymmetric":
        rho[0, 1] = 0.2  # the pushforward reads rho[x, y] with p(x) < p(y)
    else:  # one pair below d(p(x), p(y)) within tol, one beyond it
        d = r["quotient"].d
        rho[0, 1] = rho[1, 0] = d[0, 1] - 5e-10
        rho[0, 2] = rho[2, 0] = d[0, 2] - 0.1
    r["lifted"] = replace(r["lifted"], rho=rho)
    assert_lifted_checks_match(r)
    assert_ball_inclusions_match(r)
    assert_pushforward_matches(r)
    report = eq.verify_ball_inclusions(r["gspace"], r["quotient"], r["family"],
                                       r["d_G"], r["d_O"], r["lifted"])
    assert [c.name for c in report.checks if c.status == "fail"] == failing
    if plant == "below_quotient":
        check = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])["lower_bound_quotient"]
        assert (check.status, check.witnesses) == ("fail", [(0, 2)])


def test_all_infinite_lift_matches_scalar():
    """reflection(2, 1) in cover mode at factor 1000 has no finite
    off-diagonal distance: every lifted line is advisory but the lift's."""
    r = pipeline("reflection", {"m": 2, "h": 1.0}, mode="cover", enlargement=1000.0)
    assert not np.isfinite(r["lifted"].rho[np.triu_indices(r["gspace"].n_points, 1)]).any()
    assert_lifted_checks_match(r)
    assert_pushforward_matches(r)


def test_planted_nearest_neighbours_match_scalar():
    """circle(12, 3), whose orbits are i mod 4: 5 and 7 tie as the nearest
    points of 0, neither adjacent nor an orbit mate, so the witness names
    the first; 2, adjacent to 3, lies within tol of 3's nearest point 8, so
    3 has no witness."""
    r = pipeline("circle", {"n": 12, "k": 3}, mode="general")
    rho = np.array(r["lifted"].rho)
    rho[0, 5] = rho[5, 0] = rho[0, 7] = rho[7, 0] = 0.1
    rho[3, 8] = rho[8, 3] = 0.2
    rho[2, 3] = rho[3, 2] = 0.2 + 5e-10
    r["lifted"] = replace(r["lifted"], rho=rho)
    assert_lifted_checks_match(r)
    report = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])
    assert report["nearest_neighbor_compatibility"].witnesses == [(0, 5), (5, 0), (7, 0), (8, 3)]


def test_nan_isometry_gaps_stay_out_as_in_scalar():
    """circle(12, 3) in cover mode with d(p(0), p(1)) = inf: rho(0, 1) = inf
    makes a NaN gap, left out of the residual and the witnesses, while
    rho(0, 2) = inf makes an inf gap, kept in both."""
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    d = np.array(r["quotient"].d)
    d[0, 1] = d[1, 0] = np.inf
    rho = np.array(r["lifted"].rho)
    rho[0, 1] = rho[1, 0] = rho[0, 2] = rho[2, 0] = np.inf
    r["quotient"] = replace(r["quotient"], d=d)
    r["lifted"] = replace(r["lifted"], rho=rho)
    assert_lifted_checks_match(r)
    check = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])["cover_local_isometry"]
    assert check.line() == "cover_local_isometry\tfail\tinf\t(0, 2);(4, 5);(4, 5);(8, 9);(8, 9)"


def test_reverse_inclusion_answered_in_a_later_round():
    """circle(12, 3) with rho(0, 1) = 0: 1 lies in the smallest rho-ball of
    0 but not in S_0(r_0) = {0}, so every column of the reverse search is
    open after the first round and closes at the next run of quotient
    prefixes, r_1 = 0.7618, where S_0 has grown to {11, 0, 1}."""
    r = pipeline("circle", {"n": 12, "k": 3}, mode="general")
    rho = np.array(r["lifted"].rho)
    rho[0, 1] = rho[1, 0] = 0.0
    r["lifted"] = replace(r["lifted"], rho=rho)
    assert_ball_inclusions_match(r)
    report = eq.verify_ball_inclusions(r["gspace"], r["quotient"], r["family"],
                                       r["d_G"], r["d_O"], r["lifted"])
    check = report["rho_ball_inside_motion"]
    assert check.status == "pass"
    assert [w[2] for w in check.witnesses] == [0.7617993877991494] * 3


def test_planted_lift_defect_matches_scalar_on_a_partial_shift():
    """shift(8, .5, 2) with rho(1, 16) = 0: 16 lies in every rho-ball of 1
    but in no motion set of 1 (its slice is {1}, its translates are odd), so
    the search fails at every delta. From delta = 2 on, the group ball holds
    the shifts undefined at 1; their image -1, read as an index, would name
    the last point, 16."""
    r = pipeline("shift", {"m": 8, "h": 0.5, "N": 2}, mode="general")
    rho = np.array(r["lifted"].rho)
    rho[1, 16] = rho[16, 1] = 0.0
    r["lifted"] = replace(r["lifted"], rho=rho)
    assert_ball_inclusions_match(r)
    report = eq.verify_ball_inclusions(r["gspace"], r["quotient"], r["family"],
                                       r["d_G"], r["d_O"], r["lifted"])
    assert report["rho_ball_inside_motion"].witnesses[:4] == [(1, 0.5), (1, 0.75), (1, 1.0), (1, 2.0)]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_spaces_match_scalar(seed):
    gs = random_gspace(seed)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_G = eq.group_metric(gs.group, "discrete", scale=1.0)
    d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
    for mode in ("general", "cover"):
        graph = eq.build_allowability_graph(gs, quotient, family=family, d_O=d_O, mode=mode)
        r = {"gspace": gs, "quotient": quotient, "family": family,
             "d_G": d_G, "d_O": d_O, "lifted": eq.lift_metric(graph)}
        assert_lifted_checks_match(r)
        assert_ball_inclusions_match(r)
        assert_pushforward_matches(r)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_planted_rho_defects_match_scalar_on_random_spaces(seed, data):
    """A few symmetric pairs of rho set to 0, to inf, or below d(p(x), p(y)):
    the inclusion searches then probe past j = 0 and resolve columns in later
    rounds, and the lifted and pushforward checks meet failing pairs."""
    gs = random_gspace(seed, max_points=10)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_G = eq.group_metric(gs.group, "discrete", scale=1.0)
    d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
    mode = data.draw(st.sampled_from(["general", "cover"]))
    lifted = eq.lift_metric(eq.build_allowability_graph(gs, quotient, family=family, d_O=d_O, mode=mode))
    rho = np.array(lifted.rho)
    n = gs.n_points
    for _ in range(data.draw(st.integers(1, 3))):
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        below = quotient.d[quotient.orbit_of[x], quotient.orbit_of[y]] - data.draw(
            st.sampled_from([5e-10, 0.25, 1.0]))
        rho[x, y] = rho[y, x] = data.draw(st.sampled_from([0.0, np.inf, below]))
    r = {"gspace": gs, "quotient": quotient, "family": family,
         "d_G": d_G, "d_O": d_O, "lifted": replace(lifted, rho=rho)}
    assert_lifted_checks_match(r)
    assert_ball_inclusions_match(r)
    assert_pushforward_matches(r)


def assert_same_family(gs, shrink_factor=1.0):
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient, shrink_factor)
    ref = oracles.build_slice_family(gs, quotient, shrink_factor)
    assert family.slice_of == ref.slice_of
    assert family.radius_of_orbit == ref.radius_of_orbit
    assert family.construction_log == ref.construction_log
    assert family.degenerate == ref.degenerate
    return family


@pytest.mark.parametrize("name,params,shrink_factor,condition,shrinks", [
    ("circle", {"n": 80, "k": 4}, 1.0, "family_condition_ii", 166),
    ("disk", {"g": 7}, 1.0, "family_condition_ii", 8),
    ("disk", {"g": 7}, 2.0, "family_condition_ii", 5),
    # a partial shift undefined at x can still move part of S_x into S_x
    ("shift", {"m": 2, "h": 0.25, "N": 1}, 1.0, "translate_overlap", 3),
    # a two-point orbit rejects every radius at which S_x still reaches -x
    ("reflection", {"m": 25, "h": 1.0}, 1.0, "slice_meets_orbit", 313),
])
def test_slice_builder_matches_reference_through_shrinks(name, params, shrink_factor, condition, shrinks):
    family = assert_same_family(eq.generate_scenario(name, params), shrink_factor)
    conditions = [dict(rec)["condition"] for rec in family.construction_log]
    assert conditions.count(condition) == shrinks


SWEEP_CELLS = sorted({(name, tuple(sorted(params.items()))) for name, params, _ in GRID_CELLS})


@pytest.mark.parametrize("name,params", SWEEP_CELLS)
def test_slice_builder_matches_reference_on_small_sweep_cells(name, params):
    assert_same_family(eq.generate_scenario(name, dict(params)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_slice_builder_matches_reference_on_random_spaces(seed):
    assert_same_family(random_gspace(seed))


# The join keys, the slice verifier and the cover small sets against
# graph_components and the edge-set scans kept in tests/oracles.py.


@st.composite
def keyed_graphs(draw):
    """A random graph with keys drawn from few values, so that ties occur."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    key = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n))
    sources = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    return n, edges, np.array(key), sorted(sources)


@settings(max_examples=300, deadline=None)
@given(graph=keyed_graphs(), radii=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5]),
                                            min_size=1, max_size=4))
def test_join_key_prefixes_are_components(graph, radii):
    """The prefix of x's points with join key < r is the component of x in
    the subgraph on the points of key < r, or empty when x itself is out."""
    n, edges, key, sources = graph
    adjacency = eq.build_space(np.abs(np.subtract.outer(np.arange(n), np.arange(n))), edges).adjacency
    orders = _join_orders(adjacency, key, sources)
    for x in sources:
        pts, b = orders[x]
        assert sorted(pts) == sorted(set(pts)) and np.all(np.diff(b) >= 0)
        for r in radii:
            comps = graph_components(n, edges, [v for v in range(n) if key[v] < r])
            want = next((set(c) for c in comps if x in c), set())
            assert set(pts[: np.searchsorted(b, r)]) == want


@settings(max_examples=300, deadline=None)
@given(graph=keyed_graphs(), data=st.data())
def test_cover_sweep_reads_the_components_of_each_prefix(graph, data):
    """_sweep against graph_components on each {key < r}: limit is the
    least key at which a prefix of the (key, index) order holds one orbit
    twice in a component, and each radius up to it lists the distinct orbit
    sets of more than two orbits, in the order of the components' least
    points."""
    n, edges, key, _ = graph
    orbit_of = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    radii = sorted(set(data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.25, 2.0, 2.5]), min_size=1))))
    adjacency = eq.build_space(np.abs(np.subtract.outer(np.arange(n), np.arange(n))), edges).adjacency

    def orbit_sets(points):
        return [frozenset(orbit_of[p] for p in c) if len({orbit_of[p] for p in c}) == len(c) else None
                for c in graph_components(n, edges, points)]

    order = np.argsort(key, kind="stable").tolist()
    limit = next((key[w] for i, w in enumerate(order) if None in orbit_sets(order[: i + 1])), np.inf)
    want = []
    for r in radii:
        sets = orbit_sets([v for v in range(n) if key[v] < r])
        if None in sets:
            break
        want.append(tuple(dict.fromkeys(sum(1 << o for o in s) for s in sets if len(s) > 2)))
    assert lift._sweep(adjacency, orbit_of, key, radii) == (limit, want)


def test_cover_sweep_lists_orbit_sets_by_least_point():
    """Union by size leaves {0, 6, 7} at root 6 and {1, 2, 3} at root 2, so
    the order of the roots is not that of the least points."""
    edges = [(0, 6), (6, 7), (1, 2), (2, 3)]
    key = np.array([2.0, 0.0, 1.0, 2.0, 5.0, 5.0, 1.0, 0.0])
    adjacency = eq.build_space(np.abs(np.subtract.outer(np.arange(8), np.arange(8))), edges).adjacency
    got = lift._sweep(adjacency, list(range(8)), key, [3.0])
    assert got == (np.inf, [(0b11000001, 0b1110)])


def drop_images(gs, data):
    """The G-space with a drawn set of images of its action array undefined;
    not validated, since the orbit and slice stages read any array."""
    drop = data.draw(st.lists(st.booleans(), min_size=gs.action.size, max_size=gs.action.size))
    return SampledGSpace(gs.space, gs.group, np.where(np.reshape(drop, gs.action.shape), -1, gs.action))


def space(name, params):
    gs = eq.generate_scenario(name, params)
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs))


def openness_witnesses(report):
    return report["openness_condition_star"].witnesses


def assert_same_verdict(gs, quotient, family):
    report = eq.verify_slice_family(gs, quotient, family)
    assert report.lines() == oracles.verify_slice_family(gs, quotient, family).lines()
    return report


def test_slice_verifier_matches_reference_on_planted_openness_defects():
    """The family of test_planted_openness_defect_is_caught, and circle(24, 3)
    with S_y the whole circle: then S_y & P_x is the three arcs around the
    orbit of x, and S_x holds part of each, so every arc is a mixed component."""
    gs, quotient = space("circle", {"n": 12, "k": 3})
    family = eq.build_slice_family(gs, quotient)
    bad = list(family.slice_of)
    bad[0], bad[11] = frozenset({11, 0}), frozenset({10, 11, 0, 1})
    report = assert_same_verdict(gs, quotient, replace(family, slice_of=tuple(bad)))
    assert openness_witnesses(report) == [(0, 11, 0)]

    gs, quotient = space("circle", {"n": 24, "k": 3})
    family = eq.build_slice_family(gs, quotient)
    bad = list(family.slice_of)
    bad[1] = frozenset(range(24))
    bad[0] = frozenset({0, 1, 8, 9, 16, 17})
    report = assert_same_verdict(gs, quotient, replace(family, slice_of=tuple(bad)))
    assert [w for w in openness_witnesses(report) if w[:2] == (0, 1)] == [(0, 1, 0), (0, 1, 7), (0, 1, 15)]
    # the arc {23, 0, 1} now lies in S_0; its edge to 2 leaves P_0 and does
    # not make it mixed
    bad[0] = frozenset({23, 0, 1, 8, 9, 16, 17})
    report = assert_same_verdict(gs, quotient, replace(family, slice_of=tuple(bad)))
    assert [w for w in openness_witnesses(report) if w[:2] == (0, 1)] == [(0, 1, 7), (0, 1, 15)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_slice_verifier_matches_reference_on_perturbed_families(seed, data):
    """Built families on random spaces, total or with a random set of images
    undefined, with random points added to and removed from a few slices;
    radii perturbed too."""
    gs = random_gspace(seed)
    if data.draw(st.booleans()):
        gs = drop_images(gs, data)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    n = gs.n_points
    slices = list(family.slice_of)
    for _ in range(data.draw(st.integers(0, 4))):
        x = data.draw(st.integers(0, n - 1))
        add = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
        drop = data.draw(st.lists(st.integers(0, n - 1), max_size=2))
        slices[x] = (slices[x] | frozenset(add)) - frozenset(drop)
    radii = [r * data.draw(st.sampled_from([1.0, 0.5, 2.0])) for r in family.radius_of_orbit]
    assert_same_verdict(gs, quotient, replace(family, slice_of=tuple(slices), radius_of_orbit=tuple(radii)))


@pytest.mark.parametrize("name,params,x,planted,check,witnesses", [
    # the flip fixes 2 and sends {2, 3} to {1, 2}
    ("reflection", {"m": 2, "h": 1.0}, 2, {2, 3}, "slice_stabilizer_invariance", [(2, 1)]),
    # the rotations send {0, 1} to {4, 5} and {8, 9}, not S_4 and S_8, and
    # S_8 and S_4 to {11, 0, 1}, not S_0
    ("circle", {"n": 12, "k": 3}, 0, {0, 1}, "family_equivariance", [(0, 1), (8, 1), (0, 2), (4, 2)]),
    ("circle", {"n": 12, "k": 3}, 0, {1}, "slice_contains_center", [(0,)]),
    ("circle", {"n": 12, "k": 3}, 0, {11, 0, 2}, "slice_connected", [(0,)]),
])
def test_slice_verifier_matches_reference_on_planted_slice_defects(name, params, x, planted, check, witnesses):
    gs, quotient = space(name, params)
    family = eq.build_slice_family(gs, quotient)
    bad = list(family.slice_of)
    bad[x] = frozenset(planted)
    report = assert_same_verdict(gs, quotient, replace(family, slice_of=tuple(bad)))
    assert report[check].status == "fail"
    assert report[check].witnesses == witnesses


@pytest.mark.parametrize("name,params", SWEEP_CELLS)
def test_slice_verifier_matches_reference_on_small_sweep_cells(name, params):
    gs, quotient = space(name, dict(params))
    assert_same_verdict(gs, quotient, eq.build_slice_family(gs, quotient))


@pytest.mark.parametrize("name,params", SWEEP_CELLS)
def test_cover_small_sets_match_reference_on_small_sweep_cells(name, params):
    gs, quotient = space(name, dict(params))
    for factor in (1.0, 1.5, 1000.0):
        assert eq.cover_small_sets(gs, quotient, factor) == oracles.cover_small_sets(gs, quotient, factor)


def test_cover_small_sets_match_reference_on_non_convex_images():
    """Five points on a path, the trivial group, and an explicit quotient
    table with d(2, 4) = 1.5 < d(2, 3) + d(3, 4): an image holding 2, 3 and 4
    is not convex. Around orbit 0 the four points {0, 1, 2, 3} are accepted;
    around orbit 2 the four points {1, 2, 3, 4} are not."""
    x = np.arange(5.0)
    d = np.abs(np.subtract.outer(x, x))
    d[2, 4] = d[4, 2] = 1.5
    d[0, 4] = d[4, 0] = 3.5
    d[1, 4] = d[4, 1] = 2.5
    path = eq.build_space(d, [(i, i + 1) for i in range(4)])
    gs = eq.bind_action(path, eq.build_group([[0]]), [{i: i for i in range(5)}])
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs), mode="explicit", table=d)
    sets = eq.cover_small_sets(gs, quotient)
    assert sets == oracles.cover_small_sets(gs, quotient)
    assert sets == (frozenset({0, 1, 2, 3}), frozenset({3, 4}))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_cover_small_sets_match_reference_on_random_spaces(seed, data):
    """Random spaces, total or with a drawn set of images undefined, at the
    enlargement factors 1, 1.5 and 1000."""
    gs = random_gspace(seed)
    if data.draw(st.booleans()):
        gs = drop_images(gs, data)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    for factor in (1.0, 1.5, 1000.0):
        assert eq.cover_small_sets(gs, quotient, factor) == oracles.cover_small_sets(gs, quotient, factor)


def test_cover_enlarged_radius_may_equal_the_merge_key():
    """reflection(4, 1) at enlargement factor 2. Around orbit 1 (x = +-3)
    the sweep first puts an orbit into a component twice when x = 0, of key
    3, joins the two halves. The radius 1.5 is kept, since 1.5 * 2 = 3 and
    the enlarged open ball leaves x = 0 out; its components {-4, -3, -2}
    and {2, 3, 4} are the points 0-2 and 6-8. Just above factor 2 the
    radius 1.5 fails and only {0, 1} and {7, 8} remain."""
    gs, quotient = space("reflection", {"m": 4, "h": 1.0})
    sets = eq.cover_small_sets(gs, quotient, 2.0)
    assert sets == oracles.cover_small_sets(gs, quotient, 2.0)
    assert sets == (frozenset({0, 1, 2}), frozenset({6, 7, 8}))
    above = float(np.nextafter(2.0, 3.0))
    sets = eq.cover_small_sets(gs, quotient, above)
    assert sets == oracles.cover_small_sets(gs, quotient, above)
    assert sets == (frozenset({0, 1}), frozenset({7, 8}))


def decided_orbit_sets(gs, quotient, factor):
    """(orbit sets the library decides convexity for, in decision order;
    orbit sets with more than two orbits the scalar scan tests)."""
    decided, reached = [], set()
    convex_images, image_is_convex = lift._convex_images, oracles._image_is_convex

    def record_decided(quotient, masks, tol):
        decided.extend(frozenset(o for o in range(quotient.n_orbits) if m >> o & 1) for m in masks)
        return convex_images(quotient, masks, tol)

    def record_reached(quotient, comp, tol):
        orbs = frozenset(quotient.orbit_of[p] for p in comp)
        if len(orbs) > 2:
            reached.add(orbs)
        return image_is_convex(quotient, comp, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lift, "_convex_images", record_decided)
        mp.setattr(oracles, "_image_is_convex", record_reached)
        assert eq.cover_small_sets(gs, quotient, factor) == oracles.cover_small_sets(gs, quotient, factor)
    return decided, reached


@pytest.mark.parametrize("name,params,count", [
    ("circle", {"n": 80, "k": 4}, 100), ("disk", {"g": 7}, 16), ("reflection", {"m": 6, "h": 1.0}, 3),
])
def test_cover_rounds_decide_only_orbit_sets_the_scalar_scan_reaches(name, params, count):
    """Each orbit set is decided once, and exactly the sets that the
    descending scan of the reference tests are: 100 stacked decisions on
    circle(80, 4), as many as its former one apsp call per orbit set."""
    gs, quotient = space(name, params)
    decided, reached = decided_orbit_sets(gs, quotient, 1.0)
    assert len(decided) == len(set(decided)) == count
    assert set(decided) == reached


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), factor=st.sampled_from([1.0, 1.5, 1000.0]))
def test_cover_rounds_decide_only_orbit_sets_the_scalar_scan_reaches_on_random_spaces(seed, factor):
    gs = random_gspace(seed)
    decided, reached = decided_orbit_sets(gs, eq.quotient_metric(gs, eq.compute_orbits(gs)), factor)
    assert len(decided) == len(set(decided))
    assert set(decided) <= reached
    if factor == 1.0:
        assert set(decided) == reached


# The orbital stage against the per-pair coset distances, the element scan
# and the grid rescans kept in tests/oracles.py: bitwise-equal values (nan in
# the same places), equal report lines, or the same error code and witness.


def word_generators(group):
    """An inverse-closed generating set, taken greedily in index order."""
    gens, reached = [], {group.identity}
    for g in range(group.order):
        if g not in reached:
            gens += sorted({g, group.inv[g]})
            reached = group._closure(set(gens))
    return gens


def result(fn, *args):
    try:
        return fn(*args), None
    except ValidationError as exc:
        return None, (exc.code, str(exc), exc.witness)


def assert_orbital_matches(gs, quotient, family, d_G, tols=(1e-12,)):
    got, err = result(eq.build_orbital_metric, gs, quotient, family, d_G)
    ref, ref_err = result(oracles.build_orbital_metric, gs, quotient, family, d_G)
    assert err == ref_err
    if got is None:
        return None
    assert got.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(got.chi, ref.chi)
    for tol in tols:
        assert_orbital_reports_match(gs, quotient, family, got, d_G, tol)
    return got


def assert_orbital_reports_match(gs, quotient, family, d_O, d_G, tol=1e-12):
    args = (gs, quotient, family, d_O, d_G, tol)
    report, err = result(eq.verify_orbital_properties, *args)
    ref, ref_err = result(oracles.verify_orbital_properties, *args)
    assert err == ref_err
    if report is not None:
        assert report.lines() == ref.lines()
        witnesses = [x for c in report.checks for w in c.witnesses for x in w]
        assert {type(x) for x in witnesses} <= {int, float}
    return report


GENERAL_CELLS = sorted({(name, tuple(sorted(params.items())))
                        for name, params, mode in GRID_CELLS if mode == "general"})
# a negative tol lets the pair y = x break property B, which the checks
# skip only for tol >= 0
ORBITAL_TOLS = (-1e-12, 0.0, 1e-12, 1e-3)


@pytest.mark.parametrize("name,params", GENERAL_CELLS)
def test_orbital_stage_matches_reference_on_small_sweep_cells(name, params):
    gs = eq.generate_scenario(name, dict(params))
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    for scale in (0.5, 1.0, 2.0):
        assert_orbital_matches(gs, quotient, family, eq.group_metric(gs.group, "discrete", scale=scale))


@pytest.mark.parametrize("seeds", [range(s, s + 50) for s in range(0, 300, 50)], ids=str)
def test_orbital_stage_matches_reference_on_random_spaces(seeds):
    for seed in seeds:
        gs = random_gspace(seed)
        quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
        family = eq.build_slice_family(gs, quotient)
        for scale in (0.5, 1.0, 3.0):
            assert_orbital_matches(gs, quotient, family, eq.group_metric(gs.group, "discrete", scale=scale))
        d_G = eq.group_metric(gs.group, "word", generators=word_generators(gs.group))
        assert_orbital_matches(gs, quotient, family, d_G)


def test_orbital_stage_matches_reference_on_an_empty_space():
    """No points: no charts, empty tables and five passing checks."""
    gs = eq.bind_action(eq.build_space(np.zeros((0, 0)), []), eq.build_group([[0]]), [{}])
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_O = assert_orbital_matches(gs, quotient, family, eq.group_metric(gs.group), tols=ORBITAL_TOLS)
    assert d_O.values.shape == d_O.chi.shape == (0, 0)


PLANT_BASES = [
    ("circle", {"n": 12, "k": 3}),
    ("reflection", {"m": 3, "h": 1.0}),
    ("dihedral", {"n": 4}),
    ("disk", {"g": 3}),
    ("shift", {"m": 8, "h": 0.5, "N": 2}),
]
ORBITAL_PLANTS = ("zero", "nan", "scaled", "diagonal", "large")


def plant_orbital(values, quotient, kind, which=0, size=0.5):
    """Plant one defect on the pair (x, y) of the first orbit with two or
    more points, x its least member and y the member `which` steps on."""
    members = next(m for m in quotient.orbit_members if len(m) > 1)
    x, y = members[0], members[1 + which % (len(members) - 1)]
    values = np.array(values)
    if kind == "zero":
        values[x, y] = values[y, x] = 0.0
    elif kind == "nan":
        values[x, y] = values[y, x] = np.nan
    elif kind == "scaled":
        values[x, y] = values[y, x] = values[x, y] * (1.0 + size)
    elif kind == "diagonal":
        values[x, x] = size
    else:  # one large entry, one side only
        values[x, y] = 1e3 * (1.0 + size)
    return values


@pytest.mark.parametrize("name,params", PLANT_BASES)
@pytest.mark.parametrize("kind", ORBITAL_PLANTS)
def test_planted_orbital_values_match_reference(name, params, kind):
    r = pipeline(name, params)
    d_O = replace(r["d_O"], values=plant_orbital(r["d_O"].values, r["quotient"], kind))
    for tol in ORBITAL_TOLS:
        assert_orbital_reports_match(r["gspace"], r["quotient"], r["family"], d_O, r["d_G"], tol)


@pytest.mark.parametrize("name,params", GENERAL_CELLS)
def test_orbital_checks_match_reference_one_item_per_block(name, params, monkeypatch):
    """With the block cap at its minimum every point is a block of its own,
    so the joins across blocks are compared too, on the built values and on
    planted defects that give property A, B and C witnesses beyond the
    first point."""
    monkeypatch.setattr(orbital, "_BLOCK", 1)
    gs = eq.generate_scenario(name, dict(params))
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_G = eq.group_metric(gs.group, "discrete")
    d_O = assert_orbital_matches(gs, quotient, family, d_G, tols=ORBITAL_TOLS)
    if d_O is None or all(len(m) == 1 for m in quotient.orbit_members):
        return
    plants = [plant_orbital(d_O.values, quotient, kind) for kind in ORBITAL_PLANTS]
    plants.append(np.array(d_O.values))
    plants[-1][-1, -1] = 0.5  # property A then fails at the last point
    for values in plants:
        assert_orbital_reports_match(gs, quotient, family, replace(d_O, values=values), d_G)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), word=st.booleans(),
       kind=st.sampled_from(ORBITAL_PLANTS), which=st.integers(0, 7),
       size=st.sampled_from([0.0, 5e-13, 2e-12, 1e-3, 0.5, 2.0]),
       tol=st.sampled_from(ORBITAL_TOLS))
def test_planted_orbital_values_match_reference_on_random_spaces(seed, word, kind, which, size, tol):
    gs = random_gspace(seed)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    if all(len(m) == 1 for m in quotient.orbit_members):
        return
    family = eq.build_slice_family(gs, quotient)
    if word:
        d_G = eq.group_metric(gs.group, "word", generators=word_generators(gs.group))
    else:
        d_G = eq.group_metric(gs.group, "discrete", scale=1.0)
    d_O, err = result(eq.build_orbital_metric, gs, quotient, family, d_G)
    if err:
        return
    d_O = replace(d_O, values=plant_orbital(d_O.values, quotient, kind, which, size))
    assert_orbital_reports_match(gs, quotient, family, d_O, d_G, tol)


@settings(max_examples=100, deadline=None)
@given(params=st.sampled_from([(4, 0.25, 1), (6, 0.25, 1), (6, 0.25, 2), (8, 0.25, 2), (6, 0.5, 2)]),
       data=st.data(), tol=st.sampled_from(ORBITAL_TOLS))
def test_planted_orbital_values_match_reference_on_partial_shifts(params, data, tol):
    """Truncated shifts act partially, so property B and the bounds must
    skip the elements undefined at x or y. One symmetric pair of d_O gets a
    drawn value; the last point, where an undefined image would land if
    read unmasked, is drawn often."""
    m, h, N = params
    r = pipeline("shift", {"m": m, "h": h, "N": N})
    n = r["gspace"].n_points
    values = np.array(r["d_O"].values)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
    values[i, j] = values[j, i] = data.draw(st.sampled_from([0.0, 0.25, 5.0, np.nan]))
    d_O = replace(r["d_O"], values=values)
    assert_orbital_reports_match(r["gspace"], r["quotient"], r["family"], d_O, r["d_G"], tol)


@pytest.mark.parametrize("plant", [None, "diagonal"])
def test_positive_quotient_diagonal_matches_reference(plant):
    """A quotient table whose diagonal is positive within tolerance: the
    scans raise EmptyResult once they reach a delta at or below it."""
    r = pipeline("circle", {"n": 12, "k": 3})
    quotient = replace(r["quotient"], d=r["quotient"].d + 1e-10 * np.eye(r["quotient"].n_orbits))
    d_O = r["d_O"]
    if plant:
        d_O = replace(d_O, values=plant_orbital(d_O.values, quotient, plant, size=5.0))
    report = assert_orbital_reports_match(r["gspace"], quotient, r["family"], d_O, r["d_G"])
    assert (report is None) == (plant is not None)


def test_ball_inclusions_raise_as_reference_below_a_positive_diagonal():
    """circle(12, 3) with the quotient diagonal raised to 1e-10, the least
    grid radius: the quotient ball of that radius misses the centre orbit,
    so both searches raise at the first point."""
    r = pipeline("circle", {"n": 12, "k": 3})
    quotient = replace(r["quotient"], d=r["quotient"].d + 1e-10 * np.eye(r["quotient"].n_orbits))
    args = (r["gspace"], quotient, r["family"], r["d_G"], r["d_O"], r["lifted"])
    want = ("EmptyResult", "EmptyResult: center orbit not in the quotient set (witness: 0)", 0)
    assert result(eq.verify_ball_inclusions, *args)[1] == result(oracles.verify_ball_inclusions, *args)[1] == want


def test_planted_family_matches_reference():
    """dihedral(4) with S_0 grown by the orbit mate 1: property B and the
    coset chain fail; also with a positive quotient diagonal."""
    r = pipeline("dihedral", {"n": 4})
    slice_of = tuple(s | {1} if x == 0 else s for x, s in enumerate(r["family"].slice_of))
    family = replace(r["family"], slice_of=slice_of)
    d_O = assert_orbital_matches(r["gspace"], r["quotient"], family, r["d_G"], tols=ORBITAL_TOLS)
    quotient = replace(r["quotient"], d=r["quotient"].d + 1e-10)
    assert_orbital_reports_match(r["gspace"], quotient, family, d_O, r["d_G"])


def test_coset_distance_matches_reference_on_dihedral_subgroups():
    """D5 with the word metric on {r, r^-1, s}: of the nontrivial subgroups
    only {e, s} is right invariant, and at K = (0, 7) the one-sided form
    would be wrong at 20 pairs."""
    group = eq.build_group(dihedral_table(5))
    d_G = eq.group_metric(group, "word", generators=[1, 4, 5])
    pairs = [(a, b) for a in range(group.order) for b in range(group.order)]
    for K in group.subgroups():
        assert [eq.coset_distance(d_G, K, a, b) for a, b in pairs] == \
            [oracles.coset_distance(d_G, K, a, b) for a, b in pairs]
        assert d_G.right_invariant_for(K) == oracles.right_invariant(d_G, K)
    differ = [(a, b) for a, b in pairs if oracles.one_sided_coset_distance(d_G, (0, 7), a, b)
              != oracles.two_sided_coset_distance(d_G, (0, 7), a, b)]
    assert len(differ) == 20
    assert outcome(eq.coset_distance, d_G, (0, 1), 0, 2) == \
        outcome(oracles.coset_distance, d_G, (0, 1), 0, 2)


def test_orbit_blocks_mirror_their_upper_triangle():
    """A left-invariant d_G on C3 that is asymmetric within tolerance,
    f(r) = 1 and f(r^-1) = 1 + 1e-10: each pair x < y of an orbit takes
    d(g_x K, g_y K), and (y, x) copies it."""
    r = pipeline("circle", {"n": 12, "k": 3})
    gs = r["gspace"]
    group = gs.group
    r1 = next(g for g in range(group.order) if g != group.identity)
    f = {group.identity: 0.0, r1: 1.0, group.inv[r1]: 1.0 + 1e-10}
    table = [[f[group.mul[group.inv[g]][h]] for h in range(group.order)] for g in range(group.order)]
    d_G = eq.group_metric(group, "explicit", table=table)
    coset = d_G.coset_table(gs.stabilizer(0))
    assert not np.array_equal(coset, coset.T)
    d_O = assert_orbital_matches(gs, r["quotient"], r["family"], d_G)
    assert np.array_equal(d_O.values, d_O.values.T)


# Group tables, permutation closure, action binding and the isometric
# quotient against the scalar loops in tests/oracles.py: the same error code,
# message and witness, or equal groups, maps, stabilizers and tables.


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_build_group_matches_scalar_on_corrupted_tables(data):
    """A cyclic or dihedral table with one entry overwritten (out of range
    at -1 and n, or possibly unchanged)."""
    if data.draw(st.booleans()):
        table = cyclic_table(data.draw(st.integers(1, 8)))
    else:
        table = dihedral_table(data.draw(st.integers(2, 4)))
    n = len(table)
    g, h = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[g][h] = data.draw(st.integers(-1, n))
    generators = data.draw(st.sampled_from([None, [1 % n], [n - 1], [0]]))
    got, err = result(eq.build_group, table, generators)
    ref, ref_err = result(oracles.build_group, table, generators)
    assert err == ref_err
    assert got == ref


@settings(max_examples=100, deadline=None)
@given(perms=st.integers(1, 4).flatmap(
    lambda k: st.lists(st.permutations(range(k)), min_size=1, max_size=3)))
def test_permutation_closure_matches_scalar(perms):
    group, elems = eq.group_from_permutations(perms)
    assert (group, elems) == oracles.group_from_permutations(perms)


def assert_same_binding(space, group, maps):
    """The same error, or the action array and stabilizers of the maps."""
    got, err = result(eq.bind_action, space, group, maps)
    ref, ref_err = result(oracles.bind_action, space, group, maps)
    assert err == ref_err
    if got is not None:
        assert np.array_equal(got.action, oracles.action_array(ref[0], space.n_points))
        assert got.stabilizers == ref[1]
        assert got.total.tolist() == [len(m) == space.n_points for m in ref[0]]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_bind_action_matches_scalar_on_corrupted_images(seed, data):
    """A random total action with one image of one element overwritten,
    dropped (the map turns partial) or swapped with another; or with one
    edge taken out of the space, so that some element maps an edge off it."""
    gs = random_gspace(seed)
    n, space = gs.n_points, gs.space
    maps = [dict(m) for m in oracles.ActionMaps(gs).act]
    g, x = data.draw(st.integers(0, gs.group.order - 1)), data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(["set", "drop", "swap", "unlink"]))
    if kind == "set":
        maps[g][x] = data.draw(st.integers(0, n - 1))
    elif kind == "drop":
        del maps[g][x]
    elif kind == "swap":
        y = data.draw(st.integers(0, n - 1))
        maps[g][x], maps[g][y] = maps[g][y], maps[g][x]
    elif space.edges:
        edge = data.draw(st.sampled_from(sorted(space.edges)))
        space = eq.build_space(space.base_metric, space.edges - {edge})
    assert_same_binding(space, gs.group, maps)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bind_action_matches_scalar_on_random_involutions(data):
    """C2 acting on a random graph by a random involution, partial where
    some pairs are left out: the composition test holds by construction, so
    the inverse, edge and stabilizer scans decide, often at several edges."""
    n = data.draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    order = data.draw(st.permutations(range(n)))
    flip = {}
    for u, v in zip(order[0::2], order[1::2]):
        if data.draw(st.booleans()):
            flip[u], flip[v] = v, u
    flip.update((u, u) for u in data.draw(st.lists(st.sampled_from(order))) if u not in flip)
    space = eq.build_space(1.0 - np.eye(n), edges)
    maps = [{i: i for i in range(n)}, flip]
    group = eq.build_group(cyclic_table(2))
    assert_same_binding(space, group, maps)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_action_array_matches_the_maps(name, monkeypatch):
    """The maps each scenario passes to bind_action, against the array."""
    calls = []
    monkeypatch.setattr(eq.scenarios, "bind_action", lambda *args: calls.append(args) or eq.bind_action(*args))
    eq.generate_scenario(name, SCENARIOS[name])
    ((space, group, maps),) = calls
    assert_same_binding(space, group, maps)


def assert_same_orbits(gs):
    """orbit_of, orbit_members, representative and quotient_adjacency (and
    n_orbits) equal to the union-find over the maps."""
    assert eq.compute_orbits(gs) == oracles.compute_orbits(gs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_orbits_match_union_find_on_random_spaces(seed, data):
    """Total random actions, and the same arrays with a random set of images
    undefined: the orbits of a partial action are joined by chains of
    translations, which need not pass through one element."""
    gs = random_gspace(seed)
    assert_same_orbits(gs)
    assert_same_orbits(drop_images(gs, data))


@pytest.mark.parametrize("params", [p for name, p in SWEEP_CELLS if name == "shift"])
def test_orbits_match_union_find_on_small_sweep_shifts(params):
    assert_same_orbits(eq.generate_scenario("shift", dict(params)))


def assert_isometric_quotient_matches(gs, tol=1e-9):
    orbits = eq.compute_orbits(gs)
    got, err = result(eq.quotient_metric, gs, orbits, "isometric", None, tol)
    ref, ref_err = result(oracles.isometric_quotient_table, gs, orbits, tol)
    assert err == ref_err
    if got is not None:
        assert got.d.tobytes() == ref.tobytes()
    members = orbits.orbit_members
    assert [eq.quotient._min_over_lifts(gs, p, q) for p in members for q in members] == \
        [oracles.min_over_lifts(gs, p, q) for p in members for q in members]
    return err


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_isometric_quotient_matches_scalar(name):
    assert assert_isometric_quotient_matches(eq.generate_scenario(name, SCENARIOS[name])) is None


def test_isometric_quotient_matches_scalar_on_random_spaces():
    for seed in range(60):
        assert assert_isometric_quotient_matches(random_gspace(seed)) is None


@pytest.mark.parametrize("tol,want", [
    (1e-9, ("NotIsometricAction",
            "NotIsometricAction: total element is not a base-metric isometry (witness: (1, 0, 1))",
            (1, 0, 1))),
    (0.5, None),
])
def test_planted_non_isometry_matches_scalar(tol, want):
    """Three points at -1, 0 and 1.25 on a line under the swap of the ends:
    the swap moves d(0, 1) = 1 to d(2, 1) = 1.25, which a tolerance of 0.5
    forgives."""
    space = eq.build_space([[0.0, 1.0, 2.25], [1.0, 0.0, 1.25], [2.25, 1.25, 0.0]], [(0, 1), (1, 2)])
    gs = eq.bind_action(space, eq.build_group([[0, 1], [1, 0]]), [{0: 0, 1: 1, 2: 2}, {0: 2, 1: 1, 2: 0}])
    assert assert_isometric_quotient_matches(gs, tol) == want


@pytest.mark.parametrize("shrink_factor", [1.0, 1e10])
def test_slice_builder_matches_reference_below_a_positive_diagonal(shrink_factor):
    """circle(12, 3) with the quotient diagonal raised to 5e-10: shrunk by
    1e10, every candidate radius lies at or below it, and both builders
    raise at the first point."""
    gs = eq.generate_scenario("circle", {"n": 12, "k": 3})
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    quotient = replace(quotient, d=quotient.d + 5e-10 * np.eye(quotient.n_orbits))
    got, err = result(eq.build_slice_family, gs, quotient, shrink_factor)
    ref, ref_err = result(oracles.build_slice_family, gs, quotient, shrink_factor)
    assert err == ref_err
    if shrink_factor > 1.0:
        assert err == ("EmptyResult", "EmptyResult: center orbit not in the quotient set (witness: 0)", 0)
    else:
        assert (got.slice_of, got.radius_of_orbit, got.construction_log) == \
            (ref.slice_of, ref.radius_of_orbit, ref.construction_log)

"""Differential tests: the row-vectorised checks, the ball inclusions, the
slice builder and verifier, the cover small sets, the orbital stage and the
general-mode lift edges against the references in tests/oracles.py, and the
join keys and the lift's components against oracles.graph_components. Equal means the same error code, message and witness, the
same violation list, residual and report lines, or the same slice family and
construction log."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import equimetric as eq
from equimetric import lift, orbital
from equimetric.errors import ValidationError
from equimetric.gspace import SampledGSpace, _check_metric_table, _metric_axiom_violations
from equimetric.orbital import _check_left_invariance
from equimetric.scenarios import shift_acceptance_region
from equimetric.slices import SliceFamily, _join_orders, value_grid
from equimetric.verify import _inclusion_grid
from tests import oracles
from tests.oracles import graph_components
from perfbench.workloads import GRID_CELLS
from tests.conftest import pipeline
from tests.randspaces import cyclic_table, dihedral_table, random_gspace

PLANTS = ("negative", "negative_one_side", "asymmetric", "zero", "triangle", "inf", "nan", "within_tol")
TOLS = st.sampled_from([0.0, 1e-9, 1e-3])
# (0.7 + 0.69) + 1e-9 rounds above 0.7 + (0.69 + 1e-9), so the order of the
# additions decides whether this triangle holds at tol = 1e-9: the scan's
# t[i, j] - (t[i, k] + t[k, j]) > tol finds (0, 2, 1)
ROUNDING = np.array([[0.0, 0.7, 1.390000001], [0.7, 0.0, 0.69], [1.390000001, 0.69, 0.0]])
# negative and asymmetric at the same first entry: the scalar scan names "negative"
NEGATIVE_AND_ASYMMETRIC = np.array([[0.0, -2.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
# a zero pair in row 0 and a nonzero diagonal in row 2: the diagonal is named
PAIR_BEFORE_DIAGONAL = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.5]])
# triangle hits in rows 0 and 2 only: row 1 must not see row 0's buffers
ROWS_0_AND_2 = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])


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
def test_check_metric_table_raises_the_first_collected_violation(t, tol):
    got = outcome(_check_metric_table, t, tol)
    if np.isfinite(t).all():
        assert got == outcome(oracles.raise_first_axiom_violation, t, tol)
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


@pytest.mark.parametrize("t,tol,want,violations", [
    (ROUNDING, 1e-9, ("triangle inequality fails", (0, 2, 1)),
     [("triangle", 0, 2, 1), ("triangle", 2, 0, 1)]),
    (PAIR_BEFORE_DIAGONAL, 1e-9, ("nonzero diagonal", 2),
     [("nonzero_diagonal", 2), ("zero_between_distinct", 0, 1)]),
    (ROWS_0_AND_2, 0.0, ("triangle inequality fails", (0, 2, 1)),
     [("triangle", 0, 2, 1), ("triangle", 2, 0, 1)]),
])
def test_planted_tables_raise_the_first_collected_violation(t, tol, want, violations):
    """The collected violations, and the one error that validating the
    table as a base, explicit quotient or explicit group metric raises."""
    assert _metric_axiom_violations(t, tol) == oracles.metric_axiom_violations(t, tol)
    assert _metric_axiom_violations(t, tol)[0] == violations
    message, witness = want
    error = ("NotAMetric", f"NotAMetric: {message} (witness: {witness})", witness)
    points = eq.build_space([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], [(0, 1), (1, 2)])
    trivial = eq.bind_action(points, eq.build_group([[0]]), [{0: 0, 1: 1, 2: 2}])
    c3 = eq.build_group(cyclic_table(3))
    assert outcome(_check_metric_table, t, tol) == error
    assert outcome(eq.build_space, t, [], None, tol) == error
    assert outcome(eq.quotient_metric, trivial, eq.compute_orbits(trivial), "explicit", t, tol) == error
    assert outcome(eq.group_metric, c3, "explicit", 1.0, None, t, tol) == error


def line_table(n):
    x = np.arange(float(n))
    return np.abs(np.subtract.outer(x, x))


def later_row_below_the_diagonal():
    """A line on six points with d(1, 4) raised: the triangle hits lie in
    rows 1 and 4, and row 4's only hit columns, j = 1, lie left of its
    block, so only the mirror mark of row 1's block finds row 4."""
    t = line_table(6)
    t[1, 4] = t[4, 1] = 4.5
    return t


def signed_zero_pair():
    """0.0 against -0.0 at (0, 1): equal values but not equal bits, so the
    scan reads every column; plus a triangle hit at (2, 3)."""
    t = line_table(4)
    t[0, 1], t[1, 0] = -0.0, 0.0
    t[2, 3] = t[3, 2] = 2.5
    return t


def infinite_entries():
    """Two lines with inf between them (the rho of a disconnected lift) and
    one raised pair inside the second: inf - inf is NaN on every path."""
    t = np.full((5, 5), np.inf)
    t[:2, :2] = line_table(2)
    t[2:, 2:] = line_table(3)
    t[2, 4] = t[4, 2] = 3.0
    return t


def nan_entries():
    """A line with d(0, 2) raised to 5 and a NaN at (1, 2): row 0's one hit,
    (0, 2, 3), shares its column with the NaN sum t[0, 1] + t[1, 2], which
    a minimum that kept NaN would take as the least."""
    t = line_table(5)
    t[0, 2] = t[2, 0] = 5.0
    t[1, 2] = np.nan
    return t


# caps of a row a block and of a few rows a block (two at n = 7, four at
# n = 5); the hypothesis tests above run at the default cap
SCAN_CAPS = [1, 100]
SCAN_PLANTS = [later_row_below_the_diagonal(), signed_zero_pair(), infinite_entries(), nan_entries(),
               ROUNDING, ROWS_0_AND_2]


@pytest.mark.parametrize("cap", SCAN_CAPS)
@settings(max_examples=150, deadline=None)
@given(t=planted_tables(), tol=TOLS)
def test_triangle_refutation_matches_scalar_at_every_block_cap(cap, t, tol):
    """The refute-then-rescan scan at a row a block and at a few rows a
    block collects and raises what the scalar scan does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eq.gspace, "_BLOCK", cap)
        assert _metric_axiom_violations(t, tol) == oracles.metric_axiom_violations(t, tol)
        if np.isfinite(t).all():
            assert outcome(_check_metric_table, t, tol) == outcome(oracles.raise_first_axiom_violation, t, tol)


@pytest.mark.parametrize("cap", SCAN_CAPS + [None])
@pytest.mark.parametrize("t", SCAN_PLANTS, ids=["later_row", "signed_zero", "inf", "nan", "rounding", "rows_0_2"])
def test_triangle_refutation_matches_scalar_on_planted_tables(t, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(eq.gspace, "_BLOCK", cap)
    v, resid = _metric_axiom_violations(t, 1e-9)
    assert (v, resid) == oracles.metric_axiom_violations(t, 1e-9)
    assert any(w[0] == "triangle" for w in v)
    if np.isfinite(t).all():
        assert outcome(_check_metric_table, t, 1e-9) == outcome(oracles.raise_first_axiom_violation, t, 1e-9)


def test_triangle_refutation_marks_the_later_row_by_its_mirror(monkeypatch):
    """Row 4 of the planted line is found although its block reads only
    the columns from 4 on: its witnesses follow row 1's."""
    monkeypatch.setattr(eq.gspace, "_BLOCK", 1)
    v, _ = _metric_axiom_violations(later_row_below_the_diagonal(), 1e-9)
    assert sorted({w[1] for w in v}) == [1, 4]
    assert v[-1] == ("triangle", 4, 1, 3)


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
    t = np.array(f)[group.mul[group.inv]]
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
    t = f[group.mul[group.inv]]
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
        assert oracles.metric_axiom_violations(table, 1e-9) == ([], 0.0)
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
    assert check.line() == "cover_local_isometry\tfail\tinf\t(0, 2);(4, 5);(8, 9)"


def test_cover_isometry_gathers_sets_of_several_sizes_at_once():
    """disk(5) in cover mode, whose small sets hold 1, 3 and 4 points. Gaps
    at (1, 6), in the set {0, 1, 2, 6}, and at (0, 5), in {0, 1, 5} and in
    {0, 5, 6, 10}, yet named once; d and rho infinite between the orbits of
    2 and 6, so the pair (2, 6) of {0, 1, 2, 6} has a NaN gap, in neither
    the residual nor the witnesses. The pairs come in sorted order, as the
    reference lists the distinct pairs of the sets."""
    r = pipeline("disk", {"g": 5}, mode="cover")
    assert {len(s) for s in r["graph"].small_sets} == {1, 3, 4}
    orbit = np.asarray(r["quotient"].orbit_of)
    d, rho = np.array(r["quotient"].d), np.array(r["lifted"].rho)
    rho[1, 6] = rho[6, 1] = rho[1, 6] + 0.5
    rho[0, 5] = rho[5, 0] = rho[0, 5] + 1e-6
    a, b = orbit[2], orbit[6]
    d[a, b] = d[b, a] = np.inf
    between = (orbit[:, None] == a) & (orbit == b)
    rho[between | between.T] = np.inf
    r["quotient"] = replace(r["quotient"], d=d)
    r["lifted"] = replace(r["lifted"], rho=rho)
    assert_lifted_checks_match(r)
    check = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])["cover_local_isometry"]
    assert check.line() == "cover_local_isometry\tfail\t0.5\t(0, 5);(1, 6)"


def test_reverse_inclusion_answered_in_a_later_round():
    """circle(12, 3) with rho(0, 1) = 0: 1 lies in the smallest rho-ball of
    0 but not in S_0(r_0) = {0}, so no column of the reverse search is
    answered at r_0; each is answered at the next coarse column, r_1 =
    0.7618, where S_0 has grown to {11, 0, 1}."""
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


def general_pipeline(gs, d_G):
    """The general-mode pipeline of gs under the group metric d_G."""
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
    graph = eq.build_allowability_graph(gs, quotient, family=family, d_O=d_O, mode="general")
    return {"gspace": gs, "quotient": quotient, "family": family,
            "d_G": d_G, "d_O": d_O, "lifted": eq.lift_metric(graph)}


def word_metric(group):
    """The word metric of the group's generators closed under conjugation
    and inverses: biinvariant, so compatible with every stabilizer."""
    mul, inv = group.mul, group.inv
    gens = {int(mul[mul[c, h], inv[c]]) for g in group.generators for h in (g, inv[g])
            for c in range(group.order)}
    return eq.group_metric(group, "word", generators=sorted(gens))


def distinct_metric(group):
    """d(g, h) = f(g^-1 h) with f(e) = 0 and its own value in [1, 2) for
    each class of g under conjugation and inversion: a biinvariant metric,
    since two nonzero values sum past the largest. In an abelian group of
    involutions every element is a class alone and has its own group-ball
    size."""
    mul, inv = group.mul, group.inv
    key = [min(min(int(mul[mul[c, h], inv[c]]) for c in range(group.order)) for h in (g, int(inv[g])))
           for g in range(group.order)]
    f = 1.0 + np.array(key) / group.order
    f[group.identity] = 0.0
    return eq.group_metric(group, "explicit", table=f[mul[inv]])


BALL_CASES = {
    "dihedral6-word": (lambda: eq.generate_scenario("dihedral", {"n": 6}), word_metric),
    "circle12-3-word": (lambda: eq.generate_scenario("circle", {"n": 12, "k": 3}), word_metric),
    "circle12-6-word": (lambda: eq.generate_scenario("circle", {"n": 12, "k": 6}), word_metric),
    "dihedral6-explicit": (lambda: eq.generate_scenario("dihedral", {"n": 6}), distinct_metric),
    "klein-explicit": (lambda: random_gspace(86), distinct_metric),
    "shift8-word": (lambda: eq.generate_scenario("shift", {"m": 8, "h": 0.5, "N": 2}), word_metric),
    "shift8-discrete": (lambda: eq.generate_scenario("shift", {"m": 8, "h": 0.5, "N": 2}),
                        lambda group: eq.group_metric(group, "discrete", scale=1.0)),
}


def group_ball_sizes(d_G, grid):
    """The distinct sizes of the group balls B(r), r on the grid."""
    row = np.sort(d_G.table[d_G.group.identity])
    return sorted({int(np.searchsorted(row, r)) for r in grid})


def plant_ball_defect(r, plant):
    """r with a defect that makes one search fail. "diagonal": rho(0, 0)
    = 0.3 puts 0 outside its rho-balls of radius up to 0.3, while every
    motion set of 0 holds 0. "mate": the slice of the least point x with an
    orbit mate y also holds y, so the motion set of x at r_0 is {x, y},
    outside every rho-ball of x up to rho(x, y) > rho(x, x). "reach": z =
    h.0 for the h farthest from e by d_G, with rho(0, z) = 0, lies in every
    rho-ball of 0, but in a motion set of 0 only once its group ball is
    large enough to reach z."""
    rho = np.array(r["lifted"].rho)
    if plant == "diagonal":
        rho[0, 0] = 0.3
    elif plant == "mate":
        orbit_of = r["quotient"].orbit_of
        x = next(x for x in range(len(orbit_of)) if (orbit_of == orbit_of[x]).sum() > 1)
        y = int(np.flatnonzero(orbit_of == orbit_of[x])[-1])
        assert rho[x, y] > rho[x, x]
        r["family"] = with_slices(r["family"], [s | {y} if p == x else s
                                                for p, s in enumerate(r["family"].slice_of)])
    elif plant == "reach":
        gs, d_G = r["gspace"], r["d_G"]
        far = np.argsort(d_G.table[d_G.group.identity], kind="stable")[::-1]
        z = next(int(gs.action[h, 0]) for h in far if gs.action[h, 0] not in (-1, 0))
        rho[0, z] = rho[z, 0] = 0.0
    r["lifted"] = replace(r["lifted"], rho=rho)


@pytest.mark.parametrize("cap", [1, eq.gspace._BLOCK])
@pytest.mark.parametrize("plant", [None, "diagonal", "mate", "reach"])
@pytest.mark.parametrize("case", sorted(BALL_CASES))
def test_ball_inclusions_match_scalar_over_group_metrics(case, plant, cap, monkeypatch):
    """Word and explicit group metrics, whose grids hold several group-ball
    sizes (an explicit table on a group of involutions holds |G| of them),
    and the partial action shift(8, .5, 2), with a defect planted for each
    search, in blocks of one centre and at the default cap. A planted
    "reach" defect fails the reverse search at the small group balls only."""
    make_space, make_metric = BALL_CASES[case]
    gs = make_space()
    r = general_pipeline(gs, make_metric(gs.group))
    grid = _inclusion_grid(r["quotient"], r["d_G"], r["d_O"], r["lifted"])
    sizes = group_ball_sizes(r["d_G"], grid)
    if case == "klein-explicit":
        assert sizes == [1, 2, 3, 4]
    elif not case.endswith("discrete") and case != "circle12-3-word":
        assert len(sizes) > 2
    plant_ball_defect(r, plant)
    monkeypatch.setattr(eq.gspace, "_BLOCK", cap)
    assert_ball_inclusions_match(r)
    report = eq.verify_ball_inclusions(r["gspace"], r["quotient"], r["family"],
                                       r["d_G"], r["d_O"], r["lifted"])
    failing = [c.name for c in report.checks if c.status == "fail"]
    assert failing == {None: [], "diagonal": ["motion_inside_rho_ball"], "mate": ["motion_inside_rho_ball"],
                       "reach": ["rho_ball_inside_motion"]}[plant]
    if plant == "reach":
        failed = {delta for x, delta in report["rho_ball_inside_motion"].witnesses if x == 0}
        assert 0 < len(failed) < grid.size


@pytest.mark.parametrize("cap", [1, eq.gspace._BLOCK])
@pytest.mark.parametrize("name,params", [("circle", {"n": 12, "k": 3}), ("shift", {"m": 8, "h": 0.5, "N": 2})])
def test_ball_inclusions_raise_at_the_first_centre_of_a_missed_orbit(name, params, cap, monkeypatch):
    """The quotient diagonal raised to 1e-10, the least grid radius, at the
    orbit whose least point comes last only: both raise at that point,
    after the searches of every earlier centre."""
    r = pipeline(name, params)
    orbit_of = r["quotient"].orbit_of
    x = max(int(np.flatnonzero(orbit_of == o)[0]) for o in range(r["quotient"].n_orbits))
    o = int(orbit_of[x])
    d = np.array(r["quotient"].d)
    d[o, o] = 1e-10
    quotient = replace(r["quotient"], d=d)
    args = (r["gspace"], quotient, r["family"], r["d_G"], r["d_O"], r["lifted"])
    monkeypatch.setattr(eq.gspace, "_BLOCK", cap)
    assert x > 0
    want = ("EmptyResult", f"EmptyResult: center orbit not in the quotient set (witness: {x})", x)
    assert result(eq.verify_ball_inclusions, *args)[1] == result(oracles.verify_ball_inclusions, *args)[1] == want


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
    the inclusion searches then fail, or answer the reverse search past r_0,
    and the lifted and pushforward checks meet failing pairs."""
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


def test_condition_ii_scan_resumes_at_the_last_witness():
    """disk(7), against the oracle's full rescan after every shrink. The
    witness (0, 2, 1) still holds once orbit 2 has shrunk to 3.0, so the
    scan finds it again with its first test; after the shrink to 2.5 it is
    gone, and the next violation (0, 14, 2) has the same x and a later y,
    which a scan resuming past x would miss. The same happens at x = 1."""
    family = assert_same_family(eq.generate_scenario("disk", {"g": 7}))
    shrinks = [(rec["orbit"], rec["radius"], rec["witness"]) for rec in map(dict, family.construction_log)
               if rec["condition"] == "family_condition_ii"]
    assert shrinks == [(2, 3.0, (0, 2, 1)), (2, 2.5, (0, 2, 1)), (4, 3.0, (0, 14, 2)), (4, 2.5, (0, 14, 2)),
                       (3, 3.0, (1, 3, 1)), (3, 2.5, (1, 3, 1)), (1, 3.0, (1, 7, 2)), (1, 2.5, (1, 7, 2))]


def partial_triangle():
    """Orbits {0, 1, 2} and {3, 4, 5} under Z3 acting partially, a = (0 1
    2)(3 4 5) cut to 0 -> 1 -> 2 and 3 -> 4 -> 5 and a^2 to 0 -> 2 and
    3 -> 3; edges 0-3, 1-4 and 2-4 and the discrete metric. Not validated:
    a^2 is not a.a at 3, and the slice stages read any action array."""
    space = eq.build_space(1.0 - np.eye(6), [(0, 3), (1, 4), (2, 4)])
    action = np.array([[0, 1, 2, 3, 4, 5, -1], [1, 2, -1, 4, 5, -1, -1], [2, -1, -1, 3, -1, -1, -1]])
    return SampledGSpace(space, eq.build_group(cyclic_table(3)), action)


def test_translate_overlap_of_a_member_comes_before_a_later_members_meet():
    """partial_triangle at the top radius 2: S_0 = {0, 3} holds no orbit
    mate but a^2 keeps 3 in it while moving 0, and S_1 = {1, 4, 2} holds the
    mate 2. Member 0 is checked first, so the rejection is the translate
    overlap (0, 2), as in the oracle, and not the meet (1, 2)."""
    family = assert_same_family(partial_triangle())
    assert dict(family.construction_log[0]) == {
        "orbit": 0, "radius": 2.0, "condition": "translate_overlap", "witness": (0, 2)}


@pytest.mark.parametrize("name,params,orbit,raised,witness", [
    ("circle", {"n": 12, "k": 3}, 0, 1.2, 0),
    ("circle", {"n": 12, "k": 3}, 2, 1.2, 2),
    ("circle", {"n": 40, "k": 4}, 3, 0.5, 3),
    ("circle", {"n": 40, "k": 4}, 7, 0.9, 7),
])
def test_slice_builder_raises_below_one_orbits_positive_diagonal(name, params, orbit, raised, witness):
    """One orbit's quotient diagonal raised: the candidates at or below it
    leave every member with an empty slice, and both builders raise
    EmptyResult at the orbit's least point, once its larger radii are
    rejected and after the orbits before it have settled."""
    gs = eq.generate_scenario(name, params)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    bump = np.zeros(quotient.n_orbits)
    bump[orbit] = raised
    quotient = replace(quotient, d=quotient.d + np.diag(bump))
    _, err = result(eq.build_slice_family, gs, quotient)
    assert err == result(oracles.build_slice_family, gs, quotient)[1]
    assert err == ("EmptyResult", f"EmptyResult: center orbit not in the quotient set (witness: {witness})", witness)


# The join keys, the slice verifier and the cover small sets against
# graph_components and the edge-set scans kept in tests/oracles.py.


@st.composite
def labelling_graphs(draw):
    """(n, edges) for gspace.components: random edges, self-loops included,
    among a random subset of the points, the rest isolated; or a long path
    or a star on the points in shuffled order; or arcs of the cycle
    0 - 1 - ... - (n - 1) - 0, which pass index 0 as the circle's slices
    do. Some edges are repeated, as drawn or reversed."""
    n = draw(st.integers(0, 120))
    shape = draw(st.sampled_from(["random", "path", "star", "arcs"]))
    if n == 0:
        edges = []
    elif shape == "random":
        alive = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
        edges = draw(st.lists(st.tuples(st.sampled_from(alive), st.sampled_from(alive)), max_size=3 * len(alive)))
    elif shape in ("path", "star"):
        order = draw(st.permutations(range(n)))
        edges = list(zip(order, order[1:])) if shape == "path" else [(order[0], p) for p in order[1:]]
    else:
        starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        edges = [(i % n, (i + 1) % n) for s in starts for i in range(s, s + draw(st.integers(0, n)))]
    again = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    reverse = draw(st.booleans())
    return n, edges + [(b, a) if reverse else (a, b) for a, b in again]


@settings(max_examples=400, deadline=None)
@given(graph=labelling_graphs())
@example(graph=(0, []))
@example(graph=(1, [(0, 0)]))
@example(graph=(6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
def test_components_label_each_point_by_its_least_component_point(graph):
    """gspace.components against the depth-first search of
    oracles.graph_components."""
    n, edges = graph
    a, b = (np.array(c, dtype=np.intp) for c in zip(*edges)) if edges else (np.zeros(0, np.intp),) * 2
    label = eq.gspace.components(n, a, b)
    want = [0] * n
    for comp in graph_components(n, edges):
        for x in comp:
            want[x] = comp[0]
    assert label.dtype == np.intp and label.tolist() == want


def csr_lists(n, edges):
    """The CSR arrays of build_space's graph on n points, as the lists the
    sweeps read."""
    space = eq.build_space(np.abs(np.subtract.outer(np.arange(n), np.arange(n))), edges)
    return space.indptr.tolist(), space.indices.tolist()


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
    the subgraph on the points of key < r, or empty when x itself is out;
    meet is the least key of another source among x's points."""
    n, edges, key, sources = graph
    orders = _join_orders(*csr_lists(n, edges), key, sources)
    for x in sources:
        pts, b, meet = orders[x]
        assert sorted(pts) == sorted(set(pts)) and np.all(np.diff(b) >= 0)
        assert meet == min((k for p, k in zip(pts, b.tolist()) if p in sources and p != x), default=np.inf)
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
    assert lift._sweep(*csr_lists(n, edges), orbit_of, key, radii) == (limit, want)


def test_cover_sweep_lists_orbit_sets_by_least_point():
    """Union by size leaves {0, 6, 7} at root 6 and {1, 2, 3} at root 2, so
    the order of the roots is not that of the least points."""
    edges = [(0, 6), (6, 7), (1, 2), (2, 3)]
    key = np.array([2.0, 0.0, 1.0, 2.0, 5.0, 5.0, 1.0, 0.0])
    got = lift._sweep(*csr_lists(8, edges), list(range(8)), key, [3.0])
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


def with_slices(family, slices):
    """The family with S_x = slices[x]; radii, log and flag kept."""
    return SliceFamily.from_sets(slices, family.radius_of_orbit, family.construction_log, family.degenerate)


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
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert openness_witnesses(report) == [(0, 11, 0)]

    gs, quotient = space("circle", {"n": 24, "k": 3})
    family = eq.build_slice_family(gs, quotient)
    bad = list(family.slice_of)
    bad[1] = frozenset(range(24))
    bad[0] = frozenset({0, 1, 8, 9, 16, 17})
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert [w for w in openness_witnesses(report) if w[:2] == (0, 1)] == [(0, 1, 0), (0, 1, 7), (0, 1, 15)]
    # the arc {23, 0, 1} now lies in S_0; its edge to 2 leaves P_0 and does
    # not make it mixed
    bad[0] = frozenset({23, 0, 1, 8, 9, 16, 17})
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
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
    family = SliceFamily.from_sets(slices, radii, family.construction_log, family.degenerate)
    assert_pairs_match(family)
    assert_same_verdict(gs, quotient, family)


def assert_pairs_match(family):
    """family.pairs, offsets and members against the sorted frozensets."""
    px, py = family.pairs
    assert list(zip(px.tolist(), py.tolist())) == [(x, y) for x, s in enumerate(family.slice_of) for y in sorted(s)]
    assert family.offsets.tolist() == np.cumsum([0] + [len(s) for s in family.slice_of]).tolist()
    assert [family.members(x).tolist() for x in range(len(family.slice_of))] == [sorted(s) for s in family.slice_of]
    for a in (px, py, family.offsets):
        assert a.dtype == np.intp and not a.flags.writeable


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
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert report[check].status == "fail"
    assert report[check].witnesses == witnesses


def test_slice_verifier_reads_partial_elements_as_the_reference_does():
    """shift(4, 1, 1), where only the identity is total and +1, -1 are
    partial (elements 1 and 4), with S_4 = {3, 4, 5}: each partial element
    moves part of S_4 into itself, and S_4 meets the singletons S_3 and S_5,
    so (4, 4) fails condition (ii) for both g; then S_0 = {0, 1}, which -1,
    undefined at 0, still moves in part into itself."""
    gs, quotient = space("shift", {"m": 4, "h": 1.0, "N": 1})
    family = eq.build_slice_family(gs, quotient)
    assert gs.total.tolist() == [True, False, False, False, False]
    bad = list(family.slice_of)
    bad[4] = frozenset({3, 4, 5})
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert report["slice_translate_overlap"].witnesses == [(4, 1), (4, 4)]
    assert report["family_condition_ii"].witnesses == [
        (3, 3, 1), (4, 3, 4), (4, 4, 1), (4, 4, 4), (4, 5, 1), (5, 5, 4)]
    bad = list(family.slice_of)
    bad[0] = frozenset({0, 1})
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert report["slice_translate_overlap"].witnesses == [(0, 1), (0, 4)]


def test_stabilizer_undefined_on_part_of_the_slice_passes():
    """reflection(2, 1): the flip fixes 2 and sends S_2 = {2, 3} to {1, 2},
    a failure; with the flip undefined at 3 it no longer acts on all of
    S_2, and the check passes, as in the reference."""
    gs, quotient = space("reflection", {"m": 2, "h": 1.0})
    family = eq.build_slice_family(gs, quotient)
    bad = list(family.slice_of)
    bad[2] = frozenset({2, 3})
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert report["slice_stabilizer_invariance"].witnesses == [(2, 1)]
    action = np.array(gs.action)
    action[1, 3] = -1
    gs = SampledGSpace(gs.space, gs.group, action)
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert report["slice_stabilizer_invariance"].status == "pass"


def test_equivariance_fails_on_a_smaller_slice_inside_its_translate():
    """circle(12, 3) with S_0 = {0}: each rotation sends S_0 into S_4 or
    S_8, which are larger, so only the sizes differ; S_8 and S_4 are sent to
    {11, 0, 1}, which is not S_0."""
    gs, quotient = space("circle", {"n": 12, "k": 3})
    family = eq.build_slice_family(gs, quotient)
    bad = list(family.slice_of)
    bad[0] = frozenset({0})
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert report["family_equivariance"].witnesses == [(0, 1), (8, 1), (0, 2), (4, 2)]


@pytest.mark.parametrize("cap", [None, 64, 1])
def test_slice_verifier_matches_reference_past_the_first_block(cap, monkeypatch):
    """circle(80, 4) with S_79 grown by its orbit mate 19 and the far point
    50: at the real cap the condition (ii) pairs span two blocks and those
    of x = 79 lie in the second; at caps of 64 and 1 every check runs in
    many blocks."""
    if cap is not None:
        monkeypatch.setattr(eq.gspace, "_BLOCK", cap)
    gs, quotient = space("circle", {"n": 80, "k": 4})
    family = eq.build_slice_family(gs, quotient)
    if cap is None:
        assert family.pairs[0].size > eq.gspace._BLOCK // (gs.group.order * 10)  # 10 bytes a packed row
    bad = list(family.slice_of)
    bad[79] = bad[79] | {19, 50}
    report = assert_same_verdict(gs, quotient, with_slices(family, bad))
    assert [c.name for c in report.checks if c.status == "fail"] == [
        "slice_translate_overlap", "family_equivariance", "slice_meets_orbit_once", "family_condition_ii",
        "openness_condition_star", "slice_connected"]
    assert report["family_condition_ii"].witnesses[-4:] == [(79, 19, 1), (79, 50, 2), (79, 50, 3), (79, 79, 1)]


@pytest.mark.parametrize("name,params", [("dihedral", {"n": 64}), ("circle", {"n": 384, "k": 4})])
def test_slice_verifier_memory_is_bounded_by_its_blocks(name, params):
    """Peak traced memory of one verifier call: half a MiB for the capped
    blocks (a block holds at most gspace._BLOCK cells, a few arrays of up
    to 8 bytes a cell alive at once), a byte a cell of n x n for the tables
    read whole and 16 bytes a pair for the per-pair masks. An uncapped
    condition (ii) gather breaks it on circle(384, 4)."""
    gs, quotient = space(name, params)
    family = eq.build_slice_family(gs, quotient)
    bound = 2**19 + gs.n_points ** 2 + 16 * family.pairs[0].size
    tracemalloc.start()
    try:
        eq.verify_slice_family(gs, quotient, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("name,params", SWEEP_CELLS)
def test_slice_verifier_matches_reference_on_small_sweep_cells(name, params):
    gs, quotient = space(name, dict(params))
    assert_same_verdict(gs, quotient, eq.build_slice_family(gs, quotient))


@pytest.mark.parametrize("name,params", SWEEP_CELLS)
def test_cover_small_sets_match_reference_on_small_sweep_cells(name, params):
    gs, quotient = space(name, dict(params))
    for factor in (1.0, 1.5, 1000.0):
        assert eq.cover_small_sets(gs, quotient, factor) == oracles.cover_small_sets(gs, quotient, factor)


def non_convex_path():
    """Five points on a path, the trivial group, and an explicit quotient
    table with d(2, 4) = 1.5 < d(2, 3) + d(3, 4): an image holding 2, 3 and 4
    is not convex."""
    x = np.arange(5.0)
    d = np.abs(np.subtract.outer(x, x))
    d[2, 4] = d[4, 2] = 1.5
    d[0, 4] = d[4, 0] = 3.5
    d[1, 4] = d[4, 1] = 2.5
    path = eq.build_space(d, [(i, i + 1) for i in range(4)])
    gs = eq.bind_action(path, eq.build_group([[0]]), [{i: i for i in range(5)}])
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs), mode="explicit", table=d)


def test_cover_small_sets_match_reference_on_non_convex_images():
    """Around orbit 0 of the non-convex path the four points {0, 1, 2, 3}
    are accepted; around orbit 2 the four points {1, 2, 3, 4} are not."""
    gs, quotient = non_convex_path()
    sets = eq.cover_small_sets(gs, quotient)
    assert sets == oracles.cover_small_sets(gs, quotient)
    assert sets == (frozenset({0, 1, 2, 3}), frozenset({3, 4}))


def test_cover_small_sets_match_reference_past_64_orbits():
    """circle(130, 2) has 65 orbits, so the orbit-set masks of its sweeps
    and convexity rounds pass bit 63, where a numpy integer shift would
    lose them."""
    gs, quotient = space("circle", {"n": 130, "k": 2})
    assert quotient.n_orbits == 65
    assert eq.cover_small_sets(gs, quotient) == oracles.cover_small_sets(gs, quotient)


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


def diameter_rows_agree_but_not_convex():
    """Four orbits of the trivial group: 0 and 3 are joined directly and
    through 1 and through 2, each leg of length 1, and d(1, 2) = 1.5 is
    shorter than the path 1-0-2. The diameter pair (0, 3) has rows equal to
    d, so only the full table finds the image of all four non-convex."""
    d = np.array([[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 1.5, 1.0], [1.0, 1.5, 0.0, 1.0], [2.0, 1.0, 1.0, 0.0]])
    graph = eq.build_space(d, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    gs = eq.bind_action(graph, eq.build_group([[0]]), [{i: i for i in range(4)}])
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs), mode="explicit", table=d)


def test_cover_convexity_confirms_what_the_diameter_rows_leave(monkeypatch):
    """With the cap at 1 every orbit set is refuted first. The set of all
    four orbits survives its diameter rows and is decided non-convex by the
    full table, as the reference decides it."""
    gs, quotient = diameter_rows_agree_but_not_convex()
    w = np.where(np.eye(4, dtype=bool), 0.0, np.inf)
    for a, b in oracles.adjacent_pairs(quotient):
        w[a, b] = w[b, a] = quotient.d[a, b]
    internal = eq.spath.apsp(w)
    assert (internal[[0, 3]] == quotient.d[[0, 3]]).all() and internal[1, 2] == 2.0
    monkeypatch.setattr(eq.gspace, "_BLOCK", 1)
    # non-convex, with the above rows of the full table: orbits 1 and 2
    assert lift._convex_images(quotient, w, [0b1111], 1e-9) == {0b1111: [(1, 0b0100), (2, 0b0010)]}
    assert eq.cover_small_sets(gs, quotient) == oracles.cover_small_sets(gs, quotient)


def shortcut_below_d():
    """Five points on a cycle, the trivial group: a = 0, x = 1, c = 2 and
    the route c - 3 - 4 - a. The explicit table meets the triangle
    inequality within tol = 1e-9, but not along three steps: the route
    adds to 3 - 0.5e-9, 1.4e-9 below d(a, c) = 3 + 0.9e-9, while a - x - c
    adds to 3. Around x the whole cycle is non-convex only by falling
    below d, and its subset {a, x, c} is convex."""
    e = 1e-9
    d = np.zeros((5, 5))
    for (i, j), v in {(0, 1): 1.5, (1, 2): 1.5, (0, 2): 3 + 0.9 * e, (2, 3): 1 - 0.5 * e, (3, 4): 1.0,
                      (0, 4): 1.0, (0, 3): 2 + 0.7 * e, (2, 4): 2 + 0.2 * e, (1, 3): 2.5, (1, 4): 2.5}.items():
        d[i, j] = d[j, i] = v
    cycle = eq.build_space(d, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    gs = eq.bind_action(cycle, eq.build_group([[0]]), [{i: i for i in range(5)}])
    return gs, eq.quotient_metric(gs, eq.compute_orbits(gs), mode="explicit", table=d)


@pytest.mark.parametrize("cap", [1, eq.gspace._BLOCK])
def test_cover_inherits_only_rows_above_d(cap, monkeypatch):
    """The whole cycle is decided non-convex with no above row, so nothing
    is inherited and {a, x, c} is decided, convex, on its own; inheriting
    the row of a, below d, would refute it. At the cap 1 the diameter rows
    (a, c) decide the cycle, at the default its full table does."""
    monkeypatch.setattr(eq.gspace, "_BLOCK", cap)
    gs, quotient = shortcut_below_d()
    w = np.where(np.eye(5, dtype=bool), 0.0, np.inf)
    for a, b in oracles.adjacent_pairs(quotient):
        w[a, b] = w[b, a] = quotient.d[a, b]
    assert lift._convex_images(quotient, w, [0b11111, 0b00111], 1e-9) == {0b11111: [], 0b00111: None}
    sets = eq.cover_small_sets(gs, quotient)
    assert sets == oracles.cover_small_sets(gs, quotient)
    assert frozenset({0, 1, 2}) in sets


@pytest.mark.parametrize("name,params", SWEEP_CELLS)
def test_cover_refutation_matches_reference_on_small_sweep_cells(name, params, monkeypatch):
    """With the cap at 1 every orbit-set size is refuted by its diameter
    rows before its full tables are confirmed."""
    monkeypatch.setattr(eq.gspace, "_BLOCK", 1)
    gs, quotient = space(name, dict(params))
    for factor in (1.0, 1.5, 1000.0):
        assert eq.cover_small_sets(gs, quotient, factor) == oracles.cover_small_sets(gs, quotient, factor)


def test_cover_refutation_matches_reference_on_non_convex_images(monkeypatch):
    monkeypatch.setattr(eq.gspace, "_BLOCK", 1)
    gs, quotient = non_convex_path()
    assert eq.cover_small_sets(gs, quotient) == oracles.cover_small_sets(gs, quotient)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_cover_refutation_matches_reference_on_random_spaces(seed, data):
    gs = random_gspace(seed)
    if data.draw(st.booleans()):
        gs = drop_images(gs, data)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eq.gspace, "_BLOCK", 1)
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
    """(orbit sets the library decides by stacked apsp, and by inheritance,
    each in decision order; the library's verdict on each, True when convex;
    the reference's verdict on each orbit set with more than two orbits that
    its scalar scan tests)."""
    stacked, inherited, verdicts, reached = [], [], {}, {}
    convex_images, inherit, image_is_convex = lift._convex_images, lift._inherited, oracles._image_is_convex

    def orbits(m):
        return frozenset(o for o in range(quotient.n_orbits) if m >> o & 1)

    def record_stacked(quotient, w, masks, tol):
        found = convex_images(quotient, w, masks, tol)
        stacked.extend(orbits(m) for m in masks)
        verdicts.update((orbits(m), rows is None) for m, rows in found.items())
        return found

    def record_inherited(rows, parent, m):
        kept = inherit(rows, parent, m)
        if kept is not None:
            inherited.append(orbits(m))
            verdicts[orbits(m)] = False
        return kept

    def record_reached(quotient, comp, tol):
        orbs = frozenset(quotient.orbit_of[p] for p in comp)
        convex = image_is_convex(quotient, comp, tol)
        if len(orbs) > 2:
            reached[orbs] = convex
        return convex

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lift, "_convex_images", record_stacked)
        mp.setattr(lift, "_inherited", record_inherited)
        mp.setattr(oracles, "_image_is_convex", record_reached)
        assert eq.cover_small_sets(gs, quotient, factor) == oracles.cover_small_sets(gs, quotient, factor)
    return stacked, inherited, verdicts, reached


@pytest.mark.parametrize("name,params,count,inherited", [
    ("circle", {"n": 80, "k": 4}, 40, 60), ("disk", {"g": 7}, 16, 0), ("reflection", {"m": 6, "h": 1.0}, 3, 0),
])
def test_cover_rounds_decide_only_orbit_sets_the_scalar_scan_reaches(name, params, count, inherited):
    """Each orbit set is decided once, by stacked apsp or by inheritance,
    as the reference decides it, and exactly the sets that the descending
    scan of the reference tests are: on circle(80, 4) 40 stacked decisions
    and 60 inherited, of the 100 sets its former one apsp call per orbit
    set decided."""
    gs, quotient = space(name, params)
    stacked, by_rows, verdicts, reached = decided_orbit_sets(gs, quotient, 1.0)
    assert (len(stacked), len(by_rows)) == (count, inherited)
    assert len(stacked + by_rows) == len(verdicts)
    assert verdicts == reached


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), factor=st.sampled_from([1.0, 1.5, 1000.0]))
def test_cover_rounds_decide_only_orbit_sets_the_scalar_scan_reaches_on_random_spaces(seed, factor):
    gs = random_gspace(seed)
    stacked, by_rows, verdicts, reached = decided_orbit_sets(gs, eq.quotient_metric(gs, eq.compute_orbits(gs)), factor)
    assert len(stacked + by_rows) == len(verdicts)
    assert verdicts.items() <= reached.items()
    if factor == 1.0:
        assert verdicts == reached


def partial_swap_theta():
    """Eight points under C2, whose element swaps only a0 = 0 with a1 = 4
    and c0 = 2 with c1 = 7: the path a0 - b - c0 with a spur f at b, and
    the path a1 - e1 - e2 - c1. The explicit quotient table is the graph
    metric of the orbit edges a-b, b-c, a-e1, e1-e2, e2-c of weight 1 and
    b-f of weight 2, so d(a, c) = 2."""
    x = np.arange(8.0)
    graph = eq.build_space(np.abs(np.subtract.outer(x, x)), [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (6, 7)])
    gs = eq.bind_action(graph, eq.build_group([[0, 1], [1, 0]]), [{i: i for i in range(8)}, {0: 4, 4: 0, 2: 7, 7: 2}])
    orbits = eq.compute_orbits(gs)  # a, b, c, f, e1, e2
    w = np.where(np.eye(6, dtype=bool), 0.0, np.inf)
    for a, b, v in [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 2.0), (0, 4, 1.0), (4, 5, 1.0), (5, 2, 1.0)]:
        w[a, b] = w[b, a] = v
    return gs, eq.quotient_metric(gs, orbits, mode="explicit", table=oracles.floyd_warshall(w))


def test_cover_inherits_only_within_the_last_non_convex_set():
    """Around b, at radius 3, {a, b, c, f} is convex and {a, c, e1, e2} is
    not: its internal path from a to c has length 3. At radius 2 the
    component {a0, b, c0} has the orbit set {a, b, c}, which holds a and c
    but is no subset of {a, c, e1, e2}, and is convex; it is decided by
    stacked apsp, as the reference decides it."""
    gs, quotient = partial_swap_theta()
    assert quotient.orbit_of.tolist() == [0, 1, 2, 3, 0, 4, 5, 2]
    stacked, by_rows, verdicts, reached = decided_orbit_sets(gs, quotient, 1.0)
    assert verdicts == reached
    assert verdicts[frozenset({0, 2, 4, 5})] is False and verdicts[frozenset({0, 1, 2})] is True
    assert frozenset({0, 1, 2}) in stacked


# The orbital stage against the per-pair coset distances, the element scan
# and the grid rescans kept in tests/oracles.py: bitwise-equal values (nan in
# the same places), equal report lines, or the same error code and witness.


def word_generators(group):
    """An inverse-closed generating set, taken greedily in index order."""
    gens, reached = [], {group.identity}
    for g in range(group.order):
        if g not in reached:
            gens += sorted({g, int(group.inv[g])})
            reached = oracles.closure(group, gens)
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
    """The checks with their tolerance ``orbital._TOL`` set to tol against
    the reference at tol."""
    args = (gs, quotient, family, d_O, d_G)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbital, "_TOL", tol)
        report, err = result(eq.verify_orbital_properties, *args)
    ref, ref_err = result(oracles.verify_orbital_properties, *args, tol)
    assert err == ref_err
    if report is not None:
        assert report.lines() == ref.lines()
        witnesses = [x for c in report.checks if c.name != "translated_motion_bound"
                     for w in c.witnesses for x in w]
        assert {type(x) for x in witnesses} <= {int, float}
    return report


GENERAL_CELLS = sorted({(name, tuple(sorted(params.items())))
                        for name, params, mode in GRID_CELLS if mode == "general"})
# the checks skip the pair y = x for property B, which no tolerance >= 0
# lets break
ORBITAL_TOLS = (0.0, 1e-12, 1e-3)


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
    """No points: no slice pairs, no charts, empty tables and five passing
    checks; no edges and no lift components."""
    gs = eq.bind_action(eq.build_space(np.zeros((0, 0)), []), eq.build_group([[0]]), [{}])
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    assert_pairs_match(family)
    assert family.offsets.tolist() == [0]
    d_O = assert_orbital_matches(gs, quotient, family, eq.group_metric(gs.group), tols=ORBITAL_TOLS)
    assert d_O.values.shape == d_O.chi.shape == (0, 0)
    graph = assert_lift_matches(gs, quotient, family, d_O)
    assert graph.edges == () and eq.lift_metric(graph).components == ()


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
    members = next(m for m in map(quotient.members, range(quotient.n_orbits)) if len(m) > 1).tolist()
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
    monkeypatch.setattr(eq.gspace, "_BLOCK", 1)
    gs = eq.generate_scenario(name, dict(params))
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_G = eq.group_metric(gs.group, "discrete")
    d_O = assert_orbital_matches(gs, quotient, family, d_G, tols=ORBITAL_TOLS)
    if d_O is None or quotient.n_orbits == gs.n_points:  # every orbit a single point
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
    if quotient.n_orbits == gs.n_points:  # every orbit a single point
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
    family = with_slices(r["family"], [s | {1} if x == 0 else s for x, s in enumerate(r["family"].slice_of)])
    d_O = assert_orbital_matches(r["gspace"], r["quotient"], family, r["d_G"], tols=ORBITAL_TOLS)
    quotient = replace(r["quotient"], d=r["quotient"].d + 1e-10)
    assert_orbital_reports_match(r["gspace"], quotient, family, d_O, r["d_G"])


def test_compatibility_test_names_the_least_point_of_the_first_failing_class():
    """D5 on the cosets of R = {e, s}, for which the word metric on
    {r, r^-1, s} is right invariant; R is point 0. Coset gR is fixed by
    gRg^-1, another reflection subgroup, neither right invariant nor
    normal, so class 0 passes and the witness is the least point of
    class 1, as in the scalar scan."""
    group = eq.build_group(dihedral_table(5))
    d_G = eq.group_metric(group, "word", generators=[1, 4, 5])
    R = frozenset(next(K for K in group.subgroups() if len(K) == 2 and d_G.right_invariant_for(K)))
    mul = group.mul.tolist()
    cosets = sorted({frozenset(mul[g][h] for h in R) for g in range(group.order)},
                    key=lambda c: (c != R, sorted(c)))
    maps = [{i: cosets.index(frozenset(mul[g][h] for h in c)) for i, c in enumerate(cosets)}
            for g in range(group.order)]
    gs = eq.bind_action(eq.build_space(1.0 - np.eye(len(cosets)), []), group, maps)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    assert assert_orbital_matches(gs, quotient, family, d_G) is None
    code, _, witness = result(eq.build_orbital_metric, gs, quotient, family, d_G)[1]
    assert code == "IncompatibleGroupMetric"
    assert gs.stabilizer_class[witness] == 1 and gs.stabilizer_classes[0] == tuple(sorted(R))


def test_coset_distance_matches_reference_on_dihedral_subgroups():
    """D5 with the word metric on {r, r^-1, s}: of the nontrivial subgroups
    only {e, s} is right invariant, and at K = (0, 7) the one-sided form
    would be wrong at 20 pairs."""
    group = eq.build_group(dihedral_table(5))
    d_G = eq.group_metric(group, "word", generators=[1, 4, 5])
    pairs = [(a, b) for a in range(group.order) for b in range(group.order)]
    for K in group.subgroups():
        assert [float(d_G.coset_table(K)[a, b]) for a, b in pairs] == \
            [oracles.coset_distance(d_G, K, a, b) for a, b in pairs]
        assert d_G.right_invariant_for(K) == oracles.right_invariant(d_G, K)
    differ = [(a, b) for a, b in pairs if oracles.one_sided_coset_distance(d_G, (0, 7), a, b)
              != oracles.two_sided_coset_distance(d_G, (0, 7), a, b)]
    assert len(differ) == 20
    assert outcome(d_G.coset_table, (0, 1)) == \
        outcome(oracles.coset_distance, d_G, (0, 1), 0, 2)


@pytest.mark.parametrize("table", [cyclic_table(k) for k in range(1, 9)]
                         + [dihedral_table(m) for m in (3, 4, 5)])
def test_right_invariance_matches_full_comparison_on_every_subgroup(table):
    """One row per u against the full |G| x |G| comparison, on every
    subgroup, under the discrete and word metrics and an explicit
    d(g, h) = f(g^-1 h) whose f is symmetric but not conjugation invariant:
    left invariant, and on the dihedral groups not right invariant for
    every subgroup."""
    group = eq.build_group(table)
    f = 1.0 + np.minimum(np.arange(group.order), group.inv) % 7 / 8.0
    f[group.identity] = 0.0
    metrics = {
        "discrete": eq.group_metric(group, "discrete"),
        "word": eq.group_metric(group, "word", generators=word_generators(group) or [group.identity]),
        "explicit": eq.group_metric(group, "explicit", table=f[group.mul[group.inv]]),
    }
    verdicts = {}
    for kind, d_G in metrics.items():
        for K in group.subgroups():
            verdicts[kind, K] = d_G.right_invariant_for(K)
            assert verdicts[kind, K] == oracles.right_invariant(d_G, K)
    if table in [dihedral_table(m) for m in (3, 4, 5)]:
        assert not all(v for (kind, _), v in verdicts.items() if kind == "explicit")


def test_orbit_blocks_mirror_their_upper_triangle():
    """A left-invariant d_G on C3 that is asymmetric within tolerance,
    f(r) = 1 and f(r^-1) = 1 + 1e-10: each pair x < y of an orbit takes
    d(g_x K, g_y K), and (y, x) copies it."""
    r = pipeline("circle", {"n": 12, "k": 3})
    gs = r["gspace"]
    group = gs.group
    r1 = next(g for g in range(group.order) if g != group.identity)
    f = np.zeros(group.order)
    f[r1], f[group.inv[r1]] = 1.0, 1.0 + 1e-10
    table = f[group.mul[group.inv]]
    d_G = eq.group_metric(group, "explicit", table=table)
    coset = d_G.coset_table(gs.stabilizer(0))
    assert not np.array_equal(coset, coset.T)
    d_O = assert_orbital_matches(gs, r["quotient"], r["family"], d_G)
    assert np.array_equal(d_O.values, d_O.values.T)


# Group tables, permutation closure, action binding and the isometric
# quotient against the scalar loops in tests/oracles.py: the same error code,
# message and witness, or equal groups, maps, stabilizers and tables.


def assert_same_group(got, ref):
    """Field by field: the same order, identity and generators, and mul and
    inv bitwise equal to the reference's, as read-only np.intp arrays."""
    assert (got.order, got.identity, got.generators) == (ref.order, ref.identity, ref.generators)
    for table, ref_table in ((got.mul, ref.mul), (got.inv, ref.inv)):
        assert table.dtype == np.intp and not table.flags.writeable
        assert table.shape == ref_table.shape
        assert table.tobytes() == ref_table.astype(np.intp).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_build_group_matches_scalar_on_corrupted_tables(data):
    """A cyclic or dihedral table with one entry overwritten (out of range
    at -1 and n, not an integer, an integer-valued float, or possibly
    unchanged)."""
    if data.draw(st.booleans()):
        table = cyclic_table(data.draw(st.integers(1, 8)))
    else:
        table = dihedral_table(data.draw(st.integers(2, 4)))
    n = len(table)
    g, h = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[g][h] = data.draw(st.one_of(
        st.integers(-1, n),
        st.sampled_from([0.5, n - 0.5, float(table[g][h]), float("nan"), float("inf")])))
    generators = data.draw(st.sampled_from([None, [1 % n], [n - 1], [0]]))
    got, err = result(eq.build_group, table, generators)
    ref, ref_err = result(oracles.build_group, table, generators)
    assert err == ref_err
    if got is not None:
        assert_same_group(got, ref)


@settings(max_examples=100, deadline=None)
@given(perms=st.integers(1, 4).flatmap(
    lambda k: st.lists(st.permutations(range(k)), min_size=1, max_size=3)))
def test_permutation_closure_matches_scalar(perms):
    group, elems = eq.group_from_permutations(perms)
    ref, ref_elems = oracles.group_from_permutations(perms)
    assert elems == ref_elems
    assert_same_group(group, ref)


@pytest.mark.parametrize("table", [cyclic_table(k) for k in range(1, 9)]
                         + [dihedral_table(m) for m in (3, 4)])
def test_subgroup_scans_match_scalar_on_every_subset(table):
    """is_subgroup, is_normal and the closure against the scalar set scans
    on every subset of the elements (the closure on every nonempty one),
    and subgroups() lists exactly the subsets the scalar test accepts."""
    group = eq.build_group(table)
    accepted = []
    for bits in range(2 ** group.order):
        member = (bits >> np.arange(group.order)) & 1 == 1
        elems = tuple(np.flatnonzero(member).tolist())
        assert group.is_subgroup(elems) == oracles.is_subgroup(group, elems)
        assert group.is_normal(elems) == oracles.is_normal(group, elems)
        if elems:
            assert np.flatnonzero(group._closure(member)).tolist() == sorted(oracles.closure(group, elems))
        if oracles.is_subgroup(group, elems):
            accepted.append(elems)
    assert group.subgroups() == sorted(accepted, key=lambda t: (len(t), t))


def assert_same_binding(space, group, maps):
    """The same error, or the action array and stabilizers of the maps."""
    got, err = result(eq.bind_action, space, group, maps)
    ref, ref_err = result(oracles.bind_action, space, group, maps)
    assert err == ref_err
    if got is not None:
        assert np.array_equal(got.action, oracles.action_array(ref[0], space.n_points))
        assert tuple(got.stabilizer(x) for x in range(space.n_points)) == ref[1]
        classes = list(dict.fromkeys(ref[1]))
        assert got.stabilizer_classes == tuple(classes)
        assert got.stabilizer_class.tolist() == [classes.index(K) for K in ref[1]]
        assert got.stabilizer_class.dtype == np.intp and not got.stabilizer_class.flags.writeable
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
    elif space.edges.size:
        edge = data.draw(st.sampled_from(space.edges.tolist()))
        space = eq.build_space(space.base_metric, [e for e in space.edges.tolist() if e != edge])
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


def test_stabilizer_test_names_the_least_point_of_the_first_failing_class():
    """C3 on five points: 1 fixes 2 and 3 only, 2 fixes 4 only. The classes
    by least point are {e} (points 0, 1), {e, 1} (2, 3) and {e, 2} (4); the
    last two are not subgroups, and the witness is 2, the least point of
    class 1, as the scalar scan over the points finds."""
    space = eq.build_space(1.0 - np.eye(5), [])
    maps = [{x: x for x in range(5)}, {2: 2, 3: 3}, {4: 4}]
    assert_same_binding(space, eq.build_group(cyclic_table(3)), maps)
    assert result(eq.bind_action, space, eq.build_group(cyclic_table(3)), maps)[1] == \
        ("NotHomomorphism", "NotHomomorphism: stabilizer is not a subgroup (witness: 2)", 2)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_action_array_matches_the_maps(name, monkeypatch):
    """The action array each scenario passes to bind_action_array, read as
    maps, against the scalar binding of those maps."""
    calls = []
    bind = eq.gspace.bind_action_array
    monkeypatch.setattr(eq.scenarios, "bind_action_array", lambda *args: calls.append(args) or bind(*args))
    gs = eq.generate_scenario(name, SCENARIOS[name])
    ((space, group, images),) = calls
    maps = [{x: gx for x, gx in enumerate(row) if gx >= 0} for row in np.asarray(images).tolist()]
    assert_same_binding(space, group, maps)
    assert np.array_equal(gs.action, oracles.action_array(maps, space.n_points))


def path_space(n):
    return eq.build_space(np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float),
                          [(i, i + 1) for i in range(n - 1)])


def cycle_space(n):
    hops = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return eq.build_space(np.minimum(hops, n - hops).astype(float), [(i, (i + 1) % n) for i in range(n)])


def rotations(n):
    return [{x: (x + g) % n for x in range(n)} for g in range(n)]


def planted_binding(defect):
    """(space, group, maps) with one planted defect whose scalar witness is
    an element g >= 16. C32 acts on 64 points, so a block of the
    composition scan holds 16 elements and the witness lies in its second
    block; at a cap of 1 every element is a block of its own."""
    if defect == "composition":
        # elements 1..15 act by empty maps, so their triples never count;
        # element 16 moves 0 -> 1 -> 2, but 16 + 16 = 0 acts as the identity
        maps = [{x: x for x in range(64)}] + [{} for _ in range(31)]
        maps[16] = {0: 1, 1: 2}
        return path_space(64), eq.build_group(cyclic_table(32)), maps
    group = eq.build_group(cyclic_table(32), generators=[1])
    if defect == "inverse":
        # inv[20] names 11, not 12: the composition scan never reads inv
        inv = group.inv.copy()
        inv[[20, 21]] = inv[[21, 20]]
        inv.setflags(write=False)
        return cycle_space(32), replace(group, inv=inv), rotations(32)
    # rotations of a 32-cycle whose edge (0, 1) is missing, each element
    # but the identity restricted so that none below 16 maps an edge onto
    # (0, 1); element 16 maps (16, 17) onto it
    maps = rotations(32)
    space = eq.build_space(cycle_space(32).base_metric, [(i, i + 1) for i in range(1, 31)] + [(0, 31)])
    maps[16] = {x: (x + 16) % 32 for x in range(32) if x not in (15, 31)}
    for g in range(1, 16):  # elements below 16 map no edge onto (0, 1)
        maps[g] = {x: (x + g) % 32 for x in range(32) if (x + g) % 32 not in (0, 1)}
        maps[32 - g] = {y: x for x, y in maps[g].items()}
    return space, group, maps


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("defect", ["composition", "inverse", "edge"])
def test_bind_action_defects_past_the_first_block_match_scalar(defect, cap, monkeypatch):
    """A composition mismatch, a non-inverting inverse and an unpreserved
    edge whose first witness is an element past the first block: the
    stacked scans raise the scalar scan's error and witness."""
    if cap is not None:
        monkeypatch.setattr(eq.gspace, "_BLOCK", cap)
    space, group, maps = planted_binding(defect)
    err = result(eq.bind_action, space, group, maps)[1]
    assert err == result(oracles.bind_action, space, group, maps)[1]
    code, witness = {"composition": ("NotHomomorphism", (16, 16, 0)),
                     "inverse": ("NotHomomorphism", (20, 0)),
                     "edge": ("NotGraphAutomorphism", None)}[defect]
    assert err[0] == code
    assert err[2][0] >= 16 and (witness is None or err[2] == witness)


def non_associative_table(k):
    """Z_k with the entries (a, b) and (a, c) of row a swapped: a loop with
    the same identity and inverses that is not associative."""
    table = cyclic_table(k)
    a, b, c = k - 3, 1, 2
    table[a][b], table[a][c] = table[a][c], table[a][b]
    return table


@pytest.mark.parametrize("cap", [None, 16 * 16, 1])
def test_non_associative_table_past_the_first_block_matches_scalar(cap, monkeypatch):
    """At a cap of |G|^2 every row g is a block of its own, so the witness
    row lies in a later block."""
    if cap is not None:
        monkeypatch.setattr(eq.gspace, "_BLOCK", cap)
    table = non_associative_table(16)
    err = result(eq.build_group, table)[1]
    assert err == result(oracles.build_group, table)[1]
    assert err[0] == "NonAssociative" and err[2][0] >= 1


def reflection_on_a_sparse_group(n=32, order=16):
    """C16 on an n-point path: element 8 reflects it, every other element
    but the identity acts by the empty map. At n = 32 a block of the
    invariance check holds 8 elements, so element 8 opens the second."""
    maps = [{x: x for x in range(n)}] + [{} for _ in range(order - 1)]
    maps[order // 2] = {x: n - 1 - x for x in range(n)}
    return eq.bind_action(path_space(n), eq.build_group(cyclic_table(order)), maps)


@pytest.mark.parametrize("nan", [False, True])
def test_g_invariance_defect_in_the_second_block_matches_scalar(nan):
    """A perturbed pair and an infinite one, seen first by element 8, the
    first of the second block; with a nan entry planted too, which the
    scalar loop counts as a gap of inf."""
    gs = reflection_on_a_sparse_group()
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_G = eq.group_metric(gs.group, "discrete")
    d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
    graph = eq.build_allowability_graph(gs, quotient, family=family, d_O=d_O, mode="general")
    lifted = eq.lift_metric(graph)
    rho = lifted.rho.copy()
    rho[0, 1] = rho[1, 0] = rho[0, 1] + 0.5
    rho[2, 5] = rho[5, 2] = np.inf
    if nan:
        rho[9, 20] = rho[20, 9] = np.nan
    planted = replace(lifted, rho=rho)
    for region in (None, frozenset(range(1, 31))):
        report = eq.verify_lifted_metric(gs, quotient, planted, region=region)
        assert report.lines() == oracles.verify_lifted_metric(gs, quotient, planted, region=region).lines()
        check = report["g_invariance"]
        # a nan distance is a gap of inf under every element, the identity too
        assert check.status == "fail" and check.witnesses[0][0] == (0 if nan else 8)


def assert_same_orbits(gs):
    """n_orbits, orbit_of, representative, the members of each orbit and
    the adjacency table equal to the union-find over the maps, field by
    field, and every index array read-only."""
    got, want = eq.compute_orbits(gs), oracles.compute_orbits(gs)
    k = want.n_orbits
    assert got.n_orbits == k
    assert got.orbit_of.tolist() == list(want.orbit_of)
    assert got.representative.tolist() == list(want.representative)
    assert tuple(oracles.members(got, o) for o in range(k)) == want.orbit_members
    assert got.offsets.tolist() == np.cumsum([0] + [len(m) for m in want.orbit_members]).tolist()
    assert oracles.adjacent_pairs(got) == want.quotient_adjacency
    assert got.adjacency.shape == (k, k) and (got.adjacency == got.adjacency.T).all()
    assert not got.adjacency.diagonal().any()
    for name in ("orbit_of", "representative", "order", "offsets", "adjacency"):
        assert not getattr(got, name).flags.writeable, name


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


@pytest.mark.parametrize("name,params", SWEEP_CELLS)
def test_orbits_match_union_find_on_perfbench_grid(name, params):
    assert_same_orbits(eq.generate_scenario(name, dict(params)))


def assert_isometric_quotient_matches(gs, tol=1e-9):
    orbits = eq.compute_orbits(gs)
    got, err = result(eq.quotient_metric, gs, orbits, "isometric", None, tol)
    ref, ref_err = result(oracles.isometric_quotient_table, gs, orbits, tol)
    assert err == ref_err
    if got is not None:
        assert got.d.tobytes() == ref.tobytes()
    assert_orbit_minima_match(orbits, gs.space.base_metric)
    return err


def assert_orbit_minima_match(orbits, table):
    """orbit_minima against oracles.min_over_lifts at each pair of orbits
    a < b, mirrored, with a zero diagonal: bitwise equal."""
    k = orbits.n_orbits
    members = [oracles.members(orbits, o) for o in range(k)]
    ref = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            ref[a, b] = ref[b, a] = oracles.min_over_lifts(table, members[a], members[b])
    assert eq.quotient.orbit_minima(orbits, table).tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_isometric_quotient_matches_scalar(name):
    assert assert_isometric_quotient_matches(eq.generate_scenario(name, SCENARIOS[name])) is None


def test_isometric_quotient_matches_scalar_on_random_spaces():
    """Also orbit_minima of an asymmetric table, which must read a < b."""
    for seed in range(60):
        gs = random_gspace(seed)
        assert assert_isometric_quotient_matches(gs) is None
        assert_orbit_minima_match(eq.compute_orbits(gs), np.random.default_rng(seed).random((gs.n_points,) * 2))


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


# The general-mode allowability edges against the pair loops of
# oracles.general_edges, the cover-mode ones against the set pairs of
# oracles.cover_edges, the naive ones against oracles.naive_edges, and the
# lift's components against graph_components
# over the edge set: equal edge tuples, equal component tuples.


def assert_lift_matches(gs, quotient, family, d_O, mode="general", enlargement=1.0):
    """The edge arrays equal the oracle's sorted tuples, kinds by name and
    weights bit for bit, and so does the edges view."""
    graph = eq.build_allowability_graph(gs, quotient, family=family, d_O=d_O, mode=mode,
                                        enlargement_factor=enlargement)
    if mode == "general":
        want = oracles.general_edges(gs, quotient, family, d_O)
    elif mode == "cover":
        assert graph.small_sets == oracles.cover_small_sets(gs, quotient, enlargement)
        want = oracles.cover_edges(quotient, graph.small_sets)
    else:
        want = oracles.naive_edges(quotient)
    assert graph.edges == want
    u, v, weight, kind = (list(c) for c in zip(*want)) if want else ([],) * 4
    assert (graph.u.tolist(), graph.v.tolist()) == (u, v)
    assert graph.weight.tobytes() == np.array(weight, dtype=float).tobytes()
    assert [lift.EDGE_KINDS[k] for k in graph.kind.tolist()] == kind
    assert not any(a.flags.writeable for a in (graph.u, graph.v, graph.weight, graph.kind))
    assert graph.weight_matrix().tobytes() == oracles.weight_matrix(graph).tobytes()
    want = graph_components(gs.n_points, {(u, v) for u, v, _, _ in graph.edges})
    assert eq.lift_metric(graph).components == tuple(tuple(c) for c in want)
    return graph


@pytest.mark.parametrize("name,params", GENERAL_CELLS)
def test_lift_edges_and_components_match_scalar_on_small_sweep_cells(name, params):
    r = pipeline(name, dict(params))
    for mode in ("general", "cover", "naive"):
        assert_lift_matches(r["gspace"], r["quotient"], r["family"], r["d_O"], mode)


def test_lift_edges_and_components_match_scalar_on_random_spaces():
    for seed in range(100):
        gs = random_gspace(seed)
        quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
        family = eq.build_slice_family(gs, quotient)
        d_O = eq.build_orbital_metric(gs, quotient, family, eq.group_metric(gs.group, "discrete"))
        for mode in ("general", "cover", "naive"):
            assert_lift_matches(gs, quotient, family, d_O, mode)


def test_lift_edges_match_scalar_on_a_partial_shift_with_nan_pairs():
    """shift(8, .25, 2), whose d_O is nan at pairs no element joins, and the
    same with a slice pair and an orbit pair of d_O planted nan: those
    edges are left out."""
    r = pipeline("shift", {"m": 8, "h": 0.25, "N": 2})
    gs, family = r["gspace"], r["family"]
    assert np.isnan(r["d_O"].values).any()
    graph = assert_lift_matches(gs, r["quotient"], family, r["d_O"])
    u, v = next((u, v) for u, v, _, kind in graph.edges if kind == "slice")
    a, b = next((u, v) for u, v, _, kind in graph.edges if kind == "orbit")
    values = np.array(r["d_O"].values)
    values[u, v] = values[v, u] = values[a, b] = values[b, a] = np.nan
    planted = assert_lift_matches(gs, r["quotient"], family, replace(r["d_O"], values=values))
    assert {(u, v), (a, b)}.isdisjoint((e[0], e[1]) for e in planted.edges)


def test_lift_components_match_scalar_on_a_disconnected_cover():
    """reflection(2, 1) in cover mode at enlargement 1000: no edges, every
    point a component of its own."""
    r = pipeline("reflection", {"m": 2, "h": 1.0}, mode="cover", enlargement=1000.0)
    assert_lift_matches(r["gspace"], r["quotient"], r["family"], None, "cover", 1000.0)
    assert len(r["lifted"].components) == r["gspace"].n_points > 1

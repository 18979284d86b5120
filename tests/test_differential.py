"""Differential tests: the row-vectorised checks and the ball-prefix index
against the scalar references in tests/oracles.py. Equal means the same
error code, message and witness, or the same violation list, residual and
report lines."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import equimetric as eq
from equimetric.errors import ValidationError
from equimetric.gspace import _check_metric_table
from equimetric.orbital import _check_left_invariance
from equimetric.scenarios import shift_acceptance_region
from equimetric.verify import _metric_axiom_violations
from tests import oracles
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


def _region(name, params):
    if name != "shift":
        return None
    return shift_acceptance_region(params["m"], params["h"], params["N"])


def assert_lifted_checks_match(r, region=None):
    gs, quotient, lifted = r["gspace"], r["quotient"], r["lifted"]
    report = eq.verify_lifted_metric(gs, quotient, lifted, region=region)
    ref = oracles.lifted_pair_checks(gs, quotient, lifted.rho, region=region)
    if np.isfinite(lifted.rho[np.triu_indices(gs.n_points, 1)]).any():
        assert [report[c.name].line() for c in ref.checks] == ref.lines()
    else:
        assert report["g_invariance"].status == "advisory"
    assert _metric_axiom_violations(lifted.rho, 1e-9) == \
        oracles.metric_axiom_violations(lifted.rho, 1e-9)


def assert_ball_inclusions_match(r):
    args = (r["gspace"], r["quotient"], r["family"], r["d_G"], r["d_O"], r["lifted"])
    assert eq.verify_ball_inclusions(*args).lines() == \
        oracles.verify_ball_inclusions(*args).lines()


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


@pytest.mark.parametrize("plant,failing", [
    ("diagonal", ["motion_inside_rho_ball"]),
    ("orbit_zero", ["rho_ball_inside_motion"]),
    ("gap", []),
    ("below_quotient", []),
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
    else:  # one pair below d(p(x), p(y)) within tol, one beyond it
        d = r["quotient"].d
        rho[0, 1] = rho[1, 0] = d[0, 1] - 5e-10
        rho[0, 2] = rho[2, 0] = d[0, 2] - 0.1
    r["lifted"] = replace(r["lifted"], rho=rho)
    assert_lifted_checks_match(r)
    assert_ball_inclusions_match(r)
    report = eq.verify_ball_inclusions(r["gspace"], r["quotient"], r["family"],
                                       r["d_G"], r["d_O"], r["lifted"])
    assert [c.name for c in report.checks if c.status == "fail"] == failing


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

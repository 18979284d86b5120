import math
import pytest

import equimetric as eq
from equimetric import SliceFamily, build_slice_family, verify_slice_family
from equimetric.slices import value_grid


def all_fail_names(report):
    return [c.name for c in report.checks if c.status == "fail"]


def test_value_grid_midpoints():
    assert value_grid([2.0, 1.0, 0.0, 1.0]) == [1.0, 1.5, 2.0]
    assert value_grid([]) == []


def test_circle_slices_are_neighbor_triples(circle12):
    gs, quotient, family = circle12
    for x in range(12):
        assert family.slice_of[x] == frozenset({(x - 1) % 12, x, (x + 1) % 12})
    assert not family.degenerate
    # one radius per orbit, shared across the family
    assert all(r == pytest.approx(math.pi / 3) for r in family.radius_of_orbit)


def test_built_families_verify_clean(circle12, reflection5):
    for gs, quotient, family in (circle12, reflection5):
        report = verify_slice_family(gs, quotient, family)
        assert all_fail_names(report) == []


def test_planted_bad_slice_is_caught(circle12):
    gs, quotient, family = circle12
    # widen the slice at point 0 to swallow its own translate at 120 degrees
    bad = list(family.slice_of)
    bad[0] = frozenset(range(0, 5))
    report = verify_slice_family(gs, quotient, SliceFamily.from_sets(
        bad, family.radius_of_orbit, family.construction_log, family.degenerate))
    fails = all_fail_names(report)
    assert "slice_translate_overlap" in fails or "slice_meets_orbit_once" in fails
    wit = report["slice_meets_orbit_once"].witnesses
    assert (0, 4) in wit
    # every hit, in scan order: g ascending, then (x, y, g) row-major
    assert report["slice_translate_overlap"].witnesses == [(0, 1), (0, 2)]
    assert report["family_condition_ii"].witnesses == [
        (0, 0, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 0, 1), (4, 3, 2), (4, 4, 2), (4, 5, 2), (11, 0, 1)]


def test_planted_openness_defect_is_caught(circle12):
    gs, quotient, family = circle12
    # S_11 cut to the ball of point 0 is the connected {11, 0, 1}, of which
    # S_0 = {11, 0} holds only a part
    bad = list(family.slice_of)
    bad[0] = frozenset({11, 0})
    bad[11] = frozenset({10, 11, 0, 1})
    report = verify_slice_family(gs, quotient, SliceFamily.from_sets(
        bad, family.radius_of_orbit, family.construction_log, family.degenerate))
    assert report["openness_condition_star"].status == "fail"
    assert report["openness_condition_star"].witnesses == [(0, 11, 0)]


def test_dihedral_family_degenerates_to_singletons():
    gs = eq.generate_scenario("dihedral", {"n": 8})
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = build_slice_family(gs, quotient)
    assert family.degenerate
    assert all(len(s) == 1 for s in family.slice_of)
    report = verify_slice_family(gs, quotient, family)
    assert all_fail_names(report) == []
    assert report["degenerate_family"].status == "advisory"


def test_disk_family_fixed_point():
    gs = eq.generate_scenario("disk", {"g": 3})
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = build_slice_family(gs, quotient)
    report = verify_slice_family(gs, quotient, family)
    assert all_fail_names(report) == []
    # the center's slice is stabilized by the whole group
    center = quotient.members(quotient.orbit_of[4])
    fixed = [x for x in range(9) if len(gs.stabilizer(x)) == 4][0]
    s = family.slice_of[fixed]
    for g in range(gs.group.order):
        assert set(gs.action[g, list(s)].tolist()) == s


def test_shrink_factor_shrinks_radii(circle12):
    gs, quotient, _ = circle12
    fam1 = build_slice_family(gs, quotient)
    fam8 = build_slice_family(gs, quotient, shrink_factor=8.0)
    assert max(fam8.radius_of_orbit) < min(fam1.radius_of_orbit)
    assert all_fail_names(verify_slice_family(gs, quotient, fam8)) == []


def test_construction_log_records_shrinks():
    gs = eq.generate_scenario("dihedral", {"n": 8})
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = build_slice_family(gs, quotient)
    conditions = {dict(rec).get("condition") for rec in family.construction_log}
    assert "singleton_fallback" in conditions
    assert "DegenerateFamily" in conditions

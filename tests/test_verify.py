import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import equimetric as eq
from tests import oracles
from tests.conftest import pipeline


def fails(report):
    return [c.name for c in report.checks if c.status == "fail"]


def test_clean_lift_passes_all(circle12):
    for mode in ("general", "cover"):
        r = pipeline("circle", {"n": 12, "k": 3}, mode=mode)
        report = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])
        assert fails(report) == []
        assert report["g_invariance"].max_residual <= 1e-12


def test_planted_zero_distance_fails_axioms():
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    rho = np.array(r["lifted"].rho)
    rho[0, 5] = rho[5, 0] = 0.0
    bad = replace(r["lifted"], rho=rho)
    report = eq.verify_lifted_metric(r["gspace"], r["quotient"], bad)
    check = report["metric_axioms"]
    assert check.status == "fail"
    assert ("zero_between_distinct", 0, 5) in check.witnesses


def test_cover_local_isometry_reported():
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    report = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])
    assert report["cover_local_isometry"].status == "pass"
    assert report["cover_local_isometry"].max_residual <= 1e-12


def test_planted_gap_in_a_small_set_fails_cover_local_isometry():
    """circle(12, 3) in cover mode: the pair (0, 1) lies in the small sets
    {0, 1, 2} and {11, 0, 1}, and one perturbation beyond tol names it
    once."""
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    assert {0, 1} <= set(r["graph"].small_sets[0])
    rho = np.array(r["lifted"].rho)
    rho[0, 1] = rho[1, 0] = rho[0, 1] + 1e-6
    bad = replace(r["lifted"], rho=rho)
    check = eq.verify_lifted_metric(r["gspace"], r["quotient"], bad)["cover_local_isometry"]
    assert (check.status, check.witnesses) == ("fail", [(0, 1)])
    assert check.max_residual == pytest.approx(1e-6)
    gap = abs(float(rho[0, 1]) - float(r["quotient"].d[0, 1]))
    at_tol = eq.verify_lifted_metric(r["gspace"], r["quotient"], bad, tol=gap)["cover_local_isometry"]
    assert (at_tol.status, at_tol.max_residual) == ("pass", gap)  # only a gap above tol fails


def test_all_infinite_lift_is_all_advisory():
    r = pipeline("reflection", {"m": 2, "h": 1.0}, mode="cover", enlargement=1000.0)
    report = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["metric_axioms"] == "advisory"
    assert statuses["lift_connected"] == "fail"


class TestBallInclusions:
    def test_worked_witness_on_circle(self):
        r = pipeline("circle", {"n": 12, "k": 3}, mode="general")
        gs, quotient, family = r["gspace"], r["quotient"], r["family"]
        d_G, lifted = r["d_G"], r["lifted"]
        assert oracles.group_ball(d_G, 0.55) == [gs.group.identity]
        motion = oracles.motion_set(gs, quotient, family, d_G, 0, 0.55, 0.55)
        assert motion == frozenset({11, 0, 1})
        ball = oracles.rho_ball(lifted, 0, 0.6)
        assert ball == frozenset({11, 0, 1})
        assert oracles.motion_inside_rho_ball(gs, quotient, family, d_G, lifted, 0, 0.55, 0.6)

    def test_reverse_inclusion_witness(self):
        r = pipeline("circle", {"n": 12, "k": 3}, mode="general")
        assert oracles.rho_ball_inside_motion(
            r["gspace"], r["quotient"], r["family"], r["d_G"], r["lifted"], 0, 0.5, 0.6
        )

    @pytest.mark.parametrize("name,params", [
        ("circle", {"n": 12, "k": 3}),
        ("reflection", {"m": 2, "h": 1.0}),
    ])
    def test_grid_search_finds_all_witnesses(self, name, params):
        r = pipeline(name, params, mode="general")
        report = eq.verify_ball_inclusions(
            r["gspace"], r["quotient"], r["family"], r["d_G"], r["d_O"], r["lifted"]
        )
        assert fails(report) == []


class TestQuotientConsistency:
    def test_cover_pushforward_is_exact(self):
        r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
        report = eq.quotient_consistency(r["gspace"], r["quotient"], r["lifted"])
        assert report["pushforward_is_metric"].status == "pass"
        assert report["pushforward_matches_quotient"].max_residual <= 1e-12

    def test_general_pushforward_metric_with_residual(self):
        r = pipeline("reflection", {"m": 2, "h": 1.0}, mode="general")
        report = eq.quotient_consistency(r["gspace"], r["quotient"], r["lifted"])
        assert report["pushforward_is_metric"].status == "pass"
        assert report["pushforward_matches_quotient"].status == "advisory"
        assert report["pushforward_matches_quotient"].max_residual >= 0.0

    def test_planted_zero_between_orbits_fails_pushforward_is_metric(self):
        """circle(12, 3), general mode, whose orbits are i mod 4: rho(0, 1)
        = 0 joins two orbits at distance 0, so the pushforward is no metric."""
        r = pipeline("circle", {"n": 12, "k": 3}, mode="general")
        orbit = r["quotient"].orbit_of
        assert orbit[0] != orbit[1]
        rho = np.array(r["lifted"].rho)
        rho[0, 1] = rho[1, 0] = 0.0
        bad = replace(r["lifted"], rho=rho)
        report = eq.quotient_consistency(r["gspace"], r["quotient"], bad)
        check = report["pushforward_is_metric"]
        assert check.status == "fail"
        assert ("zero_between_distinct", int(orbit[0]), int(orbit[1])) in check.witnesses
        assert report.lines() == oracles.quotient_consistency(r["gspace"], r["quotient"], bad).lines()

    def test_infinite_lift_degrades_to_advisory(self):
        r = pipeline("reflection", {"m": 2, "h": 1.0}, mode="cover", enlargement=1000.0)
        report = eq.quotient_consistency(r["gspace"], r["quotient"], r["lifted"])
        assert all(c.status == "advisory" for c in report.checks)


def test_region_restricts_invariance_check():
    r = pipeline("shift", {"m": 40, "h": 0.25, "N": 3}, mode="general")
    from equimetric.scenarios import shift_acceptance_region

    region = shift_acceptance_region(40, 0.25, 3)
    report = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"], region=region)
    assert report["g_invariance"].status == "pass"
    assert report["g_invariance_boundary_band"].status == "advisory"
    assert report["g_invariance_boundary_band"].max_residual > 0
    # without the region, truncation distortion is an honest failure
    full = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])
    assert full["g_invariance"].status == "fail"


def test_group_validation_and_invariance_memory_stays_bounded():
    """The traced peaks of building dihedral(64) (n = 64, |G| = 128) and of
    its lifted-metric checks stay within 2^20 + 32 (n^2 + |G|^2) bytes: the
    group, action and invariance checks gather capped blocks of elements,
    not a |G| x |G| x n table or all elements at once."""
    tracemalloc.start()
    try:
        gs = eq.generate_scenario("dihedral", {"n": 64})
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    r = pipeline("dihedral", {"n": 64})
    tracemalloc.start()
    try:
        eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2**20 + 32 * (gs.n_points ** 2 + gs.group.order ** 2)
    assert build_peak <= bound
    assert verify_peak <= bound


_SCALAR_ENTRY_POINTS = {
    "build_space": lambda r, v: eq.build_space([[0, 1], [1, 0]], [(0, 1)], tol=v),
    "group_metric": lambda r, v: eq.group_metric(r["gspace"].group, tol=v),
    "quotient_metric[graph]": lambda r, v: eq.quotient_metric(r["gspace"], eq.compute_orbits(r["gspace"]), tol=v),
    "quotient_metric[isometric]": lambda r, v: eq.quotient_metric(
        r["gspace"], eq.compute_orbits(r["gspace"]), mode="isometric", tol=v),
    "quotient_metric[explicit]": lambda r, v: eq.quotient_metric(
        r["gspace"], eq.compute_orbits(r["gspace"]), mode="explicit", table=r["quotient"].d, tol=v),
    "build_slice_family[shrink_factor]": lambda r, v: eq.build_slice_family(
        r["gspace"], r["quotient"], shrink_factor=v),
    "cover_small_sets[enlargement_factor]": lambda r, v: eq.cover_small_sets(
        r["gspace"], r["quotient"], enlargement_factor=v),
    "cover_small_sets[tol]": lambda r, v: eq.cover_small_sets(r["gspace"], r["quotient"], tol=v),
    "verify_lifted_metric": lambda r, v: eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"], tol=v),
    "quotient_consistency": lambda r, v: eq.quotient_consistency(r["gspace"], r["quotient"], r["lifted"], tol=v),
}


@pytest.mark.parametrize("value,code", [(float("nan"), "NonFinite"), (float("inf"), "NonFinite"),
                                        (-1.0, "InvalidParams")])
@pytest.mark.parametrize("entry", sorted(_SCALAR_ENTRY_POINTS))
def test_non_finite_or_negative_scalar_rejected_at_every_entry_point(entry, value, code):
    """A NaN tolerance passes every `> tol` test and reported a planted zero
    as a metric; a NaN factor gave a degenerate slice family or no small
    sets. Each entry point raises the code the CLI gives for its config,
    and never returns or raises a raw exception; tol = 0 stays allowed."""
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    with pytest.raises(eq.ValidationError) as exc:
        _SCALAR_ENTRY_POINTS[entry](r, value)
    assert exc.value.code == code
    if entry.endswith("factor]"):
        with pytest.raises(eq.ValidationError) as exc:
            _SCALAR_ENTRY_POINTS[entry](r, 0.0)
        assert exc.value.code == "InvalidParams"
    else:
        _SCALAR_ENTRY_POINTS[entry](r, 0.0)

import math

import numpy as np
import pytest

import equimetric as eq
from equimetric import ValidationError, generate_scenario
from tests import oracles


def test_circle_structure():
    gs = generate_scenario("circle", {"n": 12, "k": 3})
    assert gs.n_points == 12
    assert gs.group.order == 3
    for x in range(12):
        assert gs.stabilizer(x) == (gs.group.identity,)
    assert gs.space.base_metric[0, 6] == pytest.approx(math.pi)
    assert gs.space.labels[1] == "30deg"


@pytest.mark.parametrize("n", [3, 12, 80, 97, 384])
def test_circle_metric_matches_scalar_reference_bitwise(n):
    got = generate_scenario("circle", {"n": n, "k": 1}).space.base_metric
    assert got.tobytes() == np.array(oracles.circle_metric(n), dtype=np.float64).tobytes()


@pytest.mark.parametrize("g", [3, 5, 11, 21])
def test_disk_metric_matches_scalar_reference_bitwise(g):
    got = generate_scenario("disk", {"g": g}).space.base_metric
    assert got.tobytes() == np.array(oracles.disk_metric(g), dtype=np.float64).tobytes()


@pytest.mark.parametrize("name,params", [
    ("reflection", {"m": 3, "h": 1.0}), ("reflection", {"m": 25, "h": 0.1}), ("reflection", {"m": 50, "h": 2}),
    ("reflection", {"m": 200, "h": 0.3}), ("shift", {"m": 40, "h": 0.25, "N": 3}), ("shift", {"m": 8, "h": 0.5, "N": 2}),
])
def test_line_metric_and_labels_match_scalar_reference_bitwise(name, params):
    space = generate_scenario(name, params).space
    metric, labels = oracles.line_space(params["m"], params["h"])
    assert space.base_metric.tobytes() == np.array(metric, dtype=np.float64).tobytes()
    assert space.labels == tuple(labels)


def test_circle_requires_divisor():
    with pytest.raises(ValidationError) as exc:
        generate_scenario("circle", {"n": 12, "k": 5})
    assert exc.value.code == "InvalidParams"


def test_reflection_structure():
    gs = generate_scenario("reflection", {"m": 2, "h": 1.0})
    assert gs.n_points == 5
    assert len(gs.stabilizer(2)) == 2  # the origin is fixed by the involution
    assert gs.apply(1, 0) == 4


def test_dihedral_single_orbit():
    gs = generate_scenario("dihedral", {"n": 8})
    assert gs.group.order == 16
    orbits = eq.compute_orbits(gs)
    assert orbits.n_orbits == 1


def test_disk_requires_odd_grid():
    with pytest.raises(ValidationError):
        generate_scenario("disk", {"g": 4})
    gs = generate_scenario("disk", {"g": 3})
    assert gs.n_points == 9
    assert gs.group.order == 4


def test_shift_partial_action_structure():
    gs = generate_scenario("shift", {"m": 40, "h": 0.25, "N": 3})
    assert gs.n_points == 81
    assert gs.group.order == 13
    # only the identity acts totally; shifts lose boundary points
    assert gs.total.tolist() == [g == gs.group.identity for g in range(13)]
    assert gs.apply(1, 0) == 4  # one unit = four indices
    assert gs.apply(1, 80) is None


def test_shift_requires_integer_inverse_spacing():
    with pytest.raises(ValidationError) as exc:
        generate_scenario("shift", {"m": 10, "h": 0.3, "N": 1})
    assert exc.value.code == "InvalidParams"


def test_shift_acceptance_region_excludes_boundary():
    from equimetric.scenarios import shift_acceptance_margin, shift_acceptance_region

    assert shift_acceptance_margin(0.25, 3) == pytest.approx(3.0)
    region = shift_acceptance_region(40, 0.25, 3)
    assert 40 in region and 0 not in region and 80 not in region
    assert min(region) == 13 and max(region) == 67


def test_unknown_scenario_and_params_rejected():
    with pytest.raises(ValidationError):
        generate_scenario("torus", {})
    with pytest.raises(ValidationError):
        generate_scenario("circle", {"n": 12, "k": 3, "extra": 1})
    with pytest.raises(ValidationError):
        generate_scenario("circle", {"n": 12})


@pytest.mark.parametrize("name,params", [
    ("shift", {"m": 4, "h": 2 ** 1100, "N": 1}),  # a raw OverflowError from math.isfinite before
    ("reflection", {"m": 4, "h": -(2 ** 1100)}),
    ("reflection", {"m": 4, "h": float("inf")}),
    ("shift", {"m": 4, "h": float("nan"), "N": 1}),
])
def test_real_parameter_past_the_float_range_rejected(name, params):
    with pytest.raises(ValidationError) as exc:
        generate_scenario(name, params)
    assert (exc.value.code, str(exc.value).split(" (witness")[0]) == \
        ("NonFinite", f"NonFinite: parameter 'h' of scenario {name!r} must be finite")


def test_real_parameter_given_as_a_large_int_in_the_float_range_reaches_the_builder():
    with pytest.raises(ValidationError) as exc:
        generate_scenario("shift", {"m": 4, "h": 10 ** 300, "N": 1})
    assert str(exc.value).startswith("InvalidParams: shift requires 1/h to be a positive integer")

import math

import numpy as np
import pytest

import equimetric as eq
from equimetric import ValidationError
from tests import oracles


def test_circle_orbits_are_residue_classes(circle12):
    gs, quotient, _ = circle12
    assert quotient.n_orbits == 4
    for x in range(12):
        assert quotient.orbit_of[x] == x % 4
    assert quotient.representative.tolist() == [0, 1, 2, 3]


def test_graph_mode_distances_on_circle(circle12):
    _, quotient, _ = circle12
    step = math.pi / 6
    assert quotient.d[0, 1] == pytest.approx(step, abs=1e-12)
    assert quotient.d[0, 2] == pytest.approx(2 * step, abs=1e-12)
    # the quotient is a 4-cycle: opposite orbits are two steps apart
    assert quotient.d[1, 3] == pytest.approx(2 * step, abs=1e-12)


def test_isometric_mode_matches_graph_mode_on_circle():
    gs = eq.generate_scenario("circle", {"n": 12, "k": 3})
    orbits = eq.compute_orbits(gs)
    d_graph = eq.quotient_metric(gs, orbits, mode="graph").d
    d_iso = eq.quotient_metric(gs, orbits, mode="isometric").d
    assert np.allclose(d_graph, d_iso, atol=1e-12)


def test_explicit_mode_validates_table():
    gs = eq.generate_scenario("reflection", {"m": 2, "h": 1.0})
    orbits = eq.compute_orbits(gs)
    good = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    q = eq.quotient_metric(gs, orbits, mode="explicit", table=good)
    assert q.d[0, 2] == 2.0
    with pytest.raises(ValidationError) as exc:
        eq.quotient_metric(gs, orbits, mode="explicit", table=[[0.0, -1.0], [-1.0, 0.0]])
    assert exc.value.code == "NotAMetric"


def test_separation_of_distinct_orbits(circle12):
    _, quotient, _ = circle12
    for a in range(quotient.n_orbits):
        for b in range(quotient.n_orbits):
            assert (quotient.d[a, b] == 0) == (a == b)


def test_disk_orbit_structure():
    gs = eq.generate_scenario("disk", {"g": 3})
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    orbit_members = [quotient.members(o).tolist() for o in range(quotient.n_orbits)]
    sizes = sorted(len(m) for m in orbit_members)
    assert sizes == [1, 4, 4]  # center, edge midpoints, corners
    center = next(i for i, m in enumerate(orbit_members) if len(m) == 1)
    fixed_point = orbit_members[center][0]
    assert len(gs.stabilizer(fixed_point)) == 4


def test_partial_action_orbits_are_translation_components():
    gs = eq.generate_scenario("shift", {"m": 4, "h": 0.5, "N": 1})
    orbits = eq.compute_orbits(gs)
    # shifts move 2 indices; orbits are the two index parities
    assert orbits.n_orbits == 2
    assert orbits.orbit_of.tolist() == [i % 2 for i in range(9)]


def test_ball_and_preimage(circle12):
    """The open ball is a row of d below the radius, and the preimage of an
    orbit its members; the oracles' set forms agree."""
    _, quotient, _ = circle12
    radius = math.pi / 6 + 1e-9
    assert np.flatnonzero(quotient.d[0] < radius).tolist() == [0, 1, 3]
    assert quotient.members(0).tolist() == [0, 4, 8]
    assert oracles.ball(quotient, 0, radius) == frozenset({0, 1, 3})
    assert oracles.preimage(quotient, {0}) == frozenset({0, 4, 8})


def test_quotient_fields_are_read_only_index_arrays(circle12):
    """orbit_of, representative, order and offsets are np.intp arrays and
    the adjacency a symmetric bool table with a False diagonal; none can
    be written."""
    _, quotient, _ = circle12
    for name in ("orbit_of", "representative", "order", "offsets", "adjacency"):
        a = getattr(quotient, name)
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[0] = a[0]
    for a in (quotient.orbit_of, quotient.representative, quotient.order, quotient.offsets):
        assert a.dtype == np.intp
    assert quotient.order.tolist() == [0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11]
    assert quotient.offsets.tolist() == [0, 3, 6, 9, 12]
    adjacency = quotient.adjacency
    assert adjacency.dtype == bool and adjacency.shape == (4, 4)
    assert (adjacency == adjacency.T).all() and not adjacency.diagonal().any()
    # the quotient of circle(12, 3) is a 4-cycle
    assert adjacency.sum(axis=1).tolist() == [2, 2, 2, 2] and not adjacency[0, 2] and not adjacency[1, 3]

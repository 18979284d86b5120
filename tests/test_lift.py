import math

import numpy as np
import pytest

import equimetric as eq
from equimetric import ValidationError
from tests.conftest import pipeline
from tests.oracles import cheapest_simple_chain


def test_cover_values_match_chain_oracle():
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    w = r["graph"].weight_matrix()
    rho = r["lifted"].rho
    assert rho[0, 1] == pytest.approx(math.pi / 6, abs=1e-9)
    assert rho[0, 4] == pytest.approx(2 * math.pi / 3, abs=1e-9)
    for y in range(1, 12):
        assert rho[0, y] == pytest.approx(cheapest_simple_chain(w, 0, y), abs=1e-12)


def test_cover_small_sets_are_elementary_arcs():
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    quotient = r["quotient"]
    for s in r["graph"].small_sets:
        orbs = [quotient.orbit_of[p] for p in s]
        assert len(orbs) == len(set(orbs))
        assert len(s) == 3


def test_naive_shrinks_under_refinement_cover_does_not():
    naive12 = pipeline("circle", {"n": 12, "k": 3}, mode="naive")["lifted"].rho[0, 4]
    naive24 = pipeline("circle", {"n": 24, "k": 3}, mode="naive")["lifted"].rho[0, 8]
    cover12 = pipeline("circle", {"n": 12, "k": 3}, mode="cover")["lifted"].rho[0, 4]
    cover24 = pipeline("circle", {"n": 24, "k": 3}, mode="cover")["lifted"].rho[0, 8]
    assert naive12 <= math.pi / 3 + 1e-9
    assert naive24 < naive12 - 1e-9
    assert cover12 == pytest.approx(2 * math.pi / 3, abs=1e-9)
    assert cover24 == pytest.approx(2 * math.pi / 3, abs=1e-9)


def test_general_mode_orbit_jumps_cost_orbital_distance():
    r = pipeline("circle", {"n": 12, "k": 3}, mode="general")
    rho = r["lifted"].rho
    # within an orbit the cheapest move is a single group jump of cost 1
    assert rho[0, 4] == pytest.approx(1.0, abs=1e-12)
    # adjacent points: one slice edge
    assert rho[0, 1] == pytest.approx(math.pi / 6, abs=1e-12)


def test_orbit_edges_join_each_point_to_its_translates():
    """One edge per pair u < g.u; none at the fixed point 2 of the flip, nor
    from the identity."""
    r = pipeline("reflection", {"m": 2, "h": 1.0}, mode="general")
    assert [e for e in r["graph"].edges if e[3] == "orbit"] == [(0, 4, 1.0, "orbit"), (1, 3, 1.0, "orbit")]


def test_general_mode_requires_orbital_metric(circle12):
    gs, quotient, family = circle12
    with pytest.raises(ValidationError) as exc:
        eq.build_allowability_graph(gs, quotient, family=family, mode="general")
    assert exc.value.code == "NoOrbitalMetric"


def test_large_enlargement_disconnects_cover():
    r = pipeline("reflection", {"m": 2, "h": 1.0}, mode="cover", enlargement=1000.0)
    assert not r["lifted"].connected
    assert np.isinf(r["lifted"].rho[0, 1])


def test_witnesses_are_lexicographically_minimal_shortest_paths():
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    lifted = r["lifted"]
    w = r["graph"].weight_matrix()
    for x in range(12):
        for y in range(x + 1, 12):
            path = lifted.witness(x, y)
            assert path[0] == x and path[-1] == y
            cost = sum(w[path[i], path[i + 1]] for i in range(len(path) - 1))
            assert cost == pytest.approx(lifted.rho[x, y], abs=1e-9)
            # greedy smallest-next-vertex: no smaller first step stays optimal
            for v in range(path[1]):
                if v == x or not np.isfinite(w[x, v]):
                    continue
                assert not (
                    lifted.rho[v, y] < lifted.rho[x, y]
                    and abs(w[x, v] + lifted.rho[v, y] - lifted.rho[x, y]) <= 1e-9
                )


def test_lifted_invariance_is_exact():
    for mode in ("general", "cover", "naive"):
        r = pipeline("circle", {"n": 12, "k": 3}, mode=mode)
        gs, rho = r["gspace"], r["lifted"].rho
        for g in np.flatnonzero(gs.total):
            perm = gs.action[g, :12]
            assert np.array_equal(rho[np.ix_(perm, perm)], rho)


def test_unknown_mode_rejected(circle12):
    gs, quotient, family = circle12
    with pytest.raises(ValidationError):
        eq.build_allowability_graph(gs, quotient, family=family, mode="bogus")

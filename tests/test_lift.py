import math
from dataclasses import replace

import numpy as np
import pytest

import equimetric as eq
from equimetric import ValidationError
from equimetric.lift import EDGE_KINDS
from tests.conftest import pipeline
from tests import oracles
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


def edge_arrays(edges):
    """The AllowabilityGraph arrays of (u, v, weight, kind name) tuples."""
    u, v, weight, kind = zip(*edges) if edges else ((),) * 4
    return dict(u=np.array(u, dtype=np.intp), v=np.array(v, dtype=np.intp), weight=np.array(weight, dtype=float),
                kind=np.array([EDGE_KINDS.index(k) for k in kind], dtype=np.int8))


def test_weight_matrix_keeps_the_least_weight_and_the_earlier_of_equal_ones():
    """Duplicate edges of a pair, such as the orbit edges of two elements
    that move u to the same point, give the least weight. Of 0.0 and -0.0,
    equal under <, the earlier edge's stays, in both mirrored cells, as in
    the loop of oracles.weight_matrix."""
    edges = ((0, 1, 2.0, "orbit"), (0, 1, 0.5, "orbit"), (0, 1, 1.0, "orbit"),
             (0, 2, -0.0, "orbit"), (0, 2, 0.0, "orbit"), (1, 2, 0.0, "orbit"), (1, 2, -0.0, "slice"))
    graph = eq.AllowabilityGraph(n_points=4, mode="general", **edge_arrays(edges))
    assert graph.edges == edges
    w = graph.weight_matrix()
    assert w.tobytes() == oracles.weight_matrix(graph).tobytes()
    assert w[0, 1] == w[1, 0] == 0.5 and np.isinf(w[3, :3]).all()
    assert np.signbit([w[0, 2], w[2, 0]]).all() and not np.signbit([w[1, 2], w[2, 1]]).any()
    assert eq.AllowabilityGraph(n_points=2, mode="cover", **edge_arrays(())).weight_matrix().tolist() == \
        [[0.0, np.inf], [np.inf, 0.0]]


@pytest.mark.parametrize("mode", ["general", "cover", "naive"])
def test_allowability_arrays_are_read_only_and_typed(mode):
    graph = pipeline("circle", {"n": 12, "k": 3}, mode=mode)["graph"]
    for name, dtype in (("u", np.intp), ("v", np.intp), ("weight", np.float64), ("kind", np.int8)):
        a = getattr(graph, name)
        assert a.dtype == dtype and a.shape == (len(graph.edges),) and not a.flags.writeable
    assert (graph.u < graph.v).all()
    # orbit and slice edges, the only kinds one graph mixes, sort as their names do
    assert EDGE_KINDS.index("orbit") < EDGE_KINDS.index("slice")


def test_duplicate_orbit_edges_are_kept():
    """dihedral(6): a rotation and a reflection move each point to the
    same point, so each pair u < g.u has an orbit edge per element."""
    r = pipeline("dihedral", {"n": 6})
    gs, graph = r["gspace"], r["graph"]
    moves = [(u, gu) for row in gs.action[:, :6].tolist() for u, gu in enumerate(row) if gu > u]
    orbit = [(u, v) for u, v, _, kind in graph.edges if kind == "orbit"]
    assert orbit == sorted(moves) and len(set(orbit)) < len(orbit)


def test_orbit_edge_sorts_before_slice_edge_and_keeps_its_signed_zero():
    """circle(12, 3) with a planted slice S_0 = {0, 4}, an orbit pair, and
    d_O(0, 4) = -0.0: the slice edge weighs d(o, o) + -0.0 = 0.0 and the
    orbit edge -0.0. Equal as floats, they sort by kind, the orbit edge
    first, and the weight table keeps the first one's -0.0."""
    r = pipeline("circle", {"n": 12, "k": 3})
    gs, quotient, family = r["gspace"], r["quotient"], r["family"]
    slices = [{x} for x in range(12)]
    slices[0] = {0, 4}
    planted = eq.SliceFamily.from_sets(slices, family.radius_of_orbit)
    values = np.array(r["d_O"].values)
    values[0, 4] = values[4, 0] = -0.0
    d_O = replace(r["d_O"], values=values)
    graph = eq.build_allowability_graph(gs, quotient, family=planted, d_O=d_O, mode="general")
    assert graph.edges == oracles.general_edges(gs, quotient, planted, d_O)
    head = graph.edges[:2]
    assert [e[:2] + e[3:] for e in head] == [(0, 4, "orbit"), (0, 4, "slice")]
    assert np.signbit(graph.weight[:2]).tolist() == [True, False]
    w = graph.weight_matrix()
    assert w.tobytes() == oracles.weight_matrix(graph).tobytes()
    assert np.signbit([w[0, 4], w[4, 0]]).all()

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import equimetric as eq
from equimetric import ValidationError, build_group, group_metric
from tests.conftest import pipeline
from tests.oracles import two_sided_coset_distance
from tests.randspaces import cyclic_table, dihedral_table


def all_fail_names(report):
    return [c.name for c in report.checks if c.status == "fail"]


class TestGroupMetric:
    def test_discrete_is_biinvariant(self):
        g = build_group(dihedral_table(4))
        d = group_metric(g, "discrete", scale=2.0)
        assert d.table[0, 0] == 0.0
        assert d.table[1, 5] == 2.0
        assert d.right_invariant_for(range(g.order))

    def test_word_metric_on_c6(self):
        g = build_group(cyclic_table(6))
        d = group_metric(g, "word", generators=[1, 5])
        assert d.table[0, 3] == 3.0
        assert d.table[0, 5] == 1.0
        assert d.table[2, 4] == 2.0  # left invariance: same as d(0, 2)

    def test_word_metric_needs_inverse_closed_generators(self):
        g = build_group(cyclic_table(6))
        with pytest.raises(ValidationError) as exc:
            group_metric(g, "word", generators=[1])
        assert exc.value.code == "GeneratorsNotInverseClosed"

    def test_explicit_must_be_left_invariant(self):
        g = build_group(cyclic_table(3))
        bad = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        with pytest.raises(ValidationError) as exc:
            group_metric(g, "explicit", table=bad)
        assert exc.value.code == "NotLeftInvariant"

    @pytest.mark.parametrize("scale", ["1", None, True, [1.0], 1j])
    def test_discrete_scale_that_is_not_a_number_rejected(self, scale):
        """A string or None raised a raw TypeError before, and True read as 1."""
        g = build_group(cyclic_table(3))
        with pytest.raises(ValidationError) as exc:
            group_metric(g, "discrete", scale=scale)
        assert (exc.value.code, str(exc.value)) == \
            ("InvalidParams", "InvalidParams: discrete metric scale must be a number")

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_non_finite_discrete_scale_rejected(self, scale):
        g = build_group(cyclic_table(3))
        with pytest.raises(ValidationError) as exc:
            group_metric(g, "discrete", scale=scale)
        assert exc.value.code == "NonFinite"
        assert exc.value.witness == (0, 1)


class TestCosetDistance:
    @pytest.mark.parametrize("table,kind,gens", [
        (cyclic_table(4), "word", [1, 3]),
        (cyclic_table(4), "discrete", None),
        (cyclic_table(6), "word", [1, 5]),
        (cyclic_table(6), "discrete", None),
        (dihedral_table(4), "word", None),
        (dihedral_table(4), "discrete", None),
    ])
    def test_forms_agree_when_right_invariant(self, table, kind, gens):
        g = build_group(table)
        if kind == "word" and gens is None:
            # dihedral: rotation by one step and the self-inverse flip
            gens = sorted({1, g.inv[1], 4})
        d = group_metric(g, kind, generators=gens)
        for K in g.subgroups():
            if not d.right_invariant_for(K):
                continue
            for a in range(g.order):
                for b in range(g.order):
                    v = float(d.coset_table(K)[a, b])
                    assert v == two_sided_coset_distance(d, K, a, b)
                    assert v <= d.table[a, b] + 1e-12

    @pytest.mark.parametrize("table", [cyclic_table(6), dihedral_table(4), dihedral_table(5)])
    def test_never_exceeds_the_group_distance(self, table):
        """u = e lies in K, so d(g1 K, g2 K) <= d_G(g1, g2) exactly, in the
        one-sided and in the two-sided form: translated_motion_bound cannot
        fail, and is advisory. d(g, h) = f(g^-1 h) with f(x) = f(x^-1)."""
        g = build_group(table)
        f = 1.0 + np.arange(g.order) % 7 / 8.0
        f = np.maximum(f, f[g.inv])
        f[g.identity] = 0.0
        d = group_metric(g, "explicit", table=f[g.mul[g.inv]])
        forms = set()
        for K in g.subgroups():
            forms.add(d.right_invariant_for(K))
            assert (d.coset_table(K) <= d.table).all()
        assert forms == ({True} if table == cyclic_table(6) else {True, False})

    def test_requires_subgroup(self):
        g = build_group(cyclic_table(4))
        d = group_metric(g, "discrete")
        with pytest.raises(ValidationError) as exc:
            d.coset_table((0, 1))
        assert exc.value.code == "NotASubgroup"


class TestOrbitalMetric:
    def test_reflection_within_orbit_distance(self, reflection5):
        gs, quotient, family = reflection5
        d_G = group_metric(gs.group, "discrete", scale=1.0)
        d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
        # points at +1 and -1 are swapped by the involution: distance 1
        assert d_O.values[1, 3] == pytest.approx(1.0, abs=1e-12)
        assert d_O.values[1, 2] == 0.0  # different orbits

    def test_scale_propagates(self, circle12):
        gs, quotient, family = circle12
        d_O1 = eq.build_orbital_metric(gs, quotient, family, group_metric(gs.group, "discrete", scale=1.0))
        d_O3 = eq.build_orbital_metric(gs, quotient, family, group_metric(gs.group, "discrete", scale=3.0))
        assert d_O3.values[0, 4] == pytest.approx(3.0 * d_O1.values[0, 4], abs=1e-12)

    def test_discrete_metric_passes_compatibility_check(self):
        gs = eq.generate_scenario("disk", {"g": 3})
        quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
        family = eq.build_slice_family(gs, quotient)
        # the discrete metric is bi-invariant, so every stabilizer passes;
        # test_word_metric_on_dihedral_point_stabilizers covers the rejection
        d_G = group_metric(gs.group, "discrete")
        d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
        assert np.isfinite(d_O.values).all()

    @pytest.mark.parametrize("n,witness", [(4, None), (5, 1), (6, 1)])
    def test_word_metric_on_dihedral_point_stabilizers(self, n, witness):
        # the stabilizer of a point is {e, reflection}, which is not normal;
        # the word metric on {r, r^-1, s} is right invariant for it at n = 4
        # but not at n = 5 or 6
        gs = eq.generate_scenario("dihedral", {"n": n})
        quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
        family = eq.build_slice_family(gs, quotient)
        g = gs.group
        gens = sorted(set(g.generators) | {g.inv[s] for s in g.generators})
        d_G = group_metric(g, "word", generators=gens)
        if witness is None:
            eq.build_orbital_metric(gs, quotient, family, d_G)
            return
        with pytest.raises(ValidationError) as exc:
            eq.build_orbital_metric(gs, quotient, family, d_G)
        assert exc.value.code == "IncompatibleGroupMetric"
        assert exc.value.witness == witness

    def test_chi_rows_sum_to_one(self, circle12):
        gs, quotient, family = circle12
        d_G = group_metric(gs.group, "discrete")
        d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
        assert np.allclose(d_O.chi.sum(axis=1), 1.0, atol=1e-12)

    def test_invariance_of_orbital_values(self, circle12):
        gs, quotient, family = circle12
        d_G = group_metric(gs.group, "discrete")
        d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
        for g in np.flatnonzero(gs.total):
            for x in range(12):
                for y in range(12):
                    gx, gy = gs.apply(g, x), gs.apply(g, y)
                    assert d_O.values[gx, gy] == pytest.approx(d_O.values[x, y], abs=1e-12)


class TestOrbitalProperties:
    @pytest.mark.parametrize("name,params", [
        ("circle", {"n": 12, "k": 3}),
        ("reflection", {"m": 2, "h": 1.0}),
        ("dihedral", {"n": 8}),
        ("disk", {"g": 3}),
    ])
    def test_properties_hold_on_scenarios(self, name, params):
        gs = eq.generate_scenario(name, params)
        quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
        family = eq.build_slice_family(gs, quotient)
        d_G = group_metric(gs.group, "discrete", scale=1.0)
        d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
        report = eq.verify_orbital_properties(gs, quotient, family, d_O, d_G)
        assert all_fail_names(report) == []


class TestPlantedOrbitalDefects:
    """Each pass/fail orbital check turned to fail by one planted defect."""

    @staticmethod
    def report(r, values):
        d_O = replace(r["d_O"], values=values)
        return eq.verify_orbital_properties(r["gspace"], r["quotient"], r["family"], d_O, r["d_G"])

    def test_nonzero_diagonal_fails_property_A(self):
        r = pipeline("circle", {"n": 12, "k": 3})
        values = np.array(r["d_O"].values)
        values[0, 0] = 0.5  # x moves by 0.5 under the identity
        check = self.report(r, values)["property_A"]
        assert check.status == "fail"
        assert check.witnesses == [(0, 0.5)]

    def test_orbit_mate_at_zero_fails_property_C(self):
        r = pipeline("circle", {"n": 12, "k": 3})
        values = np.array(r["d_O"].values)
        values[0, 4] = values[4, 0] = 0.0  # a far group element moves x by 0
        check = self.report(r, values)["property_C"]
        assert check.status == "fail"
        assert len(check.witnesses) == 6
        assert check.witnesses[0] == (0, 0.5235987755982988)

    def test_slice_grown_by_orbit_mate_fails_B_and_coset_chain(self):
        r = pipeline("dihedral", {"n": 4})
        family = r["family"]
        family = eq.SliceFamily.from_sets([s | {1} if x == 0 else s for x, s in enumerate(family.slice_of)],
                                          family.radius_of_orbit, family.construction_log, family.degenerate)
        d_O = eq.build_orbital_metric(r["gspace"], r["quotient"], family, r["d_G"])
        report = eq.verify_orbital_properties(r["gspace"], r["quotient"], family, d_O, r["d_G"])
        assert report["property_B"].status == "fail"
        assert report["property_B"].witnesses == [(0,)]
        chain = report["coset_inequality_chain"]
        assert chain.status == "fail"
        assert len(chain.witnesses) == 8
        assert chain.witnesses[0] == (0, 1, 0, 4)
        assert chain.max_residual == 1.0

    @pytest.mark.parametrize("bump,witness", [
        (0.0, (0, 1.0471975511965976)),
        (5e-13, (0, 1.0471975511965976)),  # within tol = 1e-12
        (2e-12, (0, 0.5235987755982988)),  # beyond it: a slice point breaks minimality
    ])
    def test_property_B_tolerance_boundary(self, bump, witness):
        r = pipeline("circle", {"n": 12, "k": 3})
        values = np.array(r["d_O"].values)
        values[0, 4] += bump
        values[4, 0] += bump
        check = self.report(r, values)["property_B"]
        assert check.status == "pass"
        assert check.witnesses[0] == witness


@pytest.mark.parametrize("name,params", [("dihedral", {"n": 64}), ("reflection", {"m": 50, "h": 1.0})])
def test_orbital_stage_memory_stays_bounded(name, params):
    """The traced peak of the orbital build and of its checks stays within
    2^20 + 32 (n^2 + |G|^2) bytes: the checks gather in capped blocks, not
    all points at once."""
    gs = eq.generate_scenario(name, params)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_G = group_metric(gs.group, "discrete")
    bound = 2**20 + 32 * (gs.n_points ** 2 + gs.group.order ** 2)
    tracemalloc.start()
    try:
        d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        eq.verify_orbital_properties(gs, quotient, family, d_O, d_G)
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak <= bound
    assert verify_peak <= bound


@pytest.mark.parametrize("name,params", [("reflection", {"m": 50, "h": 1.0}), ("dihedral", {"n": 24})])
def test_orbital_block_sizes_count_what_each_point_gathers(name, params, monkeypatch):
    """The items and cells handed to ``gspace._point_blocks`` count what
    each point gathers: |S_x| |G| pairs for property A, |G|^2 per y in S_x
    other than x for property B (y = x is skipped at tol >= 0), |G| for
    property C; and every run totals at most ``gspace._BLOCK`` unless it is
    a single point."""
    gs = eq.generate_scenario(name, params)
    quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
    family = eq.build_slice_family(gs, quotient)
    d_G = group_metric(gs.group, "discrete")
    d_O = eq.build_orbital_metric(gs, quotient, family, d_G)
    calls = []
    blocks = eq.gspace._point_blocks

    def recorded(offsets, cells):
        runs = list(blocks(offsets, cells))
        calls.append(((np.diff(offsets) * cells).tolist(), runs))
        return iter(runs)

    monkeypatch.setattr(eq.orbital, "_point_blocks", recorded)
    eq.verify_orbital_properties(gs, quotient, family, d_O, d_G)
    order = gs.group.order
    n_slice = [len(s) for s in family.slice_of]
    others = [len(s - {x}) for x, s in enumerate(family.slice_of)]
    assert [sizes for sizes, _ in calls] == [
        [k * order for k in n_slice], [k * order ** 2 for k in others], [order] * gs.n_points]
    for sizes, runs in calls:
        assert [x for run in runs for x in range(*run)] == list(range(gs.n_points))
        for start, stop in runs:
            assert sum(sizes[start:stop]) <= eq.gspace._BLOCK or stop - start == 1

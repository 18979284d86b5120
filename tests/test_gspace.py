import numpy as np
import pytest

from equimetric import (
    ValidationError,
    bind_action,
    build_group,
    build_space,
    graph_components,
    group_from_permutations,
)


def c3():
    return build_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def line_space(n=4):
    metric = [[abs(i - j) for j in range(n)] for i in range(n)]
    return build_space(metric, [(i, i + 1) for i in range(n - 1)])


class TestBuildGroup:
    def test_cyclic_identity_and_inverses(self):
        g = c3()
        assert g.identity == 0
        assert g.inv == (0, 2, 1)
        assert g.op(1, 2) == 0

    def test_no_identity_rejected(self):
        with pytest.raises(ValidationError) as exc:
            build_group([[1, 1], [1, 1]])
        assert exc.value.code == "NoIdentity"

    def test_non_associative_rejected(self):
        # a Latin square with identity that is not a group
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValidationError) as exc:
            build_group(table)
        assert exc.value.code in ("NonAssociative", "NoInverse")

    def test_generators_must_generate(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(ValidationError) as exc:
            build_group(table, generators=[2])
        assert exc.value.code == "GeneratorsDontGenerate"
        build_group(table, generators=[1])  # fine

    def test_subgroups_of_c4(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        g = build_group(table)
        assert g.subgroups() == [(0,), (0, 2), (0, 1, 2, 3)]

    def test_normality_in_dihedral(self):
        from tests.randspaces import dihedral_table

        g = build_group(dihedral_table(3))
        rotations = (0, 1, 2)
        assert g.is_subgroup(rotations) and g.is_normal(rotations)
        flip = (0, 3)
        assert g.is_subgroup(flip) and not g.is_normal(flip)


class TestPermutationClosure:
    def test_rotation_closure_order(self):
        group, perms = group_from_permutations([(1, 2, 3, 0)])
        assert group.order == 4
        assert perms[group.identity] == (0, 1, 2, 3)

    def test_composition_matches_table(self):
        group, perms = group_from_permutations([(1, 2, 0), (0, 2, 1)])
        assert group.order == 6
        for a in range(6):
            for b in range(6):
                composed = tuple(perms[a][perms[b][i]] for i in range(3))
                assert perms[group.op(a, b)] == composed


class TestBuildSpace:
    def test_metric_axioms_enforced(self):
        with pytest.raises(ValidationError) as exc:
            build_space([[0.0, 1.0], [1.0, 0.0]], [(0, 0)])
        assert exc.value.code == "InvalidParams"
        with pytest.raises(ValidationError) as exc:
            build_space([[0.0, 0.0], [0.0, 0.0]], [])
        assert exc.value.code == "NotAMetric"
        with pytest.raises(ValidationError) as exc:
            build_space([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]], [])
        assert exc.value.code == "NotAMetric"  # triangle violation

    def test_non_finite_entry_rejected(self):
        table = [[0.0, 1.0, 2.0], [1.0, 0.0, float("nan")], [2.0, float("nan"), 0.0]]
        with pytest.raises(ValidationError) as exc:
            build_space(table, [])
        assert exc.value.code == "NonFinite"
        assert exc.value.witness == (1, 2)

    def test_components(self):
        assert graph_components(5, {(0, 1), (3, 4)}) == [[0, 1], [2], [3, 4]]
        assert graph_components(5, {(0, 1), (3, 4)}, subset={0, 1, 3}) == [[0, 1], [3]]


class TestBindAction:
    def test_identity_must_be_total_identity(self):
        space = line_space(3)
        group = c3()
        act = [{0: 1, 1: 0, 2: 2}, {}, {}]
        with pytest.raises(ValidationError) as exc:
            bind_action(space, group, act)
        assert exc.value.code == "IdentityNotIdentity"

    def test_edge_preservation_required(self):
        space = line_space(4)
        group = build_group([[0, 1], [1, 0]])
        swap_ends = {0: 3, 3: 0, 1: 1, 2: 2}  # breaks the edge (0, 1)
        with pytest.raises(ValidationError) as exc:
            bind_action(space, group, [{i: i for i in range(4)}, swap_ends])
        assert exc.value.code == "NotGraphAutomorphism"

    def test_partial_composition_mismatch_rejected(self):
        space = line_space(3)
        table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        group = build_group(table)
        # element 1 "shifts", element 2 should shift twice but disagrees at 0
        act = [
            {0: 0, 1: 1, 2: 2},
            {0: 1, 1: 2},
            {0: 0},  # 1*1 = 2 should send 0 -> 2
        ]
        with pytest.raises(ValidationError) as exc:
            bind_action(space, group, act)
        assert exc.value.code in ("NotHomomorphism", "NotGraphAutomorphism")

    def test_stabilizers_computed(self):
        import equimetric as eq

        gs = eq.generate_scenario("reflection", {"m": 2, "h": 1.0})
        # the center point is fixed by the whole group
        assert gs.stabilizer(2) == (0, 1)
        assert gs.stabilizer(0) == (gs.group.identity,)

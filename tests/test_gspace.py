import itertools

import numpy as np
import pytest

from equimetric import (
    ValidationError,
    bind_action,
    build_group,
    build_space,
    generate_scenario,
    group_from_permutations,
)
from tests.oracles import graph_components


def c3():
    return build_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def line_space(n=4):
    metric = [[abs(i - j) for j in range(n)] for i in range(n)]
    return build_space(metric, [(i, i + 1) for i in range(n - 1)])


class TestBuildGroup:
    def test_cyclic_identity_and_inverses(self):
        g = c3()
        assert g.identity == 0
        assert g.inv.tolist() == [0, 2, 1]
        assert g.mul[1, 2] == 0

    def test_tables_are_read_only_index_arrays(self):
        g = c3()
        for table in (g.mul, g.inv):
            assert table.dtype == np.intp and not table.flags.writeable
        with pytest.raises(ValueError):
            g.mul[0, 0] = 1

    @pytest.mark.parametrize("table,witness", [
        ([[0, 2 ** 70], [1, 0]], (0, 1)),  # past the index type
        ([[0, 1], [1, 2]], (1, 1)),
        ([[0, 1], [-1, 0]], (1, 0)),
    ])
    def test_out_of_range_entry_rejected_at_the_first(self, table, witness):
        from tests import oracles

        for build in (build_group, oracles.build_group):
            with pytest.raises(ValidationError) as exc:
                build(table)
            assert (exc.value.code, str(exc.value), exc.value.witness) == \
                ("InvalidParams", f"InvalidParams: table entry out of range (witness: {witness})", witness)

    @pytest.mark.parametrize("table,witness,reason", [
        ([[0.0, 1.5], [1.9, 0.2]], (0, 1), "not an integer"),  # read as C2 by truncation before
        ([[0, float("nan")], [1, 0]], (0, 1), "not an integer"),
        ([[0, 1], [float("inf"), 0]], (1, 0), "not an integer"),
        ([[0, 5], [1.5, 0]], (0, 1), "out of range"),  # the first bad entry decides
        ([[0, 1.5], [5, 0]], (0, 1), "not an integer"),
        ([[0, 2 ** 70], [0.5, 0]], (0, 1), "out of range"),
    ])
    def test_non_integer_entry_rejected_at_the_first(self, table, witness, reason):
        from tests import oracles

        for build in (build_group, oracles.build_group):
            with pytest.raises(ValidationError) as exc:
                build(table)
            assert (exc.value.code, str(exc.value), exc.value.witness) == \
                ("InvalidParams", f"InvalidParams: table entry {reason} (witness: {witness})", witness)

    @pytest.mark.parametrize("table,witness", [
        ([["0"]], (0, 0)),  # read through float as the trivial group before
        ([["a"]], (0, 0)),  # a raw ValueError before
        ([[0, "1"], [1, 0]], (0, 1)),
        ([[0, 1.5], ["1", 0]], (1, 0)),  # before the non-integer 1.5
        ([[0, None], [1, 0]], (0, 1)),
        ([[0, 1j], [1, 0]], (0, 1)),
        (np.array([["0", "1"], ["1", "0"]]), (0, 0)),
    ])
    def test_non_number_entry_rejected_at_the_first(self, table, witness):
        from tests import oracles

        for build in (build_group, oracles.build_group):
            with pytest.raises(ValidationError) as exc:
                build(table)
            assert (exc.value.code, str(exc.value), exc.value.witness) == \
                ("InvalidParams", f"InvalidParams: table entry not a real number (witness: {witness})", witness)

    @pytest.mark.parametrize("table", [[[0.0, 1.0], [1.0, 0.0]], np.array([[0, 1], [1, 0]], dtype=np.uint8)])
    def test_integer_values_of_any_dtype_accepted(self, table):
        g = build_group(table)
        assert g.mul.dtype == np.intp and g.mul.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("table", [[], [[0, 1], [1]], [[0, 1]], [[0], [0]]])
    def test_ragged_or_empty_table_rejected(self, table):
        from tests import oracles

        for build in (build_group, oracles.build_group):
            with pytest.raises(ValidationError) as exc:
                build(table)
            assert str(exc.value) == "InvalidParams: multiplication table must be square and nonempty"

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
        # every element is its own inverse; (1 1) 2 = 2 but 1 (1 2) = 1 3 = 4
        assert (exc.value.code, str(exc.value), exc.value.witness) == \
            ("NonAssociative", "NonAssociative: associativity fails (witness: (1, 1, 2))", (1, 1, 2))

    def test_missing_inverse_rejected(self):
        # 0 is the identity, and no product with 1 gives it back
        with pytest.raises(ValidationError) as exc:
            build_group([[0, 1], [1, 1]])
        assert (exc.value.code, str(exc.value), exc.value.witness) == \
            ("NoInverse", "NoInverse: element has no two-sided inverse (witness: 1)", 1)

    def test_generators_must_generate(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(ValidationError) as exc:
            build_group(table, generators=[2])
        assert exc.value.code == "GeneratorsDontGenerate"
        build_group(table, generators=[1])  # fine
        build_group([[0]], generators=[])  # the empty word reaches the identity
        with pytest.raises(ValidationError) as exc:
            build_group([[0, 1], [1, 0]], generators=[])
        assert (exc.value.code, exc.value.witness) == ("GeneratorsDontGenerate", 1)

    @pytest.mark.parametrize("generators,witness,reason", [
        ([1.5], (0,), "not an integer"),  # read as 1 before
        ([1, float("nan")], (1,), "not an integer"),
        ([1, float("inf")], (1,), "not an integer"),
        ([4], (0,), "out of range"),
        ([1, -1], (1,), "out of range"),
        ([3, 2.5, 7], (1,), "not an integer"),  # the first bad entry decides
    ])
    def test_bad_generator_rejected_at_the_first(self, generators, witness, reason):
        from tests import oracles

        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        for build in (build_group, oracles.build_group):
            with pytest.raises(ValidationError) as exc:
                build(table, generators=generators)
            assert (exc.value.code, str(exc.value), exc.value.witness) == \
                ("InvalidParams", f"InvalidParams: generator index {reason} (witness: {witness})", witness)

    @pytest.mark.parametrize("generators", [["1"], [True], [1, True], [[1]], 1, [1, "x"], [None]])
    def test_generators_that_are_not_numbers_rejected(self, generators):
        """Strings and bools were read through int() as 1 before."""
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(ValidationError) as exc:
            build_group(table, generators=generators)
        assert str(exc.value) == "InvalidParams: generators must be a sequence of element indices"

    @pytest.mark.parametrize("generators", [[3.0], np.array([3], dtype=np.uint8), (np.int64(3),)])
    def test_integer_valued_generators_of_any_dtype_accepted(self, generators):
        g = build_group([[(a + b) % 4 for b in range(4)] for a in range(4)], generators=generators)
        assert g.generators == (3,) and type(g.generators[0]) is int

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
                assert perms[group.mul[a, b]] == composed


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

    def test_adjacency_lists_the_edges(self):
        space = line_space(4)
        assert space.indptr.tolist() == [0, 1, 3, 5, 6] and space.indices.tolist() == [1, 0, 2, 1, 3, 2]
        assert space.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
        empty = build_space([[0.0]], [])
        assert empty.indptr.tolist() == [0, 0] and empty.indices.size == 0 and empty.edges.shape == (0, 2)

    @pytest.mark.parametrize("name,params", [
        ("circle", {"n": 12, "k": 3}), ("dihedral", {"n": 6}), ("disk", {"g": 5}),
        ("reflection", {"m": 3, "h": 1.0}), ("shift", {"m": 8, "h": 0.5, "N": 2}),
    ])
    def test_adjacency_is_symmetric_sorted_and_equals_edges(self, name, params):
        """The CSR rows, ascending and each edge both ways, and the edge
        array, their rows u < v in order: read-only np.intp arrays."""
        space = generate_scenario(name, params).space
        indptr, indices = space.indptr.tolist(), space.indices.tolist()
        adjacency = [indices[a:b] for a, b in zip(indptr, indptr[1:])]
        assert len(adjacency) == space.n_points
        assert all(nbrs == sorted(set(nbrs)) for nbrs in adjacency)
        assert all(u in adjacency[v] for u, nbrs in enumerate(adjacency) for v in nbrs)
        assert [[u, v] for u, nbrs in enumerate(adjacency) for v in nbrs if u < v] == space.edges.tolist()
        for a in (space.indptr, space.indices, space.edges):
            assert a.dtype == np.intp and not a.flags.writeable

    def test_duplicate_and_reversed_edges_collapse(self):
        space = build_space(1.0 - np.eye(3), [(1, 0), (0, 1), (0, 1.0), (2, 1), np.array([1, 2])])
        assert space.edges.tolist() == [[0, 1], [1, 2]] and space.indices.tolist() == [1, 0, 2, 1]
        assert build_space(1.0 - np.eye(3), set()).edges.shape == (0, 2)

    @pytest.mark.parametrize("edges,witness,message", [
        ([(0, 1), (0, 1.5)], (1, 1), "edge endpoint not an integer"),
        ([(0, float("nan"))], (0, 1), "edge endpoint not an integer"),
        ([(float("inf"), 1)], (0, 0), "edge endpoint not an integer"),
        ([(0, 10 ** 18)], (0, 1), "edge endpoint out of range"),
        ([(0, 5), (1.5, 0)], (0, 1), "edge endpoint out of range"),  # the first bad endpoint decides
        ([(-1, 0)], (0, 0), "edge endpoint out of range"),
        ([(0, 1), (2, 2)], 2, "self-loop in adjacency"),
        ([(0, 1), (0, "1")], None, "edges must be pairs of point indices"),
        ([(0, 1, 2)], None, "edges must be pairs of point indices"),
        ([(0, 1), (1, 2, 0)], None, "edges must be pairs of point indices"),
        ([(0, None)], None, "edges must be pairs of point indices"),
        ([(0, 2 ** 70)], None, "edges must be pairs of point indices"),  # past int64: Python objects
        ([0, 1], None, "edges must be pairs of point indices"),
    ])
    def test_bad_edge_rejected_at_the_first(self, edges, witness, message):
        """An endpoint is checked as build_group checks a table entry, its
        place (edge, end) the witness; a self-loop names its point; a list
        that is not pairs of numbers is rejected, never parsed."""
        with pytest.raises(ValidationError) as exc:
            build_space(1.0 - np.eye(3), edges)
        shown = message if witness is None else f"{message} (witness: {witness})"
        assert (exc.value.code, str(exc.value), exc.value.witness) == \
            ("InvalidParams", f"InvalidParams: {shown}", witness)


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
        swap_ends = {0: 3, 3: 0, 1: 1, 2: 2}  # breaks the edges (0, 1) and (2, 3)
        with pytest.raises(ValidationError) as exc:
            bind_action(space, group, [{i: i for i in range(4)}, swap_ends])
        assert (exc.value.code, str(exc.value), exc.value.witness) == \
            ("NotGraphAutomorphism", "NotGraphAutomorphism: edge not preserved (witness: (1, (0, 1)))", (1, (0, 1)))

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
        # (g, h, x) = (1, 1, 0): 2.0 = 0, but 1.(1.0) = 2
        assert (exc.value.code, str(exc.value), exc.value.witness) == \
            ("NotHomomorphism", "NotHomomorphism: composition mismatch (witness: (1, 1, 0))", (1, 1, 0))

    def test_total_element_with_partial_inverse_rejected(self):
        """C3 on an edge: 1 swaps the ends, 2 = 1^-1 acts nowhere. No
        composition has both sides defined, so the inverse test fires."""
        act = [{0: 0, 1: 1}, {0: 1, 1: 0}, {}]
        with pytest.raises(ValidationError) as exc:
            bind_action(line_space(2), c3(), act)
        assert (exc.value.code, str(exc.value), exc.value.witness) == \
            ("NotHomomorphism", "NotHomomorphism: total element with partial inverse (witness: 1)", 1)

    def test_stabilizer_not_a_subgroup_rejected(self):
        """C3 on an edge: 1 fixes 0 and is undefined at 1, 2 acts nowhere.
        The stabilizer of 0 is {0, 1}, which lacks 1^-1 = 2, and since 1.1
        = 2 is undefined at 0 no composition check sees it."""
        act = [{0: 0, 1: 1}, {0: 0}, {}]
        with pytest.raises(ValidationError) as exc:
            bind_action(line_space(2), c3(), act)
        assert (exc.value.code, str(exc.value), exc.value.witness) == \
            ("NotHomomorphism", "NotHomomorphism: stabilizer is not a subgroup (witness: 0)", 0)

    def test_non_inverting_pair_is_a_composition_mismatch(self):
        """The "inverse element does not invert" test cannot fire: for a
        total g with a total inverse, the composition scan compares
        (g^-1 g).x = x with g^-1.(g.x) at (g^-1, g, x), both sides defined,
        and meets any non-inverting pair first. Every assignment of
        permutations of three points to the two non-identity elements of C3
        either binds or fails an earlier check."""
        space = build_space(1.0 - np.eye(3), [(0, 1), (1, 2), (0, 2)])
        messages = set()
        for p1 in itertools.permutations(range(3)):
            for p2 in itertools.permutations(range(3)):
                act = [{i: i for i in range(3)}, dict(enumerate(p1)), dict(enumerate(p2))]
                try:
                    bind_action(space, c3(), act)
                except ValidationError as exc:
                    messages.add(str(exc).split(" (witness")[0])
        assert messages == {"NotHomomorphism: composition mismatch"}

    @pytest.mark.parametrize("images, witness, reason", [
        ([[0, 1, 2], [1, 2, -2], [2, 0, 1]], (1, 2), "action image out of range"),
        ([[0, 1, 2], [1, 2, 0], [3, 0, 1]], (2, 0), "action image out of range"),
        ([[0, 1, 2], [1, -1, 1], [-1, -1, 0]], 1, "action map not injective"),
        ([[0, 1, 2], [1, 2, 0]], None, "one row of n images required per group element"),
        ([[0, 1, 2], [1, 2, 0], [2, 1.5, 1]], (2, 1), "action image not an integer"),  # read as 1 before
        ([[0, 1, 2], [1, 2, float("nan")], [2, 0, 1]], (1, 2), "action image not an integer"),
        ([[0, 1, 2], [1, 2, 0.5], [2.5, 0, 1]], (1, 2), "action image not an integer"),
        ([[0, 1, 2], [1, 2, 7.5], [2, 0, 1]], (1, 2), "action image not an integer"),  # and out of range
        ([[0, 1, 2], [1, 2, 7], [2.5, 0, 1]], (1, 2), "action image out of range"),  # the first decides
    ])
    def test_action_array_range_and_injectivity_checked(self, images, witness, reason):
        """An image below -1 would index from the end of the padded array
        and pass unseen, and a non-integer one was truncated; the array
        checks name the first such (g, x) row-major, and the first row with
        a repeated defined image. A missing row is refused before either."""
        import equimetric as eq

        space = build_space(1.0 - np.eye(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValidationError) as exc:
            eq.gspace.bind_action_array(space, c3(), np.array(images))
        assert (exc.value.code, exc.value.witness) == ("InvalidParams", witness)
        assert reason in str(exc.value)

    def test_integer_valued_float_images_accepted(self):
        import equimetric as eq

        space = build_space(1.0 - np.eye(3), [(0, 1), (1, 2), (0, 2)])
        images = [[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [2.0, 0.0, 1.0]]
        gs = eq.gspace.bind_action_array(space, c3(), np.array(images))
        assert gs.action.dtype == np.intp
        assert gs.action[:, :3].tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    @pytest.mark.parametrize("maps, message, witness", [
        ([{0: 0, 1: 1}, {0: 1.7, 1: 0.2}], "action image not an integer", (1, 0)),  # was C2 by int()
        ([{0: 0, 1: 1}, {0: 1, 0.5: 0}], "action point not an integer", (1, 0.5)),
        ([{0: 0, 1: 1}, {0: 1, 1: float("nan")}], "action image not an integer", (1, 1)),
        ([{0: 0, 1: 1}, {0.0: 1.0, 1: 0}], None, None),  # integer values are accepted
        ([{0: 0, 1: 1}, {0: 1, 1: None}], "action image not an integer", (1, 1)),  # was a bare TypeError
        ([{0: 0, 1: 1}, {0: 1, None: 0}], "action point not an integer", (1, None)),
        ([{0: 0, 1: 1}, {0: 1, 1: "0"}], "action image not an integer", (1, 1)),
        ([{0: 0, 1: 1}, {0: 1, "1": 0}], "action point not an integer", (1, "1")),
    ])
    def test_non_integer_map_entry_rejected(self, maps, message, witness):
        from tests import oracles

        space = build_space(1.0 - np.eye(2), [(0, 1)])
        group = build_group([[0, 1], [1, 0]])
        for bind in (bind_action, oracles.bind_action):
            if message is None:
                bind(space, group, maps)
                continue
            with pytest.raises(ValidationError) as exc:
                bind(space, group, maps)
            assert (exc.value.code, str(exc.value), exc.value.witness) == \
                ("InvalidParams", f"InvalidParams: {message} (witness: {witness})", witness)
        if message is None:
            assert bind_action(space, group, maps).action[1, :2].tolist() == [1, 0]

    def test_stabilizers_computed(self):
        import equimetric as eq

        gs = eq.generate_scenario("reflection", {"m": 2, "h": 1.0})
        # the center point is fixed by the whole group
        assert gs.stabilizer(2) == (0, 1)
        assert gs.stabilizer(0) == (gs.group.identity,)

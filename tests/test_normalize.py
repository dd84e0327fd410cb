import pytest
from hypothesis import given, settings

from helpers import (
    c2_star_c3,
    dihedral,
    invariant_signature,
    normalize_by_steps,
    seeded_random_data,
    small_gogs,
    terminal_data_all_orders,
    trivial_tree_half_edges,
)
from vfree.errors import NotTreeEdge, NotTrivial
from vfree.gog import build_gog, serialize_gog
from vfree.graph import SpanningTree, spanning_tree
from vfree.normalize import (
    ContractionStep,
    contract_edge,
    find_trivial_edge,
    normalize,
)


def with_tree(gog):
    return gog, spanning_tree(gog.graph, gog.graph.vertices[0])


class TestFindTrivialEdge:
    def test_segment_with_onto_embedding(self):
        gog, tree = with_tree(build_gog({"a": 4, "b": 2}, [("s", "a", "b", 2)]))
        # order(s) = 2 = order(b): the half-edge into b is trivial
        assert find_trivial_edge(gog, tree) == "s"

    def test_origin_side_found_via_reversed_half_edge(self):
        gog, tree = with_tree(build_gog({"a": 2, "b": 4}, [("s", "a", "b", 2)]))
        assert find_trivial_edge(gog, tree) == "s~"

    def test_dihedral_has_none(self):
        gog, tree = with_tree(dihedral())
        assert find_trivial_edge(gog, tree) is None

    def test_loop_graph_has_none(self):
        gog, tree = with_tree(build_gog({"v": 4}, [("e", "v", "v", 4)]))
        assert tree.tree_edges == frozenset()
        assert find_trivial_edge(gog, tree) is None


class TestContractEdge:
    def test_segment_collapses_to_vertex(self):
        gog, tree = with_tree(build_gog({"a": 4, "b": 2}, [("s", "a", "b", 2)]))
        new, new_tree, step = contract_edge(gog, tree, "s")
        assert new.graph.vertices == ("a",)
        assert new.graph.half_edges == ()
        assert new.vertex_order == {"a": 4}
        assert step.contracted_edge == "s"
        assert step.removed_vertex == "b"
        assert step.surviving_vertex == "a"
        assert new_tree.tree_edges == frozenset()

    def test_path_rehomes_other_edge(self):
        gog, tree = with_tree(
            build_gog(
                {"a": 4, "b": 2, "c": 4},
                [("e1", "a", "b", 2), ("e2", "b", "c", 2)],
            )
        )
        new, _, _ = contract_edge(gog, tree, "e1")
        assert set(new.graph.vertices) == {"a", "c"}
        assert new.graph.origin["e2"] == "a"
        assert new.graph.terminus["e2"] == "c"
        assert new.edge_order["e2"] == 2

    def test_loop_rides_along(self):
        gog, tree = with_tree(
            build_gog(
                {"a": 2, "b": 2},
                [("e1", "a", "b", 2), ("e2", "b", "b", 2)],
            )
        )
        new, _, _ = contract_edge(gog, tree, "e1")
        assert new.graph.vertices == ("a",)
        assert new.graph.is_loop("e2")
        assert new.graph.origin["e2"] == "a"
        # result is a single vertex with a full-order loop
        assert new.edge_order["e2"] == 2 == new.vertex_order["a"]

    def test_not_trivial(self):
        gog, tree = with_tree(dihedral())
        with pytest.raises(NotTrivial):
            contract_edge(gog, tree, "s")

    def test_not_tree_edge(self):
        gog, tree = with_tree(
            build_gog({"a": 2}, [("e", "a", "a", 2)])
        )
        with pytest.raises(NotTreeEdge):
            contract_edge(gog, tree, "e")

    @pytest.mark.parametrize(
        "gog, make_tree, edge",
        [
            # a tree of another graph, whose half-edge t is trivial there
            (c2_star_c3(),
             lambda g: spanning_tree(
                 build_gog({"x": 4, "y": 2}, [("t", "x", "y", 2)]).graph, "x"),
             "t"),
            # {s, s~} is trivial but reaches only a and b of a, b, c
            (build_gog({"a": 2, "b": 2, "c": 2},
                       [("s", "a", "b", 2), ("u", "b", "c", 1)]),
             lambda g: SpanningTree(g, frozenset({"s", "s~"}), "a"),
             "s"),
        ],
        ids=["other-graph", "not-spanning"],
    )
    def test_tree_that_does_not_span_raises(self, gog, make_tree, edge):
        # NormalizedGog's check, with its message
        with pytest.raises(NotTreeEdge) as exc:
            contract_edge(gog, make_tree(gog.graph), edge)
        assert exc.value.message == "tree is not a spanning tree of the datum's graph"


class TestNormalize:
    def test_already_normalized_returns_input(self):
        gog = dihedral()
        ngog, steps = normalize(gog)
        assert steps == []
        assert ngog.gog == gog

    def test_single_contraction(self):
        ngog, steps = normalize(build_gog({"a": 4, "b": 2}, [("s", "a", "b", 2)]))
        assert len(steps) == 1
        assert serialize_gog(ngog.gog) == "vertex a 4\n"

    def test_chain_collapses_to_c2(self):
        gog = build_gog(
            {"a": 2, "b": 2, "c": 2},
            [("e", "a", "b", 2), ("f", "b", "c", 2)],
        )
        ngog, steps = normalize(gog)
        assert len(steps) == 2
        assert ngog.gog.graph.half_edges == ()
        assert list(ngog.gog.vertex_order.values()) == [2]

    def test_strict_tree_inequality_after(self):
        for gog in seeded_random_data(11, 40):
            ngog, _ = normalize(gog)
            g = ngog.gog.graph
            for e in ngog.tree.tree_edges:
                assert (
                    2 * ngog.gog.order(e)
                    <= ngog.gog.vertex_order[g.terminus[e]]
                )

    def test_step_bound_and_monotone_sizes(self):
        for gog in seeded_random_data(13, 40):
            ngog, steps = normalize(gog)
            assert len(steps) <= len(gog.graph.vertices) - 1
            assert len(ngog.gog.graph.vertices) == len(gog.graph.vertices) - len(steps)
            assert len(ngog.gog.graph.half_edges) <= len(gog.graph.half_edges)

    @given(small_gogs())
    @settings(max_examples=60, deadline=None)
    def test_invariants_preserved(self, gog):
        ngog, _ = normalize(gog)
        assert invariant_signature(gog, depth=8, with_g=True) == invariant_signature(
            ngog.gog, depth=8, with_g=True
        )

    def test_invariant_under_all_contraction_orders(self):
        data = [
            build_gog(
                {"a": 4, "b": 2, "c": 4},
                [("e1", "a", "b", 2), ("e2", "b", "c", 2)],
            ),
            build_gog(
                {"a": 2, "b": 2, "c": 2},
                [("e", "a", "b", 2), ("f", "b", "c", 2)],
            ),
            build_gog(
                {"a": 6, "b": 6, "c": 2},
                [("e", "a", "b", 6), ("f", "b", "c", 2), ("g", "c", "c", 1)],
            ),
        ]
        for gog in data:
            tree = spanning_tree(gog.graph, gog.graph.vertices[0])
            assert trivial_tree_half_edges(gog, tree)
            want = invariant_signature(gog, depth=8)
            for terminal in terminal_data_all_orders(gog, tree):
                assert invariant_signature(terminal, depth=8) == want


def assert_matches_reference(gog):
    ngog, steps = normalize(gog)
    ref_gog, ref_tree, ref_steps = normalize_by_steps(gog)
    assert steps == ref_steps
    assert serialize_gog(ngog.gog) == serialize_gog(ref_gog)
    assert ngog.gog == ref_gog
    assert ngog.tree.tree_edges == ref_tree.tree_edges
    assert ngog.tree.root == ref_tree.root


class TestNormalizeMatchesOneStepLoop:
    def test_seeded_random_data(self):
        for gog in seeded_random_data(17, 300):
            assert_matches_reference(gog)

    def test_seeded_larger_data(self):
        # long chains of merges, loops and multi-edges
        for gog in seeded_random_data(19, 40, max_vertices=30,
                                      max_geometric_edges=40):
            assert_matches_reference(gog)

    @given(small_gogs(max_vertices=6, max_extra_edges=3))
    @settings(max_examples=150, deadline=None)
    def test_small_gogs(self, gog):
        assert_matches_reference(gog)

    def test_root_contracted_away(self):
        # the root a is the terminus of the only trivial half-edge s~
        gog = build_gog({"a": 2, "b": 4, "c": 8}, [("s", "a", "b", 2),
                                                  ("t", "b", "c", 2)])
        ngog, steps = normalize(gog)
        assert steps == [ContractionStep("s~", "a", "b")]
        assert ngog.tree.root == "b"
        assert_matches_reference(gog)

    def test_contracting_path(self):
        """3000-vertex path v0000-...-v2999: even edges e_i are onto at
        v_(i+1) only and contract into v_i, in id order; odd edges have
        order 1 and survive, re-homed onto v_(i-1) -- v_(i+1)."""
        n = 3000
        vid = [f"v{i:04d}" for i in range(n)]
        eid = [f"e{i:04d}" for i in range(n - 1)]
        order = {}
        for i in range(0, n, 2):
            k = 2 + (i // 2) % 2
            order[vid[i]], order[vid[i + 1]] = 2 * k, k
        edges = [
            (eid[i], vid[i], vid[i + 1], order[vid[i + 1]] if i % 2 == 0 else 1)
            for i in range(n - 1)
        ]
        ngog, steps = normalize(build_gog(order, edges))
        assert steps == [
            ContractionStep(eid[i], vid[i + 1], vid[i]) for i in range(0, n, 2)
        ]
        assert serialize_gog(ngog.gog) == "".join(
            [f"vertex {vid[i]} {order[vid[i]]}\n" for i in range(0, n, 2)]
            + [f"edge {eid[i]} {vid[i - 1]} {vid[i + 1]} 1\n"
               for i in range(1, n - 1, 2)]
        )
        assert ngog.tree.root == vid[0]
        assert ngog.tree.tree_edges == {
            e for i in range(1, n - 1, 2) for e in (eid[i], eid[i] + "~")
        }

import random

import pytest

from helpers import seeded_random_data
from vfree.errors import (
    DanglingVertexRef,
    GogSyntaxError,
    NotConnected,
    UnknownRoot,
)
from vfree.graph import (
    build_graph,
    is_connected,
    orient_from_root,
    spanning_tree,
)
from vfree.normalize import contract_edge, find_trivial_edge
from vfree.oracle import random_tree_graph


def loop_graph():
    return build_graph(["v"], [("e", "v", "v")])


def segment_graph():
    return build_graph(["a", "b"], [("e", "a", "b")])


def path_graph(k):
    """Path v01 - v02 - ... - v(k+1) with edges e01..e0k."""
    vertices = [f"v{i:02d}" for i in range(1, k + 2)]
    edges = [(f"e{i:02d}", f"v{i:02d}", f"v{i + 1:02d}") for i in range(1, k + 1)]
    return build_graph(vertices, edges)


def triangle_graph():
    """a: v1-v2, b: v2-v3, c: v3-v1."""
    return build_graph(
        ["v1", "v2", "v3"], [("a", "v1", "v2"), ("b", "v2", "v3"), ("c", "v3", "v1")]
    )


def star_graph():
    """Center c with leaves l1..l4, edges e1..e4 pointing c -> leaf."""
    edges = [(f"e{i}", "c", f"l{i}") for i in range(1, 5)]
    return build_graph(["c", "l1", "l2", "l3", "l4"], edges)


class TestBuildGraph:
    def test_segment(self):
        g = segment_graph()
        assert g.half_edges == ("e", "e~")
        assert (g.bar("e"), g.bar("e~")) == ("e~", "e")
        assert (g.origin["e"], g.terminus["e"]) == ("a", "b")
        assert (g.origin["e~"], g.terminus["e~"]) == ("b", "a")
        assert g.orientation_reps() == ("e",)
        assert not g.is_loop("e")

    def test_loop_is_valid_single_geometric_edge(self):
        g = loop_graph()
        assert g.half_edges == ("e", "e~")
        assert g.orientation_reps() == ("e",)
        assert g.is_loop("e") and g.is_loop("e~")

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            (["a~"], []),
            (["a"], [("e~", "a", "a")]),
            (["a", "a"], []),
            (["a"], [("e", "a", "a"), ("e", "a", "a")]),
        ],
        ids=["tilde-vertex", "tilde-edge", "repeated-vertex", "repeated-edge"],
    )
    def test_bad_ids_are_syntax_errors(self, vertices, edges):
        with pytest.raises(GogSyntaxError):
            build_graph(vertices, edges)

    def test_dangling_vertex(self):
        for edge in [("e", "b", "a"), ("e", "a", "b")]:
            with pytest.raises(DanglingVertexRef):
                build_graph(["a"], [edge])

    def test_ids_sorted(self):
        g = build_graph(["b", "a"], [("f", "b", "a")])
        assert g.vertices == ("a", "b")
        assert g.half_edges == ("f", "f~")

    def test_bar_is_a_fixed_point_free_involution_on_random_data(self):
        graphs = [d.graph for d in seeded_random_data(
            31, 200, max_vertices=8, max_geometric_edges=16)]
        for g in graphs:
            assert set(g.terminus) == set(g.half_edges)
            for e in g.half_edges:
                assert g.bar(e) != e
                assert g.bar(e) in g.origin
                assert g.bar(g.bar(e)) == e
                assert g.terminus[g.bar(e)] == g.origin[e]


def assert_out_edges_match_scan(g):
    for v in g.vertices:
        out = g.out_edges(v)
        assert out == tuple(e for e in g.half_edges if g.origin[e] == v)
        assert list(out) == sorted(out)


class TestOutEdges:
    def test_small_graphs(self):
        for g in (build_graph(["v"], []), loop_graph(), segment_graph(),
                  path_graph(4), star_graph()):
            assert_out_edges_match_scan(g)

    def test_random_graphs_with_loops_and_multi_edges(self):
        graphs = [d.graph for d in seeded_random_data(
            23, 200, max_vertices=8, max_geometric_edges=16)]
        assert any(g.is_loop(e) for g in graphs for e in g.half_edges)
        assert any(
            len(set(ends)) < len(ends)
            for ends in (
                [frozenset((g.origin[e], g.terminus[e]))
                 for e in g.orientation_reps()]
                for g in graphs
            )
        )
        for g in graphs:
            assert_out_edges_match_scan(g)

    def test_contracted_graph_has_its_own_adjacency(self):
        contracted = 0
        for gog in seeded_random_data(29, 100):
            tree = spanning_tree(gog.graph, gog.graph.vertices[0])
            e = find_trivial_edge(gog, tree)
            if e is None:
                continue
            assert_out_edges_match_scan(gog.graph)
            new, _, _ = contract_edge(gog, tree, e)
            assert_out_edges_match_scan(new.graph)
            contracted += 1
        assert contracted


class TestConnectivity:
    def test_segment_connected(self):
        assert is_connected(segment_graph())

    def test_isolated_vertices(self):
        g = build_graph(["a", "b"], [])
        assert not is_connected(g)

    def test_single_vertex(self):
        assert is_connected(build_graph(["v"], []))

    def test_empty_graph(self):
        assert not is_connected(build_graph([], []))


class TestSpanningTree:
    def test_loop_graph_tree_is_edgeless(self):
        t = spanning_tree(loop_graph(), "v")
        assert t.tree_edges == frozenset()
        assert t.root == "v"

    def test_path_tree_is_whole_path(self):
        g = path_graph(2)
        t = spanning_tree(g, "v01")
        assert t.tree_edges == frozenset(g.half_edges)

    def test_triangle_tree_determined_by_edge_order(self):
        # BFS from v1 takes a then c~
        t = spanning_tree(triangle_graph(), "v1")
        assert t.tree_edges == frozenset({"a", "a~", "c", "c~"})

    def test_deterministic(self):
        g = path_graph(5)
        t1 = spanning_tree(g, "v01")
        t2 = spanning_tree(g, "v01")
        assert t1.tree_edges == t2.tree_edges

    def test_not_connected(self):
        g = build_graph(["a", "b"], [])
        with pytest.raises(NotConnected):
            spanning_tree(g, "a")

    def test_unknown_root(self):
        with pytest.raises(UnknownRoot):
            spanning_tree(segment_graph(), "zzz")


class TestOrientFromRoot:
    def test_path_rooted_at_end(self):
        g = path_graph(2)
        t = spanning_tree(g, "v01")
        o = orient_from_root(t, "v01")
        termini = {g.terminus[e] for e in o}
        assert termini == {"v02", "v03"}
        assert len(o) == 2

    def test_single_vertex_tree(self):
        g = build_graph(["v"], [])
        t = spanning_tree(g, "v")
        assert orient_from_root(t, "v") == frozenset()

    def test_star_rooted_at_leaf(self):
        g = star_graph()
        t = spanning_tree(g, "c")
        o = orient_from_root(t, "l1")
        # e1 reversed (l1 -> c), the rest leaf-ward
        assert o == frozenset({"e1~", "e2", "e3", "e4"})
        termini = {g.terminus[e] for e in o}
        assert termini == {"c", "l2", "l3", "l4"}

    def test_any_base_point_not_just_tree_root(self):
        g = path_graph(3)
        t = spanning_tree(g, "v01")
        o = orient_from_root(t, "v03")
        termini = {g.terminus[e] for e in o}
        assert termini == {"v01", "v02", "v04"}

    def test_follows_tree_edges_only(self):
        # the tree from v1 is {a, c}; from v2 the direct edge b is not in it
        t = spanning_tree(triangle_graph(), "v1")
        assert orient_from_root(t, "v2") == frozenset({"a~", "c~"})

    def test_unknown_root(self):
        g = path_graph(1)
        t = spanning_tree(g, "v01")
        with pytest.raises(UnknownRoot):
            orient_from_root(t, "zzz")

    def test_distance_increases_along_chosen_edges(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_tree_graph(rng)
            t = spanning_tree(g, g.vertices[0])
            v0 = rng.choice(g.vertices)
            o = orient_from_root(t, v0)
            # tree distances by relaxing every tree half-edge until stable
            dist = {v0: 0}
            changed = True
            while changed:
                changed = False
                for e in t.tree_edges:
                    u, w = g.origin[e], g.terminus[e]
                    if u in dist and dist[u] + 1 < dist.get(w, len(g.vertices)):
                        dist[w] = dist[u] + 1
                        changed = True
            assert len(dist) == len(g.vertices) == len(o) + 1
            for e in o:
                assert dist[g.terminus[e]] == dist[g.origin[e]] + 1

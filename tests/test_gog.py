import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import c2_star_c3, dihedral, free_bouquet, seeded_random_data, small_gogs
from vfree.errors import (
    BadHalfEdgePair,
    BadVertexOrder,
    DanglingVertexRef,
    DivisibilityViolation,
    EmptyGraph,
    GogSyntaxError,
    InvalidGog,
    NotConnected,
    NotNormalized,
    NotTrivial,
    OrderKeysMismatch,
    TooLarge,
    echo,
)
from vfree.gog import (
    GraphOfGroups,
    build_gog,
    check_valid,
    parse_gog,
    serialize_gog,
)
from vfree.graph import Graph, SpanningTree, build_graph, spanning_tree
from vfree.normalize import NormalizedGog, contract_edge, find_trivial_edge
from vfree.oracle import exhaustive_rank2_shapes

DIHEDRAL_TEXT = "vertex a 2\nvertex b 2\nedge s a b 1\n"
F2_TEXT = "vertex v 1\nedge p v v 1\nedge q v v 1\n"


class TestParse:
    def test_dihedral(self):
        gog = parse_gog(DIHEDRAL_TEXT)
        assert gog.vertex_order == {"a": 2, "b": 2}
        assert gog.edge_order == {"s": 1}
        assert gog.graph.bar("s") == "s~"

    def test_edge_order_keys_are_the_graph_names(self):
        # one entry per geometric edge, keyed by the graph's own id string
        gog = parse_gog(F2_TEXT)
        assert list(map(id, sorted(gog.edge_order))) == list(
            map(id, gog.graph.orientation_reps())
        )

    def test_two_loops(self):
        gog = parse_gog(F2_TEXT)
        assert len(gog.graph.orientation_reps()) == 2
        assert all(gog.graph.is_loop(e) for e in gog.graph.half_edges)

    def test_missing_vertex(self):
        with pytest.raises(DanglingVertexRef):
            parse_gog("edge s a b 1\n")

    def test_comments_and_blanks(self):
        text = "# header\n\nvertex a 2  # trailing\nvertex b 2\n\nedge s a b 1\n"
        assert parse_gog(text).vertex_order == {"a": 2, "b": 2}

    @pytest.mark.parametrize(
        "bad",
        [
            "vertex a\n",
            "vertex a 2 3\n",
            "vertex a two\n",
            "vertex a 0\n",
            "vertex a -3\n",
            "vertex a~ 2\n",
            "vertex a 2\nvertex a 3\n",
            "vertex a 2\nedge s~ a a 1\n",
            "vertex a 2\nedge s a a 1\nedge s a a 1\n",
            "vertx a 2\n",
            "vertex a 2\nedge s a a\n",
            "vertex a 1_2\n",
            "vertex b \u0663\n",
            "vertex a 2\nvertex b 2\nedge s a b +1\n",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(GogSyntaxError):
            parse_gog(bad)

    def test_line_number_reported(self):
        with pytest.raises(GogSyntaxError, match="line 3"):
            parse_gog("vertex a 2\nvertex b 2\nbogus\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_universal_newlines_end_a_line(self, newline):
        text = newline.join(["vertex a 2", "vertex b 2", "edge s a b 1", ""])
        assert parse_gog(text) == parse_gog(DIHEDRAL_TEXT)
        message = "^SyntaxError: line 4: unknown directive 'bogus'$"
        with pytest.raises(GogSyntaxError, match=message):
            parse_gog(text + "bogus" + newline)

    @pytest.mark.parametrize(
        "sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_other_line_breaks_stay_inside_a_line(self, sep):
        # str.splitlines breaks at these too; a comment runs on past them
        text = f"# note{sep}more\n" + DIHEDRAL_TEXT
        assert parse_gog(text) == parse_gog(DIHEDRAL_TEXT)
        message = "^SyntaxError: line 3: unknown directive 'bogus'$"
        with pytest.raises(GogSyntaxError, match=message):
            parse_gog(f"vertex a 2\nvertex b 2  # x{sep}y\nbogus\n")

    @pytest.mark.parametrize(
        "order, message",
        [("1_2", "order '1_2' is not an integer"), ("-3", "order must be positive, got -3")],
    )
    def test_order_messages(self, order, message):
        with pytest.raises(GogSyntaxError) as exc:
            parse_gog(f"vertex a {order}\n")
        assert exc.value.message == f"line 1: {message}"

    @pytest.mark.parametrize("length", [32, 33, 5000])
    def test_long_order_token_is_cut(self, length):
        with pytest.raises(GogSyntaxError) as exc:
            parse_gog("vertex a 2\nvertex b " + "x" * length + "\n")
        message = str(exc.value)
        assert "\n" not in message and len(message) < 120
        assert message.startswith("SyntaxError: line 2: order 'xxx")
        assert message.endswith("is not an integer")
        assert ("x" * 32 + "'") in message
        assert (f"({length} characters)" in message) == (length > 32)

    @pytest.mark.parametrize(
        "last, make, error, message",
        [
            ("x", parse_gog, GogSyntaxError, "line 1: unknown directive {}"),
            ("~", lambda t: parse_gog(f"vertex {t} 2"), GogSyntaxError,
             "line 1: id {} contains reserved '~'"),
            ("~", lambda t: parse_gog(f"vertex a 2\nedge {t} a a 1"), GogSyntaxError,
             "line 2: id {} contains reserved '~'"),
            ("x", lambda t: parse_gog(f"vertex {t} 2\nvertex {t} 2"), GogSyntaxError,
             "line 2: duplicate vertex {}"),
            ("x", lambda t: parse_gog(f"vertex a 2\nedge {t} a a 1\nedge {t} a a 1"),
             GogSyntaxError, "line 3: duplicate edge {}"),
            ("x", lambda t: parse_gog(f"vertex a 2\nedge e a {t} 1"),
             DanglingVertexRef, "line 2: unknown vertex {}"),
            ("~", lambda t: build_graph([t], []), GogSyntaxError,
             "vertex id {} contains reserved '~'"),
            ("~", lambda t: build_graph(["a"], [(t, "a", "a")]), GogSyntaxError,
             "edge id {} contains reserved '~'"),
            ("x", lambda t: build_graph(["a"], [(t, "a", "a")] * 2), GogSyntaxError,
             "duplicate edge {}"),
            ("x", lambda t: build_graph(["a"], [(t, "a", t)]), DanglingVertexRef,
             "edge {0} terminus {0} is not a vertex"),
        ],
    )
    @pytest.mark.parametrize("length", [32, 33, 5000])
    def test_long_token_is_cut(self, last, make, error, message, length):
        token = "x" * (length - 1) + last
        with pytest.raises(error) as exc:
            make(token)
        if length <= 32:
            shown = f"'{token}'"
        else:
            shown = f"'{token[:32]}'... ({length} characters)"
        assert exc.value.message == message.format(shown)

    def test_order_past_the_int_digit_limit(self):
        # library callers keep the interpreter's limit on int() of a long
        # string (only the CLI lifts it, to 0); the digit cap is checked
        # first, so such an order is TooLarge whatever that limit is
        for limit in (4300, 0):
            self.assert_too_large(limit, 5000, 4300)

    def test_order_past_a_lowered_int_digit_limit(self):
        self.assert_too_large(1000, 2000, 1000)

    @staticmethod
    def assert_too_large(limit, digits, cap):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(TooLarge) as exc:
                parse_gog("vertex a " + "1" * digits + "\n")
        finally:
            sys.set_int_max_str_digits(saved)
        assert exc.value.message == f"line 1: order has {digits} digits, more than {cap}"

    def test_order_at_the_digit_cap(self):
        assert parse_gog("vertex a " + "1" * 4300 + "\n").vertex_order["a"] > 0


SEGMENT = build_graph(["a", "b"], [("s", "a", "b")])


class TestValidate:
    def test_ok(self):
        gog = GraphOfGroups(SEGMENT, {"a": 2, "b": 3}, {"s": 1})
        assert gog == build_gog({"a": 2, "b": 3}, [("s", "a", "b", 1)])

    def test_divisibility_violation_reports_offender(self):
        message = "edge s: order 2 does not divide order 3 at vertex b"
        with pytest.raises(DivisibilityViolation) as exc:
            build_gog({"a": 2, "b": 3}, [("s", "a", "b", 2)])
        assert exc.value.message == message
        with pytest.raises(DivisibilityViolation) as exc:
            GraphOfGroups(SEGMENT, {"a": 2, "b": 3}, {"s": 2})
        assert exc.value.message == message

    @pytest.mark.parametrize(
        "order, message",
        [
            (0, "order 0 is not positive"),
            (-2, "order -2 is not positive"),
            (-(10**5000), "order below -10^18 is not positive"),
            ("2", "order is a str, not an int"),
            (True, "order is a bool, not an int"),
            (2.0, "order is a float, not an int"),
        ],
        ids=["zero", "negative", "huge-negative", "str", "bool", "float"],
    )
    def test_vertex_order_must_be_a_positive_int(self, order, message):
        # each once built a datum on which f_series raised a bare
        # ZeroDivisionError, ValueError or TypeError
        with pytest.raises(BadVertexOrder) as exc:
            build_gog({"a": 2, "b": order}, [("s", "a", "b", 1)])
        assert isinstance(exc.value, InvalidGog)
        assert str(exc.value) == f"BadVertexOrder: vertex b: {message}"

    def test_vertex_order_is_checked_before_divisibility(self):
        with pytest.raises(BadVertexOrder, match="^BadVertexOrder: vertex a: order 0 "):
            build_gog({"a": 0}, [("l", "a", "a", 1)])

    def test_parse_keeps_its_line_numbered_order_message(self):
        with pytest.raises(GogSyntaxError, match="^SyntaxError: line 2: order must be positive"):
            parse_gog("vertex a 2\nvertex b 0\n")

    def test_divisibility_violation_names_name_not_its_reverse(self):
        # the origin's order fails here, and the reverse half-edge s~ ends
        # there; the message still names the geometric edge s
        with pytest.raises(DivisibilityViolation) as exc:
            build_gog({"a": 3, "b": 2}, [("s", "a", "b", 2)])
        assert str(exc.value) == (
            "DivisibilityViolation: edge s: order 2 does not divide order 3 at vertex a"
        )

    def test_hnn_datum_full_order_loop_ok(self):
        gog = build_gog({"v": 4}, [("e", "v", "v", 4)])
        assert gog.edge_order == {"e": 4}
        assert gog.order("e") == gog.order("e~") == 4

    def test_empty(self):
        with pytest.raises(EmptyGraph) as exc:
            GraphOfGroups(build_graph([], []), {}, {})
        assert exc.value.message == "graph has no vertices"

    @pytest.mark.parametrize(
        "vertices, edges",
        [({"a~": 1}, []), ({"a": 1}, [("s~", "a", "a", 1)])],
    )
    def test_build_reserved_tilde_raises(self, vertices, edges):
        with pytest.raises(GogSyntaxError):
            build_gog(vertices, edges)

    def test_build_empty_raises(self):
        with pytest.raises(EmptyGraph):
            build_gog({}, [])

    def test_not_connected(self):
        with pytest.raises(NotConnected) as exc:
            GraphOfGroups(build_graph(["a", "b"], []), {"a": 1, "b": 1}, {})
        assert isinstance(exc.value, InvalidGog)
        assert exc.value.message == "vertex b is not reachable from vertex a"

    def test_not_connected_names_the_first_unreached_vertex(self):
        # three components {b, e}, {a, d}, {c}, vertices given out of order:
        # the search from a (first in sorted order) misses b, c and e, and
        # the message names b, the first of them in sorted order
        with pytest.raises(NotConnected) as exc:
            build_gog(dict.fromkeys("edcba", 1), [("x", "e", "b", 1), ("y", "d", "a", 1)])
        assert exc.value.message == "vertex b is not reachable from vertex a"

    @pytest.mark.parametrize(
        "graph, vertex_order, edge_order, message",
        [
            (build_graph(["a"], []), {}, {}, "vertex a has no order"),
            (build_graph(["a"], []), {"a": 2, "zz": 5}, {}, "vertex zz is not in the graph"),
            (SEGMENT, {"a": 2, "b": 2}, {}, "edge s has no order"),
            (SEGMENT, {"a": 2, "b": 2}, {"s": 1, "t": 1}, "edge t is not in the graph"),
            # one order per geometric edge: the reverse half-edge has no key
            (SEGMENT, {"a": 2, "b": 2}, {"s": 1, "s~": 1}, "edge s~ is not in the graph"),
            # the first id in sorted order, and vertices before edges
            (SEGMENT, {"b": 2, "c": 2}, {}, "vertex a has no order"),
        ],
        ids=["missing-vertex", "extra-vertex", "missing-half-edge", "extra-half-edge",
             "both-halves", "first-sorted"],
    )
    def test_order_keys_mismatch(self, graph, vertex_order, edge_order, message):
        with pytest.raises(OrderKeysMismatch) as exc:
            GraphOfGroups(graph, vertex_order, edge_order)
        assert isinstance(exc.value, InvalidGog)
        assert exc.value.message == message


def hand_built(vertices, origin):
    """A Graph assembled directly from an origin map, with none of the
    checks of build_graph."""
    return Graph(
        vertices=tuple(vertices), half_edges=tuple(sorted(origin)), origin=origin
    )


# the path a - b - c with orders 2, 2, 4 and edge orders 2, 1, meant as
# the pairs p/q and r/s: valid but for the names of its pairs
PATH_PQRS = hand_built("abc", {"p": "a", "q": "b", "r": "b", "s": "c"})


class TestHalfEdgePairs:
    def test_pairs_not_named_x_and_x_tilde(self):
        with pytest.raises(BadHalfEdgePair) as exc:
            GraphOfGroups(
                PATH_PQRS, {"a": 2, "b": 2, "c": 4}, {"p": 2, "q": 2, "r": 1, "s": 1}
            )
        assert isinstance(exc.value, InvalidGog)
        assert str(exc.value) == "BadHalfEdgePair: half-edge p is not paired with p~"

    @pytest.mark.parametrize(
        "origin, half_edge, message",
        [
            ({"p": "a"}, "p", "half-edge p is not paired with p~"),
            ({"p": "a", "p~": "b"}, "p~", "half-edge p~ does not start at a vertex"),
            # bar(p~~) = p~, whose own mate is p
            ({"p": "a", "p~": "a", "p~~": "a"}, "p~~",
             "half-edge p~~ is not paired with p~"),
        ],
        ids=["mate-missing", "origin-not-vertex", "double-tilde"],
    )
    def test_one_vertex_loops(self, origin, half_edge, message):
        graph = hand_built("a", origin)
        with pytest.raises(BadHalfEdgePair) as exc:
            GraphOfGroups(graph, {"a": 2}, dict.fromkeys(graph.orientation_reps(), 1))
        assert exc.value.message == message
        assert message.startswith(f"half-edge {half_edge} ")


def shown(token, quote=str):
    """How a message shows an id: whole up to 32 characters, else cut."""
    if len(token) <= 32:
        return quote(token)
    return f"{quote(token[:32])}... ({len(token)} characters)"


def rooted(gog):
    return gog, spanning_tree(gog.graph, "a")


class TestLongIdsInMessages:
    # these messages name ids unquoted (validation) or quoted (normalized
    # data); either way an id past 32 characters is cut, shorter ones are not
    @pytest.mark.parametrize("length", [32, 33, 5000])
    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda t: build_gog({t: 3, "b": 2}, [("s", "b", t, 2)]), DivisibilityViolation,
             lambda t: f"edge s: order 2 does not divide order 3 at vertex {shown(t)}"),
            (lambda t: build_gog({"a": 3, "b": 2}, [(t, "a", "b", 2)]), DivisibilityViolation,
             lambda t: f"edge {shown(t)}: order 2 does not divide order 3 at vertex a"),
            # t sorts after "a", so the search from "a" misses it
            (lambda t: build_gog({"a": 1, t: 1}, []), NotConnected,
             lambda t: f"vertex {shown(t)} is not reachable from vertex a"),
            (lambda t: build_gog({t: 1, "y": 1}, []), NotConnected,
             lambda t: f"vertex y is not reachable from vertex {shown(t)}"),
            # only the half-edge into the order-2 vertex is onto
            (lambda t: NormalizedGog(*rooted(build_gog({"a": 4, "b": 2}, [(t, "a", "b", 2)]))),
             NotNormalized,
             lambda t: f"tree half-edge {shown(t, repr)} has edge order 2 >= terminus order"),
            (lambda t: contract_edge(*rooted(build_gog({"a": 2, t: 2}, [("s", "a", t, 1)])), "s"),
             NotTrivial, lambda t: f"edge order 1 != order 2 at {shown(t, repr)}"),
            (lambda t: GraphOfGroups(build_graph(["a"], []), {"a": 1, t: 1}, {}),
             OrderKeysMismatch, lambda t: f"vertex {shown(t)} is not in the graph"),
            (lambda t: GraphOfGroups(
                hand_built("a", {t: "a"}), {"a": 1}, {t: 1},
            ), BadHalfEdgePair,
             lambda t: f"half-edge {shown(t)} is not paired with {shown(t + '~')}"),
        ],
        ids=["divisibility", "divisibility-edge", "not-connected",
             "not-connected-root", "not-normalized", "not-trivial",
             "order-keys", "half-edge-pair"],
    )
    def test_long_id_is_cut(self, make, error, message, length):
        token = "x" * length
        with pytest.raises(error) as exc:
            make(token)
        assert exc.value.message == message(token)


class TestNormalizedGog:
    def test_onto_tree_edge_raises(self):
        # the order-2 edge group fills the order-2 terminus: a trivial tree edge
        gog = build_gog({"a": 2, "b": 2}, [("s", "a", "b", 2)])
        with pytest.raises(NotNormalized):
            NormalizedGog(gog, spanning_tree(gog.graph, "a"))

    @pytest.mark.parametrize(
        "make_tree",
        [
            # the tree of another datum's graph, whose half-edges c2c3 lacks
            lambda g: spanning_tree(
                build_gog({"x": 4, "y": 2}, [("t", "x", "y", 2)]).graph, "x"
            ),
            # no tree edges, and a root that is not a vertex
            lambda g: SpanningTree(g, frozenset(), "q"),
            # no tree edges from a vertex: b is not reached
            lambda g: SpanningTree(g, frozenset(), "a"),
            # one half-edge of the pair, and an id that is not a half-edge
            lambda g: SpanningTree(g, frozenset({"s", "z"}), "a"),
        ],
        ids=["other-graph", "unknown-root", "not-spanning", "not-paired"],
    )
    def test_tree_that_does_not_span_its_graph_raises(self, make_tree):
        gog = c2_star_c3()
        with pytest.raises(NotNormalized) as exc:
            NormalizedGog(gog, make_tree(gog.graph))
        assert exc.value.message == "tree is not a spanning tree of the datum's graph"

    def test_tree_of_an_equal_graph_is_accepted(self):
        gog = c2_star_c3()
        twin = build_gog({"a": 2, "b": 3}, [("s", "a", "b", 1)])
        assert twin.graph is not gog.graph
        ngog = NormalizedGog(gog, spanning_tree(twin.graph, "b"))
        assert ngog.tree.root == "b"

    def test_raises_exactly_on_the_trivial_edge_found(self):
        # every root of every shape and of seeded random data: the check
        # fails iff find_trivial_edge finds an edge, and names that edge
        seen = set()
        for gog in list(exhaustive_rank2_shapes(6)) + seeded_random_data(16, 100):
            for root in gog.graph.vertices:
                tree = spanning_tree(gog.graph, root)
                e = find_trivial_edge(gog, tree)
                seen.add(e is None)
                if e is None:
                    NormalizedGog(gog, tree)
                    continue
                with pytest.raises(NotNormalized) as exc:
                    NormalizedGog(gog, tree)
                assert exc.value.message.startswith(f"tree half-edge {echo(e)} ")
        assert seen == {True, False}

    def test_message_does_not_depend_on_the_hash_seed(self):
        # both half-edges of s are onto; the smaller id is named under every
        # string hash seed
        script = (
            "from vfree.gog import build_gog\n"
            "from vfree.normalize import NormalizedGog\n"
            "from vfree.graph import spanning_tree\n"
            "g = build_gog({'a': 2, 'b': 2}, [('s', 'a', 'b', 2)])\n"
            "try:\n"
            "    NormalizedGog(g, spanning_tree(g.graph, 'a'))\n"
            "except Exception as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
            ).stdout
            assert out == (
                "NotNormalized: tree half-edge 's' has edge order 2 >= terminus order\n"
            ), seed


class TestSerialize:
    def test_round_trip_dihedral_byte_identical(self):
        assert serialize_gog(parse_gog(DIHEDRAL_TEXT)) == DIHEDRAL_TEXT

    def test_round_trip_f2_byte_identical(self):
        assert serialize_gog(parse_gog(F2_TEXT)) == F2_TEXT

    def test_programmatic_output_sorted(self):
        gog = build_gog(
            {"z": 2, "a": 2}, [("t", "z", "a", 2), ("s", "z", "a", 1)]
        )
        text = serialize_gog(gog)
        assert text.splitlines() == [
            "vertex a 2",
            "vertex z 2",
            "edge s z a 1",
            "edge t z a 2",
        ]

    @given(small_gogs())
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_identity(self, gog):
        again = parse_gog(serialize_gog(gog))
        assert again == gog
        assert serialize_gog(again) == serialize_gog(gog)


class TestDivisibilityInvariant:
    @given(small_gogs())
    @settings(max_examples=60, deadline=None)
    def test_edge_order_divides_endpoint_gcd(self, gog):
        import math

        g = gog.graph
        for e in g.half_edges:
            s = gog.order(e)
            gcd = math.gcd(
                gog.vertex_order[g.origin[e]], gog.vertex_order[g.terminus[e]]
            )
            assert gcd % s == 0

    def test_examples(self):
        check_valid(dihedral())
        check_valid(free_bouquet(2))

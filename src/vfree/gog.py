"""Graphs of finite groups, represented by group orders only.

Every quantity computed downstream (Euler characteristic, type invariants,
free rank, counting series, classification) depends on the vertex- and
edge-group orders alone, never on the groups themselves, so a datum is a
half-edge graph plus two order labellings. A geometric edge {e, bar(e)}
carries one edge group, so ``edge_order`` has one entry per geometric
edge, keyed by its orientation representative ``name``; ``order(e)``
reads it for either half-edge. An edge order must divide the orders at
both endpoints, mirroring the embeddings of an edge group into its
endpoint groups.

Constructing a ``GraphOfGroups`` validates it: a datum that is empty,
disconnected, has an order map whose keys are not exactly its vertices or
geometric edges, has a vertex order that is not a positive int, has a
half-edge whose ``~`` mate is missing or whose origin is not a vertex, or
has an edge order that does not divide an endpoint order raises a
subclass of ``InvalidGog``, whose message names the vertex, edge or
half-edge at fault. Every datum in hand is therefore
valid, and no entry point re-checks it. This module holds the datum only:
the trivial-edge rule and the contraction pass live in ``normalize``.

Text format (UTF-8; a line ends at LF, CR LF or CR only; '#' starts a
comment; blank lines are ignored)::

    vertex <id> <order>
    edge <id> <origin-vertex-id> <terminus-vertex-id> <order>

Each ``edge`` line is one geometric edge; ``graph.build_graph`` makes its
half-edge pair ``<id>`` / ``<id>~``, so user-supplied ids must not
contain '~'. An order is written in ASCII
decimal digits, with no sign, underscore or other numeral, and has at
most 4300 digits (``TooLarge`` otherwise).
"""

from __future__ import annotations

import io
import re
import sys

from .errors import (
    BadHalfEdgePair,
    BadVertexOrder,
    DanglingVertexRef,
    DivisibilityViolation,
    EmptyGraph,
    GogSyntaxError,
    OrderKeysMismatch,
    TooLarge,
    cut,
    echo,
)
from .graph import (
    BAR_SUFFIX, Graph, Record, _reach, _unreached, build_graph, is_connected,
)

# ASCII decimal digits only: int() would also take "1_2", "+1" and "٣"
_ORDER_TEXT = re.compile(r"-?[0-9]+")
# the interpreter's default int() digit limit, checked before int() so that
# library callers and the CLI (which lifts that limit) reject the same text
MAX_ORDER_DIGITS = 4300


class GraphOfGroups(Record):
    """A nonempty connected half-edge graph with valid order labellings;
    construction raises an ``InvalidGog`` subclass otherwise."""

    graph: Graph
    vertex_order: dict[str, int]
    edge_order: dict[str, int]  # geometric edge ``name`` -> its order

    def __post_init__(self) -> None:
        check_valid(self)

    def order(self, e: str) -> int:
        """The order of half-edge e: that of its geometric edge."""
        orders = self.edge_order
        return orders[e] if e in orders else orders[self.graph.bar(e)]


def check_valid(gog: GraphOfGroups) -> None:
    """Raise the error of the first violated condition, checked in order:
    EmptyGraph, OrderKeysMismatch, BadVertexOrder, BadHalfEdgePair,
    DivisibilityViolation, NotConnected. BadVertexOrder names the first
    vertex, in the graph's order, whose order is not a positive int; a
    bool is not one. The edge-order keys are the geometric edges, named by
    ``orientation_reps``; OrderKeysMismatch names the first missing or
    extra id in sorted order, vertices before edges. BadHalfEdgePair needs
    each half-edge e to have its mate ``bar(e)`` in the graph, with
    ``bar(bar(e)) == e``, and to start at a vertex; the terminus then
    follows from the origins. It names the offending half-edge.
    DivisibilityViolation names the geometric edge (its ``name``) and the
    endpoint whose order it does not divide. NotConnected names the first
    vertex that a search from the first vertex does not reach."""
    g = gog.graph
    if not g.vertices:
        raise EmptyGraph("graph has no vertices")

    vertices, edges = set(g.vertices), g.orientation_reps()
    for kind, known, orders in (
        ("vertex", vertices, gog.vertex_order),
        ("edge", set(edges), gog.edge_order),
    ):
        if known != orders.keys():
            bad = min(known.symmetric_difference(orders))
            where = "has no order" if bad in known else "is not in the graph"
            raise OrderKeysMismatch(f"{kind} {cut(bad)} {where}")

    for v in g.vertices:
        if type(n := gog.vertex_order[v]) is not int:  # a bool is not an int here
            kind = type(n).__name__
            raise BadVertexOrder(f"vertex {cut(v)}: order is a {kind}, not an int")
        if n < 1:  # str() of an int past 4300 digits would raise
            shown = n if n > -(10**18) else "below -10^18"
            raise BadVertexOrder(f"vertex {cut(v)}: order {shown} is not positive")

    bar, half_edges = g.bar, set(g.half_edges)
    for e in g.half_edges:
        # bar(mate) != e only for an id ending in '~~'
        if (mate := bar(e)) not in half_edges or bar(mate) != e:
            raise BadHalfEdgePair(f"half-edge {cut(e)} is not paired with {cut(mate)}")
        if g.origin.get(e) not in vertices:
            raise BadHalfEdgePair(f"half-edge {cut(e)} does not start at a vertex")

    # name~ has the order and the ends of name, so checking name checks both
    for e in edges:
        s = gog.edge_order[e]
        for v in (g.origin[e], g.terminus[e]):
            n = gog.vertex_order[v]
            if s < 1 or n % s != 0:
                raise DivisibilityViolation(
                    f"edge {cut(e)}: order {s} does not divide order {n} "
                    f"at vertex {cut(v)}"
                )

    if not is_connected(g):
        raise _unreached(g, root := g.vertices[0], _reach(g, root))


def build_gog(
    vertex_orders: dict[str, int],
    edge_specs: list[tuple[str, str, str, int]],
) -> GraphOfGroups:
    """Build and validate a datum from (name, origin, terminus, order) edges;
    ``build_graph`` makes the half-edge pair name/name~ of each."""
    specs = list(edge_specs)  # read twice below
    graph = build_graph(list(vertex_orders), [spec[:3] for spec in specs])
    edge_order = {name: order for name, _, _, order in specs}
    return GraphOfGroups(graph, dict(vertex_orders), edge_order)


def parse_gog(text: str) -> GraphOfGroups:
    """Parse the GOG text format; raises GogSyntaxError with a line number,
    then any validation error."""
    vertex_orders: dict[str, int] = {}
    edge_specs: list[tuple[str, str, str, int]] = []
    edge_names: set[str] = set()

    # universal newlines, as a text-mode open reads them; str.splitlines would
    # also break lines at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "vertex":
            if len(fields) != 3:
                raise GogSyntaxError(f"line {lineno}: expected 'vertex <id> <order>'")
            _, vid, order_s = fields
            _check_id(vid, vertex_orders, "vertex", lineno)
            vertex_orders[vid] = _parse_order(order_s, lineno)
        elif kind == "edge":
            if len(fields) != 5:
                raise GogSyntaxError(
                    f"line {lineno}: expected 'edge <id> <origin> <terminus> <order>'"
                )
            _, eid, o, t, order_s = fields
            _check_id(eid, edge_names, "edge", lineno)
            order = _parse_order(order_s, lineno)
            for v in (o, t):
                if v not in vertex_orders:
                    raise DanglingVertexRef(f"line {lineno}: unknown vertex {echo(v)}")
            edge_names.add(eid)
            edge_specs.append((eid, o, t, order))
        else:
            raise GogSyntaxError(f"line {lineno}: unknown directive {echo(kind)}")

    return build_gog(vertex_orders, edge_specs)


def _check_id(ident: str, seen: dict | set, kind: str, lineno: int) -> None:
    if BAR_SUFFIX in ident:
        raise GogSyntaxError(f"line {lineno}: id {echo(ident)} contains reserved '~'")
    if ident in seen:
        raise GogSyntaxError(f"line {lineno}: duplicate {kind} {echo(ident)}")


def _parse_order(s: str, lineno: int) -> int:
    if not _ORDER_TEXT.fullmatch(s):
        raise GogSyntaxError(f"line {lineno}: order {echo(s)} is not an integer")
    digits = len(s.lstrip("-"))
    if digits > MAX_ORDER_DIGITS:
        raise TooLarge(
            f"line {lineno}: order has {digits} digits, more than {MAX_ORDER_DIGITS}"
        )
    try:
        n = int(s)
    except ValueError:  # the caller lowered the interpreter's int() limit
        raise TooLarge(
            f"line {lineno}: order has {digits} digits, "
            f"more than {sys.get_int_max_str_digits()}"
        ) from None
    if n < 1:
        raise GogSyntaxError(f"line {lineno}: order must be positive, got {n}")
    return n


def serialize_gog(gog: GraphOfGroups) -> str:
    """Canonical text: vertices sorted by id, one line per geometric edge
    (the half-edge with smaller id), edges sorted by id."""
    g = gog.graph
    lines = [f"vertex {v} {gog.vertex_order[v]}" for v in g.vertices]
    for e in g.orientation_reps():
        lines.append(f"edge {e} {g.origin[e]} {g.terminus[e]} {gog.edge_order[e]}")
    return "\n".join(lines) + "\n"

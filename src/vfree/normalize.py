"""Normalization by contraction of trivial spanning-tree edges.

A spanning-tree half-edge e is *trivial* when its edge order equals the
order at its terminus: the corresponding edge-group embedding is onto, so
the edge carries no amalgamation. Contracting e deletes the geometric edge
{e, bar(e)} and the vertex t(e), re-homing every half-edge incident to
t(e) onto o(e); the fundamental group is unchanged, and so is every
order-determined invariant (m, chi, type, rank, counting series).

Contraction is repeated, always at the smallest-id trivial half-edge,
until none remains. Each step removes one vertex, so at most |V| - 1
steps occur. Non-tree edges with order equality are left alone; only the
tree is constrained.

``normalize`` runs this loop in one pass, without rebuilding the datum per
step. A half-edge can stop being trivial but never become trivial: its
order never changes, and contraction only moves its terminus from the
removed vertex r to the survivor s, whose order is a multiple of r's (the
contracted edge's order equals r's order and divides s's). As the edge
order divides the terminus order, an edge that is not onto at r is not
onto at s either. So the trivial tree half-edges of every step are among
those of the start, and a candidate passed over once (contracted, or no
longer trivial) is never needed again. One pass over ``gog._trivial_edges``
of the start, skipping those, therefore yields exactly the step sequence
of ``find_trivial_edge`` + ``contract_edge`` repeated. Merged vertices are
tracked by union-find (removed -> survivor), so the current terminus of e
is find(terminus(e)); the whole pass takes O((V + H) log H) time.

Both ``contract_edge`` and ``normalize`` build their result with
``gog.build_gog`` from the surviving vertex orders and geometric edges, so
a contracted datum is validated like any other and keeps the ``name`` /
``name~`` half-edge pairs that ``graph.build_graph`` made.
"""

from __future__ import annotations

from .errors import NotTreeEdge, NotTrivial, echo
from .gog import GraphOfGroups, NormalizedGog, _trivial_edges, build_gog
from .gog import find_trivial_edge  # noqa: F401  (re-exported)
from .graph import Record, SpanningTree, spanning_tree


class ContractionStep(Record):
    contracted_edge: str
    removed_vertex: str
    surviving_vertex: str


def contract_edge(
    gog: GraphOfGroups, tree: SpanningTree, e1: str
) -> tuple[GraphOfGroups, SpanningTree, ContractionStep]:
    """Contract the trivial tree half-edge e1 into its origin vertex.

    The pair {e1, bar(e1)} and the vertex t(e1) are removed; half-edges
    formerly incident to t(e1) become incident to o(e1). Orders are
    unchanged (the re-homed embeddings are compositions of embeddings).
    The shrunken tree still spans the new graph.
    """
    g = gog.graph
    if e1 not in tree.tree_edges:
        raise NotTreeEdge(e1)
    removed = g.terminus[e1]
    survivor = g.origin[e1]
    if gog.order(e1) != gog.vertex_order[removed]:
        raise NotTrivial(
            f"edge order {gog.order(e1)} != order "
            f"{gog.vertex_order[removed]} at {echo(removed)}"
        )

    dropped = {e1, g.bar(e1)}
    home = {v: v for v in g.vertices}
    home[removed] = survivor
    kept = [e for e in g.orientation_reps() if e not in dropped]
    new_gog = build_gog(
        {v: n for v, n in gog.vertex_order.items() if v != removed},
        [(e, home[g.origin[e]], home[g.terminus[e]], gog.edge_order[e]) for e in kept],
    )
    new_tree = SpanningTree(new_gog.graph, tree.tree_edges - dropped, home[tree.root])
    return new_gog, new_tree, ContractionStep(e1, removed, survivor)


def normalize(gog: GraphOfGroups) -> tuple[NormalizedGog, list[ContractionStep]]:
    """Contract trivial tree edges until none remains.

    The spanning tree is built once, rooted at the smallest vertex id, and
    shrinks with each contraction. Returns the normalized datum and the
    step log (empty, with the input datum, when it is already normalized).
    One pass over ``_trivial_edges`` of the input gives the steps of
    repeated ``find_trivial_edge`` + ``contract_edge``; the result datum
    is built once, at the end.
    """
    g = gog.graph
    tree = spanning_tree(g, g.vertices[0])
    merged: dict[str, str] = {}  # removed vertex -> vertex it went into

    def find(v: str) -> str:
        root = v
        while root in merged:
            root = merged[root]
        while v != root:
            merged[v], v = root, merged[v]
        return root

    dropped: set[str] = set()
    steps: list[ContractionStep] = []
    for e in _trivial_edges(gog, tree):
        if e in dropped:
            continue
        removed = find(g.terminus[e])
        if gog.order(e) != gog.vertex_order[removed]:
            continue
        survivor = find(g.origin[e])
        merged[removed] = survivor
        dropped.update((e, g.bar(e)))
        steps.append(ContractionStep(
            contracted_edge=e, removed_vertex=removed, surviving_vertex=survivor
        ))
    if not steps:
        return NormalizedGog(gog=gog, tree=tree), steps

    home = {v: find(v) for v in g.vertices}
    kept = [e for e in g.orientation_reps() if e not in dropped]
    new_gog = build_gog(
        {v: n for v, n in gog.vertex_order.items() if v not in merged},
        [(e, home[g.origin[e]], home[g.terminus[e]], gog.edge_order[e]) for e in kept],
    )
    new_tree = SpanningTree(new_gog.graph, tree.tree_edges - dropped, home[tree.root])
    return NormalizedGog(gog=new_gog, tree=new_tree), steps

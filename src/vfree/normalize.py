"""Normalization by contraction of trivial spanning-tree edges.

A spanning-tree half-edge e is *trivial* when its edge order equals the
order at its terminus: the corresponding edge-group embedding is onto, so
the edge carries no amalgamation. Contracting e deletes the geometric edge
{e, bar(e)} and the vertex t(e), re-homing every half-edge incident to
t(e) onto o(e); the fundamental group is unchanged, and so is every
order-determined invariant (m, chi, type, rank, counting series). The
rule lives here only, in ``_trivial_edges``, as does the one pass.

Contraction is repeated, always at the smallest-id trivial half-edge,
until none remains. Each step removes one vertex, so at most |V| - 1
steps occur. Non-tree edges with order equality are left alone; only the
tree is constrained.

``_contract`` runs this loop in one pass, without rebuilding the datum per
step. A half-edge can stop being trivial but never become trivial: its
order never changes, and contraction only moves its terminus from the
removed vertex r to the survivor s, whose order is a multiple of r's (the
contracted edge's order equals r's order and divides s's). As the edge
order divides the terminus order, an edge that is not onto at r is not
onto at s either. So the trivial tree half-edges of every step are among
those of the start, and a candidate passed over once (contracted, or no
longer trivial) is never needed again. One pass over ``_trivial_edges``
of the start, skipping those, therefore yields exactly the step sequence
of ``find_trivial_edge`` + ``contract_edge`` repeated. Merged vertices are
tracked by union-find (removed -> survivor), so the current terminus of e
is find(terminus(e)); the whole pass takes O((V + H) log H) time.

``normalize`` passes ``_contract`` every trivial tree half-edge, and
``contract_edge`` one. The pass builds its result once, with ``build_gog``,
so a contracted datum is validated and keeps its ``name`` / ``name~`` pairs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import NotNormalized, NotTreeEdge, NotTrivial, echo
from .gog import GraphOfGroups, build_gog
from .graph import Graph, Record, SpanningTree, _reach, spanning_tree


class NormalizedGog(Record):
    """A datum whose spanning tree has no trivial edges.

    Along every tree half-edge the edge order is strictly smaller than the
    order at its terminus, i.e. no edge-group embedding along the tree is
    onto. Construction raises ``NotNormalized`` when the tree does not
    span the datum's graph, then on ``find_trivial_edge``.
    """

    gog: GraphOfGroups
    tree: SpanningTree

    def __post_init__(self) -> None:
        if not _spans(self.tree, self.gog.graph):
            raise NotNormalized("tree is not a spanning tree of the datum's graph")
        if (e := find_trivial_edge(self.gog, self.tree)) is not None:
            raise NotNormalized(
                f"tree half-edge {echo(e)} has edge order "
                f"{self.gog.order(e)} >= terminus order"
            )


def _spans(tree: SpanningTree, g: Graph) -> bool:
    """Whether tree is a spanning tree of g: a search's first half-edges
    from its root, reaching every vertex of g, and their bars."""
    first = [*_reach(g, tree.root, tree.tree_edges).values()][1:]
    return ((tree.graph is g or tree.graph == g) and tree.root in g.vertices
            and len(first) == len(g.vertices) - 1
            and tree.tree_edges == {*first, *map(g.bar, first)})


def _trivial_edges(gog: GraphOfGroups, tree: SpanningTree) -> Iterator[str]:
    """The tree half-edges whose order equals (so, as it divides it, is at
    least) the order at their terminus, in ascending id order."""
    g = gog.graph
    for e in sorted(tree.tree_edges):
        if gog.order(e) == gog.vertex_order[g.terminus[e]]:
            yield e


def find_trivial_edge(gog: GraphOfGroups, tree: SpanningTree) -> str | None:
    """The first of ``_trivial_edges``, or None. Both half-edges of a pair
    are scanned, so an onto embedding at either endpoint is found."""
    return next(_trivial_edges(gog, tree), None)


class ContractionStep(Record):
    contracted_edge: str
    removed_vertex: str
    surviving_vertex: str


def _contract(
    gog: GraphOfGroups, tree: SpanningTree, candidates: Iterable[str]
) -> tuple[GraphOfGroups, SpanningTree, list[ContractionStep]]:
    """Contract each candidate tree half-edge that is still trivial at its
    turn; the datum and tree come back unchanged when none is."""
    g = gog.graph
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
    for e in candidates:
        if e in dropped:
            continue
        removed = find(g.terminus[e])
        if gog.order(e) != gog.vertex_order[removed]:
            continue
        survivor = find(g.origin[e])
        merged[removed] = survivor
        dropped.update((e, g.bar(e)))
        steps.append(ContractionStep(e, removed, survivor))
    if not steps:
        return gog, tree, steps

    home = {v: find(v) for v in g.vertices}
    kept = [e for e in g.orientation_reps() if e not in dropped]
    new_gog = build_gog(
        {v: n for v, n in gog.vertex_order.items() if v not in merged},
        [(e, home[g.origin[e]], home[g.terminus[e]], gog.edge_order[e]) for e in kept],
    )
    new_tree = SpanningTree(new_gog.graph, tree.tree_edges - dropped, home[tree.root])
    return new_gog, new_tree, steps


def contract_edge(
    gog: GraphOfGroups, tree: SpanningTree, e1: str
) -> tuple[GraphOfGroups, SpanningTree, ContractionStep]:
    """Contract the trivial tree half-edge e1 into its origin vertex.

    The pair {e1, bar(e1)} and the vertex t(e1) are removed; half-edges
    formerly incident to t(e1) become incident to o(e1). Orders are
    unchanged (the re-homed embeddings are compositions of embeddings).
    The shrunken tree still spans the new graph. A tree that does not span
    gog's graph, as ``NormalizedGog`` checks, or lacks e1 raises NotTreeEdge.
    """
    g = gog.graph
    if not _spans(tree, g):
        raise NotTreeEdge("tree is not a spanning tree of the datum's graph")
    if e1 not in tree.tree_edges:
        raise NotTreeEdge(e1)
    removed = g.terminus[e1]
    if gog.order(e1) != gog.vertex_order[removed]:
        raise NotTrivial(
            f"edge order {gog.order(e1)} != order "
            f"{gog.vertex_order[removed]} at {echo(removed)}"
        )
    new_gog, new_tree, (step,) = _contract(gog, tree, [e1])
    return new_gog, new_tree, step


def normalize(gog: GraphOfGroups) -> tuple[NormalizedGog, list[ContractionStep]]:
    """Contract trivial tree edges until none remains.

    The spanning tree is built once, rooted at the smallest vertex id, and
    shrinks with each contraction. Returns the normalized datum and the
    step log (empty, with the input datum, when it is already normalized).
    One ``_contract`` pass over ``_trivial_edges`` of the input gives the
    steps of repeated ``find_trivial_edge`` + ``contract_edge``.
    """
    tree = spanning_tree(gog.graph, gog.graph.vertices[0])
    new_gog, new_tree, steps = _contract(gog, tree, _trivial_edges(gog, tree))
    return NormalizedGog(new_gog, new_tree), steps

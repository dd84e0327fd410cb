"""Half-edge graphs with reversal involution.

A graph here is a pair of finite sets: vertices and directed half-edges.
Half-edges come in pairs exchanged by a fixed-point-free involution
(``bar``), with origin and terminus maps satisfying t(bar(e)) = o(e).
Loops and multiple edges are allowed; a *geometric edge* is a pair
{e, bar(e)} and an orientation selects one half-edge from each pair.

All ids are opaque strings ordered lexicographically; every traversal
visits ids in ascending order, so spanning trees and orientations are
reproducible. Values are immutable once built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BrokenInvolution,
    DanglingVertexRef,
    FixedPointInvolution,
    IncidenceMismatch,
    NotConnected,
    UnknownRoot,
)


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    half_edges: tuple[str, ...]
    bar: dict[str, str]
    origin: dict[str, str]
    terminus: dict[str, str]

    def geometric_edges(self) -> tuple[tuple[str, str], ...]:
        """Geometric edges as (e, bar(e)) pairs keyed by their smaller id."""
        pairs = []
        for e in self.half_edges:
            if e < self.bar[e]:
                pairs.append((e, self.bar[e]))
        return tuple(pairs)

    def orientation_reps(self) -> tuple[str, ...]:
        """The smaller half-edge of every pair: a canonical orientation."""
        return tuple(e for e, _ in self.geometric_edges())

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        """origin -> its half-edges, ascending by id, built in one pass.

        ``cached_property`` stores the table in the instance ``__dict__``,
        which a frozen dataclass allows; it is not a field, so equality is
        unchanged.
        """
        out: dict[str, list[str]] = {}
        for e in self.half_edges:
            out.setdefault(self.origin[e], []).append(e)
        return {v: tuple(es) for v, es in out.items()}

    def out_edges(self, v: str) -> tuple[str, ...]:
        """Half-edges with origin v, ascending by id."""
        return self._adjacency.get(v, ())

    def is_loop(self, e: str) -> bool:
        return self.origin[e] == self.terminus[e]


@dataclass(frozen=True)
class Orientation:
    """A choice of half-edges, at most one per geometric pair."""

    chosen: frozenset[str]


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of ``graph``: tree_edges is closed under bar."""

    graph: Graph
    tree_edges: frozenset[str]
    root: str

    def geometric_tree_edges(self) -> tuple[str, ...]:
        g = self.graph
        return tuple(e for e in sorted(self.tree_edges) if e < g.bar[e])


def build_graph(
    vertex_ids: list[str] | tuple[str, ...],
    edge_records: list[tuple[str, str, str, str]],
) -> Graph:
    """Assemble a Graph from half-edge records (id, bar id, origin, terminus).

    Both members of every pair must be listed, each naming the other as its
    bar. Raises FixedPointInvolution, BrokenInvolution, IncidenceMismatch,
    or DanglingVertexRef on malformed input.
    """
    vertices = tuple(sorted(vertex_ids))
    if len(set(vertices)) != len(vertices):
        raise DanglingVertexRef("duplicate vertex id")
    vset = set(vertices)

    bar: dict[str, str] = {}
    origin: dict[str, str] = {}
    terminus: dict[str, str] = {}
    for eid, bid, o, t in edge_records:
        if eid in bar:
            raise BrokenInvolution(f"duplicate half-edge id {eid!r}")
        if eid == bid:
            raise FixedPointInvolution(f"half-edge {eid!r} is its own reversal")
        if o not in vset:
            raise DanglingVertexRef(f"edge {eid!r} origin {o!r} is not a vertex")
        if t not in vset:
            raise DanglingVertexRef(f"edge {eid!r} terminus {t!r} is not a vertex")
        bar[eid], origin[eid], terminus[eid] = bid, o, t

    for e, b in bar.items():
        if b not in bar:
            raise BrokenInvolution(f"half-edge {e!r} names missing reversal {b!r}")
        if bar[b] != e:
            raise BrokenInvolution(f"reversal of {e!r} and {b!r} is not symmetric")
        if terminus[b] != origin[e]:
            raise IncidenceMismatch(
                f"terminus(bar({e!r})) != origin({e!r})"
            )

    return Graph(
        vertices=vertices,
        half_edges=tuple(sorted(bar)),
        bar=bar,
        origin=origin,
        terminus=terminus,
    )


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from the first vertex.

    The empty graph is not connected.
    """
    if not g.vertices:
        return False
    seen = {g.vertices[0]}
    frontier = deque(seen)
    while frontier:
        v = frontier.popleft()
        for e in g.out_edges(v):
            w = g.terminus[e]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(g.vertices)


def spanning_tree(g: Graph, root: str) -> SpanningTree:
    """Breadth-first spanning tree from ``root``.

    Half-edges are explored in ascending id order, so the result is
    a deterministic function of the graph and the root. Raises NotConnected
    if the search does not reach every vertex.
    """
    if root not in g.vertices:
        raise UnknownRoot(root)

    tree: set[str] = set()
    seen = {root}
    frontier = deque([root])
    while frontier:
        v = frontier.popleft()
        for e in g.out_edges(v):
            w = g.terminus[e]
            if w not in seen:
                seen.add(w)
                tree.add(e)
                tree.add(g.bar[e])
                frontier.append(w)
    if len(seen) != len(g.vertices):
        raise NotConnected("spanning tree requires a connected graph")
    return SpanningTree(graph=g, tree_edges=frozenset(tree), root=root)


def tree_distances(t: SpanningTree, v0: str) -> dict[str, int]:
    """Path-metric distance from v0 to every vertex, along tree edges."""
    g = t.graph
    dist = {v0: 0}
    frontier = deque([v0])
    while frontier:
        v = frontier.popleft()
        for e in g.out_edges(v):
            if e not in t.tree_edges:
                continue
            w = g.terminus[e]
            if w not in dist:
                dist[w] = dist[v] + 1
                frontier.append(w)
    return dist


def orient_from_root(t: SpanningTree, v0: str) -> Orientation:
    """Orient every tree edge away from v0.

    The chosen half-edges are exactly those whose terminus is one step
    further from v0 than their origin; e -> terminus(e) is then a
    bijection from the chosen set onto the vertices other than v0.
    """
    g = t.graph
    if v0 not in g.vertices:
        raise UnknownRoot(v0)
    dist = tree_distances(t, v0)
    chosen = frozenset(
        e for e in t.tree_edges if dist[g.terminus[e]] == dist[g.origin[e]] + 1
    )
    return Orientation(chosen=chosen)

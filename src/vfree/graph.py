"""Half-edge graphs with reversal involution.

A graph here is a pair of finite sets, vertices and directed half-edges,
and one incidence map: the origin of each half-edge. Half-edges come in
pairs ``name`` / ``name~``, and the reversal ``bar`` is that naming rule,
a fixed-point-free involution on ids; the terminus is derived from it as
t(e) = o(bar(e)). Loops and multiple edges are allowed; a *geometric
edge* is a pair {e, bar(e)}, and its orientation representative is
``name``, the id without '~'.

``build_graph`` makes each pair from one geometric edge (name, o, t):
``name`` runs o -> t and ``name~`` back, so the axioms hold by construction.

All ids are opaque strings ordered lexicographically; every traversal
visits ids in ascending order, so spanning trees and orientations are
reproducible. Values are immutable once built.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from .errors import (
    DanglingVertexRef, GogSyntaxError, NotConnected, UnknownRoot, cut, echo,
)

BAR_SUFFIX = "~"


class Record:
    """An immutable record: its fields are its class's annotations, given by
    position or keyword and then validated by ``__post_init__``. It equals
    only a record of its class with equal fields, and hashes by them."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({pairs})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Graph(Record):
    vertices: tuple[str, ...]
    half_edges: tuple[str, ...]
    origin: dict[str, str]

    @staticmethod
    def bar(e: str) -> str:
        """The reverse of half-edge e: ``name`` <-> ``name~``."""
        return e[:-1] if e[-1:] == BAR_SUFFIX else e + BAR_SUFFIX

    def orientation_reps(self) -> tuple[str, ...]:
        """The half-edge without '~' of every geometric edge, ascending by id."""
        return tuple(e for e in self.half_edges if e[-1:] != BAR_SUFFIX)

    @cached_property
    def terminus(self) -> dict[str, str]:
        """half-edge -> origin of its reverse, built once.

        ``cached_property`` stores the table in the instance ``__dict__``
        directly, past ``Record.__setattr__``; like ``_adjacency`` it is
        not a field, so equality and hashing ignore it.
        """
        origin, bar = self.origin, self.bar
        return {e: origin[bar(e)] for e in self.half_edges}

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        """origin -> its half-edges, ascending by id, built in one pass."""
        out: dict[str, list[str]] = {}
        for e in self.half_edges:
            out.setdefault(self.origin[e], []).append(e)
        return {v: tuple(es) for v, es in out.items()}

    def out_edges(self, v: str) -> tuple[str, ...]:
        """Half-edges with origin v, ascending by id."""
        return self._adjacency.get(v, ())

    def is_loop(self, e: str) -> bool:
        return self.origin[e] == self.terminus[e]


class SpanningTree(Record):
    """A spanning tree of ``graph``: tree_edges is closed under bar."""

    graph: Graph
    tree_edges: frozenset[str]
    root: str


def build_graph(
    vertex_ids: list[str] | tuple[str, ...],
    edges: list[tuple[str, str, str]],
) -> Graph:
    """Assemble a Graph from geometric edges (name, origin, terminus).

    Each edge becomes the half-edge pair name/name~. Raises GogSyntaxError
    for an id containing '~' or a repeated vertex or edge id, and
    DanglingVertexRef for an endpoint that is not a vertex.
    """
    vertices = tuple(sorted(vertex_ids))
    for v in vertices:
        if BAR_SUFFIX in v:
            raise GogSyntaxError(f"vertex id {echo(v)} contains reserved '~'")
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise GogSyntaxError("duplicate vertex id")

    origin: dict[str, str] = {}
    for name, o, t in edges:
        if BAR_SUFFIX in name:
            raise GogSyntaxError(f"edge id {echo(name)} contains reserved '~'")
        if name in origin:
            raise GogSyntaxError(f"duplicate edge {echo(name)}")
        for end, v in (("origin", o), ("terminus", t)):
            if v not in vset:
                raise DanglingVertexRef(
                    f"edge {echo(name)} {end} {echo(v)} is not a vertex"
                )
        origin[name], origin[name + BAR_SUFFIX] = o, t

    return Graph(vertices=vertices, half_edges=tuple(sorted(origin)), origin=origin)


def _reach(
    g: Graph, root: str, tree_edges: frozenset[str] | None = None
) -> dict[str, str | None]:
    """Breadth-first search from ``root``: every reached vertex -> the
    half-edge that first reached it (None for the root).

    Half-edges are explored in ascending id order, and only those in
    ``tree_edges`` when it is given, so the map is a deterministic function
    of its arguments.
    """
    via: dict[str, str | None] = {root: None}
    frontier = deque([root])
    terminus = g.terminus  # one attribute lookup, not one per half-edge
    while frontier:
        v = frontier.popleft()
        for e in g.out_edges(v):
            w = terminus[e]
            if w not in via and (tree_edges is None or e in tree_edges):
                via[w] = e
                frontier.append(w)
    return via


def _unreached(g: Graph, root: str, via: dict[str, str | None]) -> NotConnected:
    """NotConnected naming the first vertex of ``g`` that the search from
    ``root``, whose ``_reach`` map is ``via``, did not reach."""
    lost = next(v for v in g.vertices if v not in via)
    return NotConnected(f"vertex {cut(lost)} is not reachable from vertex {cut(root)}")


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from the first vertex.

    The empty graph is not connected.
    """
    return bool(g.vertices) and len(_reach(g, g.vertices[0])) == len(g.vertices)


def spanning_tree(g: Graph, root: str) -> SpanningTree:
    """Breadth-first spanning tree from ``root``.

    Half-edges are explored in ascending id order, so the result is
    a deterministic function of the graph and the root. Raises NotConnected,
    naming the first vertex the search does not reach.
    """
    if root not in g.vertices:
        raise UnknownRoot(root)
    via = _reach(g, root)
    if len(via) != len(g.vertices):
        raise _unreached(g, root, via)
    # the half-edge that first reached each vertex, and its reverse, as the
    # graph's own strings: g.bar(e) would be a new copy for the tree to hold
    first = set(via.values())
    tree = frozenset(e for e in g.half_edges if e in first or g.bar(e) in first)
    return SpanningTree(graph=g, tree_edges=tree, root=root)


def orient_from_root(t: SpanningTree, v0: str) -> frozenset[str]:
    """Orient every tree edge away from v0.

    In a tree the half-edge that first reaches w from v0 is the one tree
    half-edge pointing one step away from v0 and ending at w, so
    e -> terminus(e) is a bijection from the returned set onto the vertices
    other than v0.
    """
    if v0 not in t.graph.vertices:
        raise UnknownRoot(v0)
    via = _reach(t.graph, v0, t.tree_edges)
    return frozenset(e for e in via.values() if e is not None)

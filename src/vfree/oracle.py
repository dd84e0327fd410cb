"""Independent brute-force validators and test-data generators.

The subgroup counter enumerates permutation actions directly and knows
nothing about convolutions or product formulas; it is the ground truth the
counting code is checked against where both apply (trivial vertex groups).
Likewise the orientation checker tries all orientations of a tree rather
than trusting the root-directed construction. The shape corpus is one
table of the seven small connected shapes, read by one loop that keeps the
least order tuple of each symmetry orbit. Nothing here imports from the
counting or invariants modules.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator

from .errors import DegreeTooLarge, NonExactDivision, TooLarge
from .gog import GraphOfGroups, build_gog
from .graph import Graph, SpanningTree, build_graph, orient_from_root

MAX_ORACLE_DEGREE = 6
MAX_ORACLE_TREE_EDGES = 20
MAX_SHAPE_ORDER = 12
MAX_RANDOM_TREE_EDGES = 10


def _acts_transitively(perms: tuple[tuple[int, ...], ...], n: int) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


def _cycle_types(n: int, largest: int | None = None):
    """Partitions of n into parts <= largest, each a descending tuple."""
    if n == 0:
        yield ()
    for k in range(min(n, largest or n), 0, -1):
        for rest in _cycle_types(n - k, k):
            yield (k, *rest)


def free_group_subgroup_counts(r: int, N: int) -> list[int]:
    """Subgroups of index 1..N in the free group of rank r, by enumeration.

    For each degree n, every r-tuple of permutations of n points is an
    action; counting the transitive tuples t_n and dividing by (n-1)!
    gives the subgroup count. The division must be exact. Conjugating a
    tuple keeps it transitive, so the first permutation runs over one
    representative of each cycle type, weighted by its class size n!/z.
    """
    if r < 1:
        raise DegreeTooLarge(f"rank must be >= 1, got {r}")
    if N > MAX_ORACLE_DEGREE:
        raise DegreeTooLarge(f"degree {N} > {MAX_ORACLE_DEGREE}")
    counts = []
    for n in range(1, N + 1):
        perms = list(itertools.permutations(range(n)))
        transitive = 0
        for shape in _cycle_types(n):
            first: tuple[int, ...] = ()
            for k in shape:  # the cycle s -> s+1 -> ... -> s+k-1 -> s
                s = len(first)
                first += tuple(s + (i + 1) % k for i in range(k))
            z = math.prod(k**j * math.factorial(j) for k, j in Counter(shape).items())
            completions = sum(
                _acts_transitively((first, *rest), n)
                for rest in itertools.product(perms, repeat=r - 1)
            )
            transitive += math.factorial(n) // z * completions
        quot, rem = divmod(transitive, math.factorial(n - 1))
        if rem:
            raise NonExactDivision(f"t_{n} = {transitive} not divisible by ({n}-1)!")
        counts.append(quot)
    return counts


def orientation_uniqueness(tree: SpanningTree, v0: str) -> bool:
    """Try all orientations of the tree; exactly one may send e -> t(e)
    bijectively onto the vertices other than v0, and it must equal the
    root-directed orientation."""
    g = tree.graph
    pairs = [(e, g.bar(e)) for e in g.orientation_reps() if e in tree.tree_edges]
    if len(pairs) > MAX_ORACLE_TREE_EDGES:
        raise TooLarge(f"{len(pairs)} geometric edges > {MAX_ORACLE_TREE_EDGES}")

    others = set(g.vertices) - {v0}
    terminus = g.terminus
    winners = []
    for picks in itertools.product(*pairs) if pairs else [()]:
        # |picks| = |V| - 1 = |others|, so onto others means a bijection
        if {terminus[e] for e in picks} == others:
            winners.append(frozenset(picks))
    return len(winners) == 1 and winners[0] == orient_from_root(tree, v0)


def _divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending, by a scan up to n."""
    return [d for d in range(1, n + 1) if n % d == 0]


# The seven connected shapes with <= 3 vertices and <= 2 geometric edges:
# vertex count, edge ends by vertex index (BFS tree edges first), number of
# tree edges, and symmetries as permutations of (vertex orders, edge orders).
_SHAPES = (
    (1, (), 0, ()),  # a vertex
    (1, ((0, 0),), 0, ()),  # a loop
    (1, ((0, 0), (0, 0)), 0, ((0, 2, 1),)),  # two loops
    (2, ((0, 1),), 1, ((1, 0, 2),)),  # a segment
    (2, ((0, 1), (1, 1)), 1, ()),  # a segment, a loop at its end
    (2, ((0, 1), (0, 1)), 1, ((1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2))),  # parallel
    (3, ((0, 1), (1, 2)), 2, ((2, 1, 0, 4, 3),)),  # a path
)


def _shape_data(order_bound: int):
    """Yield (vertex_orders, edge_specs) once per normalized shape with <= 3
    vertices and <= 2 geometric edges, up to relabeling: an edge's order
    divides its ends' gcd and, on a tree edge, is below both; an order tuple
    is kept iff it is <= its image under every symmetry (one per orbit)."""
    orders = range(1, order_bound + 1)
    divisors = [[], *map(_divisors, orders)]
    for n_vertices, ends, n_tree, symmetries in _SHAPES:
        names = [f"v{i}" for i in range(1, n_vertices + 1)]
        edges = [(f"e{i}", names[u], names[v]) for i, (u, v) in enumerate(ends, 1)]
        images = [operator.itemgetter(*p) for p in symmetries]
        for vorders in itertools.product(orders, repeat=n_vertices):
            per_edge = []
            for i, (u, v) in enumerate(ends):
                a, b = vorders[u], vorders[v]
                ds = divisors[math.gcd(a, b)]
                per_edge.append(ds[: bisect_left(ds, min(a, b))] if i < n_tree else ds)
            for eorders in itertools.product(*per_edge):
                t = vorders + eorders
                for image in images:
                    if image(t) < t:
                        break
                else:
                    specs = [(*edge, s) for edge, s in zip(edges, eorders)]
                    yield dict(zip(names, vorders)), specs


def exhaustive_rank2_shapes(order_bound: int) -> Iterator[GraphOfGroups]:
    """All normalized data with <= 3 vertices, <= 2 geometric edges, and
    orders <= order_bound, deterministic and duplicate-free.

    The data cover every free rank that such shapes realize; callers
    filter by rank. Every datum is a fixed point of normalization (its
    BFS spanning tree has no trivial edges). TooLarge is raised at the
    call; the data are then built one at a time, as the iterator is read.
    """
    if order_bound > MAX_SHAPE_ORDER:
        raise TooLarge(f"order bound {order_bound} > {MAX_SHAPE_ORDER}")
    return (build_gog(vorders, especs) for vorders, especs in _shape_data(order_bound))


def random_gog(
    rng: random.Random,
    max_vertices: int = 6,
    max_geometric_edges: int = 6,
    max_order: int = 24,
) -> GraphOfGroups:
    """A random valid connected datum, for property tests.

    Vertex orders are drawn from the divisors of a random base <= max_order,
    which keeps the lcm of the orders (and hence every factorial in the
    counting series) desk-scale while still exercising mixed torsion.
    Edge orders are random divisors of the gcd at their endpoints, so
    trivial edges occur regularly and normalization has real work to do.
    """
    base = rng.randint(1, max_order)
    base_divs = _divisors(base)
    nv = rng.randint(1, max_vertices)
    vertex_orders = {f"v{i}": rng.choice(base_divs) for i in range(1, nv + 1)}
    names = sorted(vertex_orders)

    def random_edge_order(u: str, v: str) -> int:
        return rng.choice(_divisors(math.gcd(vertex_orders[u], vertex_orders[v])))

    specs = []
    for i in range(2, nv + 1):
        u = f"v{rng.randint(1, i - 1)}"
        v = f"v{i}"
        specs.append((f"e{len(specs) + 1}", u, v, random_edge_order(u, v)))
    extra = rng.randint(0, max_geometric_edges - (nv - 1))
    for _ in range(extra):
        u, v = rng.choice(names), rng.choice(names)
        specs.append((f"e{len(specs) + 1}", u, v, random_edge_order(u, v)))
    return build_gog(vertex_orders, specs)


def random_tree_graph(rng: random.Random) -> Graph:
    """A random tree as a half-edge graph (random attachment order)."""
    n_edges = rng.randint(0, MAX_RANDOM_TREE_EDGES)
    vertices = [f"v{i:02d}" for i in range(1, n_edges + 2)]
    edges = [
        (f"e{i - 1:02d}", f"v{rng.randint(1, i - 1):02d}", f"v{i:02d}")
        for i in range(2, n_edges + 2)
    ]
    return build_graph(vertices, edges)

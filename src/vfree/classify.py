"""Structural classification of normalized data by free rank.

Rank 0 is a finite group (single vertex, no edges). Rank 1 splits into
two classes: a finite normal subgroup with infinite-cyclic quotient
(single loop whose edge group fills the vertex group), or an amalgam of
two finite groups over an index-2 subgroup (segment). Rank 2 splits into
five classes, realized by the normalized shapes: single loop of index 2;
two loops filling the vertex group; segment with index pair {2,3}, {3,3},
or {2,4}; segment glued to an index-1 loop; and a path of three groups of
equal order amalgamated over index-2 subgroups. Each shape forces its
indices, so ``_PATTERNS`` is one table from index pattern to class.

Largeness criterion (vii)'s non-large shapes are the rank <= 1 rows of
the same table.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

from .errors import UnclassifiableShape
from .gog import GraphOfGroups, NormalizedGog
from .graph import Record
from .invariants import _net_orders, _rank


class Label(Enum):
    """A structural class, with its output line, recurrence family and params.

    ``line`` is the class's ``vfree classify`` line, a format string filled
    from the report's params; ``family`` names the class's recurrence in
    ``counting.f_series_rank2`` ("i"-"v", None outside rank 2); ``params``
    names the report's params, in order.
    """

    FINITE = ("rank=0 class=FINITE m={m}", None, "m")
    R1_I = ("rank=1 class=I m={m}", None, "m")
    R1_II = ("rank=1 class=II m={m} |S|={S}", None, "m S a1 a2")
    R2_I = ("rank=2 class=I m={m} |S|={S} index={index}", "i", "m S index")
    R2_II = ("rank=2 class=II m={m}", "ii", "m")
    R2_III_1 = ("rank=2 class=III_1 a=({a1},{a2}) |S|={S}", "iii", "m S a1 a2")
    R2_III_2 = ("rank=2 class=III_2 a=({a1},{a2}) |S|={S}", "iii", "m S a1 a2")
    R2_III_3 = ("rank=2 class=III_3 a=({a1},{a2}) |S|={S}", "iii", "m S a1 a2")
    R2_IV = ("rank=2 class=IV m={m} |S1|={S1} |S2|={S2}", "iv", "m S1 S2")
    R2_V = ("rank=2 class=V m={m} |S1|={S1} |S2|={S2}", "v", "m S1 S2")
    HIGHER = ("rank={mu} class=HIGHER m={m}", None, "m mu")

    def __init__(self, line: str, family: str | None, params: str):
        self.line = line
        self.family = family
        self.params = tuple(params.split())


# (vertex count, sorted m/|G_v|, sorted (is-loop, m/|G_e|)) -> class, for
# the normalized data of rank <= 2. R2_I has two rows: the index-2 loop, and
# parallel edges of orders m/2 and m, whose order-m edge identifies the two
# vertex groups and leaves an HNN extension with index-2 associated subgroups
_PATTERNS = {
    (1, (1,), ()): Label.FINITE,
    (1, (1,), ((True, 1),)): Label.R1_I,
    (2, (1, 1), ((False, 2),)): Label.R1_II,
    (1, (1,), ((True, 2),)): Label.R2_I,
    (2, (1, 1), ((False, 1), (False, 2))): Label.R2_I,
    (1, (1,), ((True, 1), (True, 1))): Label.R2_II,
    (2, (2, 3), ((False, 6),)): Label.R2_III_1,
    (2, (1, 1), ((False, 3),)): Label.R2_III_2,
    (2, (1, 2), ((False, 4),)): Label.R2_III_3,
    (2, (1, 1), ((False, 2), (True, 1))): Label.R2_IV,
    (3, (1, 1, 1), ((False, 2), (False, 2))): Label.R2_V,
}


def _pattern(gog: GraphOfGroups, m: int) -> tuple:
    """The index pattern, the key of _PATTERNS, of a datum with m = m_gamma."""
    g = gog.graph
    return (
        len(g.vertices),
        tuple(sorted(m // n for n in gog.vertex_order.values())),
        tuple(sorted((g.is_loop(e), m // s) for e, s in gog.edge_order.items())),
    )


class ClassificationReport(Record):
    """The free rank mu, the class, the ``params`` that fill ``label.line``,
    and the witness ids (vertices and half-edges) of the matched shape."""

    rank: int
    label: Label
    params: dict[str, int]
    witness: tuple[str, ...]


class LargenessReport(Record):
    chi_negative: bool
    rank_ge_2: bool
    structural_vii: bool
    f_strictly_increasing_prefix: bool


def classify(ngog: NormalizedGog) -> ClassificationReport:
    """Classify a normalized datum by rank and index pattern.

    The params are read off the witness edges: S = S1 = |G_e1| for the
    first, e1; S2 is the order of the last; (a1, a2) are the sorted orders
    of e1's ends divided by S; and index = a1. UnclassifiableShape signals
    an implementation bug: normalized data of rank at most 2 always have a
    row in ``_PATTERNS``.
    """
    gog = ngog.gog
    g = gog.graph
    m, net = _net_orders(gog)
    mu = _rank(m, net)
    if mu >= 3:
        return ClassificationReport(mu, Label.HIGHER, {"m": m, "mu": mu}, ())

    pattern = _pattern(gog, m)
    if (label := _PATTERNS.get(pattern)) is None:
        raise UnclassifiableShape(f"rank {mu}: no class has index pattern {pattern}")
    witness, edges = _walk(ngog)
    val = {"m": m}
    if edges:
        e1, last = edges[0], edges[-1]
        s, o, t = gog.edge_order[e1], g.origin[e1], g.terminus[e1]
        a1, a2 = sorted((gog.vertex_order[o] // s, gog.vertex_order[t] // s))
        val.update(S=s, S1=s, S2=gog.edge_order[last], a1=a1, a2=a2, index=a1)
    return ClassificationReport(mu, label, {p: val[p] for p in label.params}, witness)


def _walk(ngog: NormalizedGog) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(witness, its edges): the tree edges as a path, then the non-tree
    edges in id order, each by its name without '~'. The path starts at a
    tree leaf that carries no loop: with one tree edge its origin, else its
    terminus; with more, the first in ``g.vertices`` order. With no tree
    edge it starts at the only vertex. Rank <= 2 trees are paths."""
    g = ngog.gog.graph
    ends = {e: (g.origin[e], g.terminus[e]) for e in g.orientation_reps()}
    path = {e: vw for e, vw in ends.items() if e in ngog.tree.tree_edges}
    rest = tuple(e for e in ends if e not in path)
    looped = {ends[e][0] for e in rest if g.is_loop(e)}
    degree = Counter(v for vw in path.values() for v in vw)
    starts = next(iter(path.values())) if len(path) == 1 else g.vertices
    # with no tree edge no vertex is a leaf, and the default is the only one
    v = next((u for u in starts if degree[u] == 1 and u not in looped), g.vertices[0])
    witness = [v]
    while path:
        e = next(e for e, vw in path.items() if v in vw)
        o, t = path.pop(e)
        v = t if v == o else o
        witness += (e, v)
    return (*witness, *rest), (*witness[1::2], *rest)


def largeness_report(ngog: NormalizedGog, N: int) -> LargenessReport:
    """Evaluate the computable largeness criteria on a normalized datum.

    The three exact criteria (negative Euler characteristic, rank >= 2,
    and the structural test on the normalized graph) are provably
    equivalent; the strictly-increasing test inspects the finite prefix
    f_1..f_N. Criteria needing ends, the largeness preorder, or subgroup
    growth asymptotics are implied-equivalent but not computed here.
    """
    from .counting import f_series  # here, so `vfree classify` never loads counting

    gog = ngog.gog
    m, net = _net_orders(gog)
    rank_ge_2 = _rank(m, net) >= 2
    pattern = _, v_index, e_index = _pattern(gog, m)
    # m*chi = sum_v m/|G_v| - sum_e m/|G_e|, in integers over the graph
    chi_negative = sum(v_index) < sum(i for _, i in e_index)
    # criterion (vii): large unless the pattern is a rank <= 1 row; those
    # rows have at most one edge, and their indices force the shape
    structural = _PATTERNS.get(pattern) not in (Label.FINITE, Label.R1_I, Label.R1_II)

    # through the public f_series, not its kernel, so that the benchmark's
    # trace times this f layer; that derives the type once more
    f = f_series(gog, N)
    increasing = all(f[i] < f[i + 1] for i in range(len(f) - 1))
    return LargenessReport(
        chi_negative=chi_negative,
        rank_ge_2=rank_ge_2,
        structural_vii=structural,
        f_strictly_increasing_prefix=increasing,
    )

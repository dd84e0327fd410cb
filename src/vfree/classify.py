"""Structural classification of normalized data by free rank.

Rank 0 is a finite group (single vertex, no edges). Rank 1 splits into
two classes: a finite normal subgroup with infinite-cyclic quotient
(single loop whose edge group fills the vertex group), or an amalgam of
two finite groups over an index-2 subgroup (segment). Rank 2 splits into
five classes, realized by the normalized shapes: single loop of index 2;
two loops filling the vertex group; segment with index pair {2,3}, {3,3},
or {2,4}; segment glued to an index-1 loop; and a path of three groups of
equal order amalgamated over index-2 subgroups.

A sixth rank-2 shape exists: two parallel edges, forced to have equal
vertex orders m, tree-edge order m/2, and second edge order m. Its
fundamental group is an HNN extension over the base group of either
vertex with index-2 associated subgroups - eliminating the order-m edge
identifies the two vertex groups - so it is reported as the loop class
with the same parameters.
"""

from __future__ import annotations

from enum import Enum

from .errors import UnclassifiableShape
from .gog import NormalizedGog
from .graph import Record
from .invariants import euler_char, free_rank, m_gamma


class Label(Enum):
    """A structural class, with its output line and recurrence family.

    ``line`` is the class's ``vfree classify`` line, a format string filled
    from the report's params; ``family`` names the class's recurrence in
    ``counting.f_series_rank2`` ("i"-"v", None outside rank 2).
    """

    FINITE = ("rank=0 class=FINITE m={m}", None)
    R1_I = ("rank=1 class=I m={m}", None)
    R1_II = ("rank=1 class=II m={m} |S|={S}", None)
    R2_I = ("rank=2 class=I m={m} |S|={S} index={index}", "i")
    R2_II = ("rank=2 class=II m={m}", "ii")
    R2_III_1 = ("rank=2 class=III_1 a=({a1},{a2}) |S|={S}", "iii")
    R2_III_2 = ("rank=2 class=III_2 a=({a1},{a2}) |S|={S}", "iii")
    R2_III_3 = ("rank=2 class=III_3 a=({a1},{a2}) |S|={S}", "iii")
    R2_IV = ("rank=2 class=IV m={m} |S1|={S1} |S2|={S2}", "iv")
    R2_V = ("rank=2 class=V m={m} |S1|={S1} |S2|={S2}", "v")
    HIGHER = ("rank={mu} class=HIGHER m={m}", None)

    def __init__(self, line: str, family: str | None):
        self.line = line
        self.family = family


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
    """Classify a normalized datum by rank and shape.

    UnclassifiableShape signals an implementation bug: normalized data of
    rank at most 2 always match one of the listed shapes.
    """
    gog = ngog.gog
    g = gog.graph
    mu = free_rank(gog)
    m = m_gamma(gog)

    def report(label: Label, params: dict[str, int], witness: tuple[str, ...]):
        return ClassificationReport(rank=mu, label=label, params=params, witness=witness)

    def fail(why: str):
        return UnclassifiableShape(f"rank {mu}: {why}")

    n_vertices = len(g.vertices)
    geom = g.orientation_reps()

    if mu >= 3:
        return report(Label.HIGHER, {"m": m, "mu": mu}, ())

    if mu == 0:
        if n_vertices == 1 and not geom:
            v = g.vertices[0]
            return report(Label.FINITE, {"m": m}, (v,))
        raise fail("rank-0 datum is not a bare vertex")

    loops = tuple(e for e in geom if g.is_loop(e))
    segments = tuple(e for e in geom if not g.is_loop(e))

    if mu == 1:
        if n_vertices == 1 and len(loops) == 1 and not segments:
            v = g.vertices[0]
            e = loops[0]
            if gog.edge_order[e] == gog.vertex_order[v]:
                return report(Label.R1_I, {"m": m}, (v, e))
            raise fail("loop embeddings are not onto")
        if n_vertices == 2 and len(segments) == 1 and not loops:
            e = segments[0]
            s = gog.edge_order[e]
            if all(gog.vertex_order[v] == 2 * s for v in g.vertices):
                return report(
                    Label.R1_II,
                    {"m": m, "S": s, "a1": 2, "a2": 2},
                    (g.origin[e], e, g.terminus[e]),
                )
            raise fail("segment indices are not (2, 2)")
        raise fail("unexpected rank-1 shape")

    # mu == 2
    if n_vertices == 1 and len(loops) == 1 and not segments:
        v = g.vertices[0]
        e = loops[0]
        s = gog.edge_order[e]
        if gog.vertex_order[v] == 2 * s:
            return report(Label.R2_I, {"m": m, "S": s, "index": 2}, (v, e))
        raise fail("single loop does not have index 2")

    if n_vertices == 1 and len(loops) == 2:
        v = g.vertices[0]
        if all(gog.edge_order[e] == gog.vertex_order[v] for e in loops):
            return report(Label.R2_II, {"m": m}, (v,) + loops)
        raise fail("two-loop embeddings are not onto")

    if n_vertices == 2 and len(segments) == 1 and not loops:
        e = segments[0]
        s = gog.edge_order[e]
        a1, a2 = sorted(gog.vertex_order[v] // s for v in g.vertices)
        sub = {(2, 3): Label.R2_III_1, (3, 3): Label.R2_III_2, (2, 4): Label.R2_III_3}
        if (a1, a2) in sub:
            return report(
                sub[(a1, a2)],
                {"m": m, "S": s, "a1": a1, "a2": a2},
                (g.origin[e], e, g.terminus[e]),
            )
        raise fail(f"segment index pair {(a1, a2)} is not {{2,3}}, {{3,3}}, {{2,4}}")

    if n_vertices == 2 and len(segments) == 1 and len(loops) == 1:
        e_seg, e_loop = segments[0], loops[0]
        s1 = gog.edge_order[e_seg]
        loop_v = g.origin[e_loop]
        other = next(v for v in g.vertices if v != loop_v)
        if (
            gog.vertex_order[other] == 2 * s1
            and gog.vertex_order[loop_v] == 2 * s1
            and gog.edge_order[e_loop] == gog.vertex_order[loop_v]
        ):
            return report(
                Label.R2_IV,
                {"m": m, "S1": s1, "S2": gog.edge_order[e_loop]},
                (other, e_seg, loop_v, e_loop),
            )
        raise fail("segment-plus-loop orders are not (2, 2; 1)")

    if n_vertices == 2 and len(segments) == 2 and not loops:
        tree_e = next(e for e in segments if e in ngog.tree.tree_edges)
        par_e = next(e for e in segments if e not in ngog.tree.tree_edges)
        s = gog.edge_order[tree_e]
        if (
            all(gog.vertex_order[v] == 2 * s for v in g.vertices)
            and gog.edge_order[par_e] == 2 * s
        ):
            # parallel order-m edge identifies the vertex groups: an HNN
            # extension with index-2 associated subgroups, same as a loop
            return report(
                Label.R2_I,
                {"m": m, "S": s, "index": 2},
                (g.origin[tree_e], tree_e, g.terminus[tree_e], par_e),
            )
        raise fail("parallel-edge orders are not (m, m; m/2, m)")

    if n_vertices == 3 and len(segments) == 2 and not loops:
        degree = {v: 0 for v in g.vertices}
        for e in segments:
            degree[g.origin[e]] += 1
            degree[g.terminus[e]] += 1
        mid = next(v for v in g.vertices if degree[v] == 2)
        ends = tuple(v for v in g.vertices if v != mid)
        orders = [gog.vertex_order[v] for v in g.vertices]
        s_orders = [gog.edge_order[e] for e in segments]
        if all(n == m for n in orders) and all(2 * s == m for s in s_orders):
            # order the witness end-to-end
            first = next(
                e for e in segments if ends[0] in (g.origin[e], g.terminus[e])
            )
            second = next(e for e in segments if e != first)
            return report(
                Label.R2_V,
                {"m": m, "S1": gog.edge_order[first], "S2": gog.edge_order[second]},
                (ends[0], first, mid, second, ends[1]),
            )
        raise fail("path orders are not all m with index-2 amalgams")

    raise fail("unexpected rank-2 shape")


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
    g = gog.graph
    chi_negative = euler_char(gog) < 0
    rank_ge_2 = free_rank(gog) >= 2

    # criterion (vii): large unless the normalized datum is a bare vertex,
    # one loop whose edge group is the whole vertex group, or one edge
    # amalgamating two index-2 subgroups
    geom = g.orientation_reps()
    structural = len(geom) >= 2
    if len(geom) == 1:
        e = geom[0]
        s = gog.edge_order[e]
        a = gog.vertex_order[g.origin[e]] // s, gog.vertex_order[g.terminus[e]] // s
        structural = a[0] >= 2 if g.is_loop(e) else a != (2, 2)

    f = f_series(gog, N)
    increasing = all(f[i] < f[i + 1] for i in range(len(f) - 1))
    return LargenessReport(
        chi_negative=chi_negative,
        rank_ge_2=rank_ge_2,
        structural_vii=structural,
        f_strictly_increasing_prefix=increasing,
    )

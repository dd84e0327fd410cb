import math
import random
import re
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings

from helpers import (
    c2_star_c3,
    dihedral,
    distinguish_rank1,
    double_edge,
    euler_char_direct,
    free_bouquet,
    hnn_loop,
    seeded_random_data,
    segment,
    segment_with_loop,
    small_gogs,
    structural_vii_direct,
    walk_direct,
    triple_c2,
)
from vfree.classify import (
    _PATTERNS,
    ClassificationReport,
    Label,
    _walk,
    classify,
    largeness_report,
)
from vfree.counting import f_series, f_series_rank2
from vfree.errors import UnclassifiableShape, WrongRank
from vfree.gog import build_gog
from vfree.invariants import (
    _net_orders,
    divisors,
    free_rank,
    m_gamma,
    type_vector,
)
from vfree.normalize import normalize
from vfree.oracle import _shape_data, exhaustive_rank2_shapes


def classified(gog):
    return classify(normalize(gog)[0])


def index_pattern(gog):
    """(vertex count, sorted m/|G_v|, sorted (is-loop, m/|G_e|)) of a datum."""
    g, m = gog.graph, m_gamma(gog)
    edges = ((g.is_loop(e), m // gog.edge_order[e]) for e in g.orientation_reps())
    vertex_indices = tuple(sorted(m // gog.vertex_order[v] for v in g.vertices))
    return len(g.vertices), vertex_indices, tuple(sorted(edges))


def relabeled(rng, vertex_orders, edge_specs):
    """The datum with fresh vertex and edge ids, each edge reversed with
    probability 1/2, and the vertices and specs in shuffled order."""
    ids = rng.sample([f"{c}{i}" for c in "puvx" for i in range(9)], len(vertex_orders))
    rename = dict(zip(vertex_orders, ids))
    vertices = [(rename[v], n) for v, n in vertex_orders.items()]
    specs = []
    for _, o, t, order in edge_specs:
        if rng.random() < 0.5:
            o, t = t, o
        specs.append((f"{rng.choice('efs')}{len(specs)}", rename[o], rename[t], order))
    rng.shuffle(vertices)
    rng.shuffle(specs)
    return build_gog(dict(vertices), specs)


class TestClassifyShapes:
    def test_finite(self):
        rep = classified(build_gog({"v": 7}, []))
        assert rep.rank == 0
        assert rep.label is Label.FINITE
        assert rep.params["m"] == 7

    def test_rank1_loop(self):
        rep = classified(hnn_loop(4, 4))
        assert rep.label is Label.R1_I
        assert rep.rank == 1
        assert rep.params == {"m": 4}

    def test_rank1_segment(self):
        rep = classified(dihedral())
        assert rep.label is Label.R1_II
        assert rep.params == {"m": 2, "S": 1, "a1": 2, "a2": 2}
        rep6 = classified(segment(6, 3, 6))
        assert rep6.label is Label.R1_II
        assert rep6.params["S"] == 3

    def test_rank2_loop_index_two(self):
        rep = classified(hnn_loop(4, 2))
        assert rep.label is Label.R2_I
        assert rep.params == {"m": 4, "S": 2, "index": 2}
        assert set(rep.witness) == {"v", "e"}

    def test_rank2_two_loops(self):
        rep = classified(free_bouquet(2))
        assert rep.label is Label.R2_II
        assert rep.params == {"m": 1}

    def test_rank2_segment_subcases(self):
        assert classified(c2_star_c3()).label is Label.R2_III_1
        assert classified(c2_star_c3()).params == {"m": 6, "S": 1, "a1": 2, "a2": 3}
        assert classified(segment(3, 1, 3)).label is Label.R2_III_2
        assert classified(segment(2, 1, 4)).label is Label.R2_III_3
        assert classified(segment(8, 4, 16)).label is Label.R2_III_3

    def test_rank2_segment_with_loop(self):
        rep = classified(segment_with_loop(2, 1, 2, 2))
        assert rep.label is Label.R2_IV
        assert rep.params == {"m": 2, "S1": 1, "S2": 2}

    def test_rank2_path(self):
        rep = classified(triple_c2())
        assert rep.label is Label.R2_V
        assert rep.params == {"m": 2, "S1": 1, "S2": 1}
        assert len(rep.witness) == 5

    def test_rank2_parallel_edges_report_loop_class(self):
        # eliminating the full-order parallel edge identifies the two vertex
        # groups, leaving an HNN extension with index-2 associated subgroups
        rep = classified(double_edge(4, 2, 4, 4))
        assert rep.label is Label.R2_I
        assert rep.params == {"m": 4, "S": 2, "index": 2}

    def test_higher_rank(self):
        rep = classified(free_bouquet(3))
        assert rep.label is Label.HIGHER
        assert rep.rank == 3

    def test_invariant_under_relabeling(self):
        a = classified(build_gog({"x": 2, "y": 3}, [("u", "x", "y", 1)]))
        b = classified(build_gog({"p": 3, "q": 2}, [("w", "q", "p", 1)]))
        assert a.label is b.label
        assert a.params == b.params

        rng = random.Random(28)
        swept = 0
        for vertex_orders, edge_specs in _shape_data(8):
            base = classified(build_gog(vertex_orders, edge_specs))
            if base.label is Label.HIGHER:
                continue
            for _ in range(4):
                ngog = normalize(relabeled(rng, vertex_orders, edge_specs))[0]
                rep = classify(ngog)
                assert (rep.label, rep.params) == (base.label, base.params)
                # the witness walks the tree path, vertex and edge in turn,
                # then lists the other edges
                g, w = ngog.gog.graph, rep.witness
                n = len(g.vertices)
                assert all(v in g.vertices for v in w[0 : 2 * n - 1 : 2])
                for i in range(1, 2 * n - 1, 2):
                    assert w[i] in ngog.tree.tree_edges
                    assert {g.origin[w[i]], g.terminus[w[i]]} == {w[i - 1], w[i + 1]}
                assert Counter(w) == Counter(g.vertices) + Counter(g.orientation_reps())
                swept += 1
        assert swept == 4 * 50

    def test_walk_agrees_with_the_direct_walk(self):
        # the search from the leaf against the edge-by-edge path walk, on
        # every rank <= 2 row at order 12 and on a relabeled copy of each
        rng = random.Random(35)
        rows = 0
        for vertex_orders, edge_specs in _shape_data(12):
            gog = build_gog(vertex_orders, edge_specs)
            if free_rank(gog) > 2:
                continue
            for data in (gog, relabeled(rng, vertex_orders, edge_specs)):
                ngog = normalize(data)[0]
                assert _walk(ngog) == walk_direct(ngog)
            rows += 1
        assert rows == 77


class TestExhaustiveness:
    def test_no_unclassifiable_shape_up_to_rank_two(self):
        labels = defaultdict(set)
        data = [gog for gog in exhaustive_rank2_shapes(12) if free_rank(gog) <= 2]
        for gog in data:
            ngog = normalize(gog)[0]
            labels[index_pattern(ngog.gog)].add(classify(ngog).label)  # no raise
        # every row of the table is hit, and each pattern carries one label
        assert labels == {pattern: {label} for pattern, label in _PATTERNS.items()}
        assert (len(data), len(labels)) == (77, 11)

    def test_a_missing_pattern_raises_naming_it(self, monkeypatch):
        pattern = (2, (2, 3), ((False, 6),))
        monkeypatch.delitem(_PATTERNS, pattern)
        message = f"rank 2: no class has index pattern {pattern}"
        with pytest.raises(UnclassifiableShape, match=re.escape(message)):
            classified(c2_star_c3())

    def test_three_edge_shapes_are_higher_rank(self):
        triangle = build_gog(
            {"a": 2, "b": 2, "c": 2},
            [("e", "a", "b", 1), ("f", "b", "c", 1), ("g", "c", "a", 1)],
        )
        theta_graph = build_gog(
            {"a": 4, "b": 4},
            [("e", "a", "b", 2), ("f", "a", "b", 2), ("g", "a", "b", 4)],
        )
        bouquet3 = free_bouquet(3)
        for gog in (triangle, theta_graph, bouquet3):
            rep = classified(gog)
            assert rep.label is Label.HIGHER
            assert rep.rank >= 3

    def test_segment_index_pairs_realized(self):
        pairs = set()
        for gog in exhaustive_rank2_shapes(12):
            if free_rank(gog) != 2:
                continue
            rep = classify(normalize(gog)[0])
            if rep.label in (Label.R2_III_1, Label.R2_III_2, Label.R2_III_3):
                pairs.add((rep.params["a1"], rep.params["a2"]))
        assert pairs == {(2, 3), (3, 3), (2, 4)}

    def test_classes_i_and_iv_share_a_type_at_every_even_m(self):
        # f depends only on the type (m, c), so it cannot tell I from IV;
        # this is the only pair of labels that shares a type here
        labels = defaultdict(set)
        data = [gog for gog in exhaustive_rank2_shapes(12) if free_rank(gog) <= 2]
        for gog in data:
            m, c = _net_orders(gog)
            labels[m, tuple(sorted(c.items()))].add(classify(normalize(gog)[0]).label)
        assert (len(data), len(labels)) == (77, 65)
        shared = {key: found for key, found in labels.items() if len(found) > 1}
        assert shared == {
            (m, ((m // 2, 1), (m, -1))): {Label.R2_I, Label.R2_IV}
            for m in range(2, 13, 2)
        }

    def test_index_equation_has_exactly_three_solutions(self):
        # a1*a2 - a1 - a2 = gcd(a1, a2) with 2 <= a1 <= a2 <= 100
        solutions = {
            (a1, a2)
            for a1 in range(2, 101)
            for a2 in range(a1, 101)
            if a1 * a2 - a1 - a2 == math.gcd(a1, a2)
        }
        assert solutions == {(2, 3), (3, 3), (2, 4)}

    def test_recurrences_agree_on_every_classified_datum(self):
        for gog in exhaustive_rank2_shapes(8):
            if free_rank(gog) != 2:
                continue
            rep = classify(normalize(gog)[0])
            family = rep.label.family
            params = {"m": rep.params["m"]}
            if family == "iii":
                params["S"] = rep.params["S"]
            assert f_series_rank2(family, params, 12) == f_series(gog, 12)


class TestLargeness:
    def test_dihedral_all_false(self):
        rep = largeness_report(normalize(dihedral())[0], 10)
        assert not rep.chi_negative
        assert not rep.rank_ge_2
        assert not rep.structural_vii
        assert not rep.f_strictly_increasing_prefix

    def test_c2_star_c3_all_true(self):
        rep = largeness_report(normalize(c2_star_c3())[0], 10)
        assert rep.chi_negative
        assert rep.rank_ge_2
        assert rep.structural_vii
        assert rep.f_strictly_increasing_prefix

    def test_free_group_one_vertex_many_edges(self):
        rep = largeness_report(normalize(free_bouquet(2))[0], 10)
        assert rep.structural_vii
        assert rep.f_strictly_increasing_prefix

    def test_finite_group_all_false(self):
        rep = largeness_report(normalize(build_gog({"v": 6}, []))[0], 10)
        assert not rep.chi_negative
        assert not rep.structural_vii
        assert not rep.f_strictly_increasing_prefix

    def test_rank1_loop_single_edge_branch(self):
        rep = largeness_report(normalize(hnn_loop(3, 3))[0], 10)
        assert not rep.structural_vii
        assert not rep.f_strictly_increasing_prefix
        rep2 = largeness_report(normalize(hnn_loop(4, 2))[0], 10)
        assert rep2.structural_vii

    @given(small_gogs())
    @settings(max_examples=60, deadline=None)
    def test_three_criteria_always_agree(self, gog):
        ngog, _ = normalize(gog)
        rep = largeness_report(ngog, 6)
        assert rep.chi_negative == rep.rank_ge_2 == rep.structural_vii

    def test_prefix_monotonicity_tracks_rank(self):
        for gog in seeded_random_data(23, 60):
            ngog, _ = normalize(gog)
            rep = largeness_report(ngog, 8)
            assert rep.f_strictly_increasing_prefix == (free_rank(gog) >= 2)

    def test_single_segment_is_structural_unless_indices_are_2_2(self):
        # decided from the index pair, so agreeing with chi and mu here is
        # the paper's equivalence, not one number computed twice
        seen = 0
        for a in range(2, 25):
            for b in range(a, 25):
                for s in divisors(math.gcd(a, b)):
                    if s == a:
                        continue  # a trivial edge, contracted by normalize
                    ngog, _ = normalize(segment(a, s, b))
                    assert len(ngog.gog.graph.vertices) == 2
                    rep = largeness_report(ngog, 2)
                    assert rep.structural_vii == ((a // s, b // s) != (2, 2))
                    assert rep.chi_negative == rep.rank_ge_2 == rep.structural_vii
                    seen += 1
        assert seen == 407

    def test_references_agree_on_every_order_12_row(self):
        # the three-case rule on the graph and the Fraction chi, against the
        # _PATTERNS rows and the integer index sums that largeness_report reads
        seen = Counter()
        for vertex_orders, edge_specs in _shape_data(12):
            gog = build_gog(vertex_orders, edge_specs)
            ngog, _ = normalize(gog)
            assert ngog.gog == gog
            rep = largeness_report(ngog, 2)
            assert rep.structural_vii == structural_vii_direct(ngog)
            assert rep.chi_negative == (euler_char_direct(gog) < 0)
            seen[rep.structural_vii] += 1
        # 12 bare vertices, 12 full loops and 6 segments of indices (2, 2)
        assert seen == {True: 2242, False: 30}

    def test_structural_on_non_tree_multivertex(self):
        rep = largeness_report(normalize(double_edge(4, 2, 4, 4))[0], 6)
        assert rep.structural_vii and rep.chi_negative


def rank1(gog):
    return classified(gog), gog


class TestDistinguishRank1:
    def test_different_classes(self):
        a = rank1(hnn_loop(4, 4))
        b = rank1(dihedral())
        assert distinguish_rank1(a, b)
        # witnesses: all-zero zeta vs zeta_m = -1
        tv_a, tv_b = type_vector(a[1]), type_vector(b[1])
        assert all(z == 0 for z in tv_a.zeta.values())
        assert tv_b.zeta[tv_b.m] == -1

    def test_same_class(self):
        assert not distinguish_rank1(rank1(hnn_loop(4, 4)), rank1(hnn_loop(6, 6)))

    def test_wrong_rank(self):
        with pytest.raises(WrongRank):
            distinguish_rank1(rank1(dihedral()), rank1(c2_star_c3()))

    def test_inconsistent_report(self):
        (loop, loop_gog), (amalgam, amalgam_gog) = rank1(hnn_loop(4, 4)), rank1(dihedral())

        def relabelled(rep, label):
            return ClassificationReport(rep.rank, label, rep.params, rep.witness)

        # labels swapped against their type vectors; raised even under -O
        with pytest.raises(AssertionError):
            distinguish_rank1(
                (relabelled(loop, Label.R1_II), loop_gog),
                (amalgam, amalgam_gog),
            )
        with pytest.raises(AssertionError):
            distinguish_rank1(
                (loop, loop_gog),
                (relabelled(amalgam, Label.R1_I), amalgam_gog),
            )


class TestEulerCrossCheck:
    def test_chi_negative_iff_rank_at_least_two_on_shapes(self):
        for gog in exhaustive_rank2_shapes(8):
            assert (euler_char_direct(gog) < 0) == (free_rank(gog) >= 2)

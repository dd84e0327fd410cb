import hashlib
import itertools
import math
import random

import pytest

from helpers import (
    dihedral,
    orientation_uniqueness_by_product,
    orientation_winners_by_product,
    triple_c2,
)
from vfree import oracle
from vfree.errors import DegreeTooLarge, NonExactDivision, NotConnected, TooLarge
from vfree.gog import build_gog, check_valid, serialize_gog
from vfree.graph import orient_from_root, spanning_tree
from vfree.invariants import free_rank
from vfree.normalize import normalize
from vfree.oracle import (
    exhaustive_rank2_shapes,
    free_group_subgroup_counts,
    orientation_uniqueness,
    random_gog,
    random_tree_graph,
)


class TestFreeGroupCounts:
    def test_rank_two_known_values(self):
        assert free_group_subgroup_counts(2, 5) == [1, 3, 13, 71, 461]

    def test_rank_three_known_values(self):
        assert free_group_subgroup_counts(3, 4) == [1, 7, 97, 2143]

    def test_rank_one_infinite_cyclic(self):
        # exactly one subgroup of each finite index
        assert free_group_subgroup_counts(1, 6) == [1] * 6

    def test_index_one(self):
        assert free_group_subgroup_counts(4, 1) == [1]

    def test_index_two_closed_form(self):
        # index-2 subgroups = subgroups of the elementary 2-group quotient
        for r in (1, 2, 3):
            assert free_group_subgroup_counts(r, 2)[1] == 2**r - 1

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLarge):
            free_group_subgroup_counts(2, 7)
        with pytest.raises(DegreeTooLarge):
            free_group_subgroup_counts(0, 3)

    def test_inexact_division_is_a_typed_error(self, monkeypatch):
        # only the transposition (0 1) acts "transitively": its class of 3
        # gives t_3 = 3, which 2! does not divide
        monkeypatch.setattr(
            oracle, "_acts_transitively", lambda perms, n: perms[0] == (1, 0, 2)
        )
        with pytest.raises(NonExactDivision) as exc:
            free_group_subgroup_counts(1, 3)
        assert str(exc.value) == "NonExactDivision: t_3 = 3 not divisible by (3-1)!"


class TestOrientationUniqueness:
    def test_short_path(self):
        from vfree.graph import build_graph

        path = build_graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        tree = spanning_tree(path, "a")
        assert orientation_uniqueness(tree, "a")
        assert orientation_uniqueness(tree, "b")

    def test_single_vertex(self):
        from vfree.graph import build_graph

        g = build_graph(["v"], [])
        tree = spanning_tree(g, "v")
        assert orientation_uniqueness(tree, "v")

    def test_star_from_center(self):
        from vfree.graph import build_graph

        edges = [(f"e{i}", "c", f"l{i}") for i in range(1, 4)]
        star = build_graph(["c", "l1", "l2", "l3"], edges)
        tree = spanning_tree(star, "c")
        assert orientation_uniqueness(tree, "c")
        assert orientation_uniqueness(tree, "l2")

    def test_spanning_tree_of_a_cycle(self):
        # only the tree edges are oriented; the cycle-closing edge e3 is not
        from vfree.graph import build_graph

        edges = [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")]
        tree = spanning_tree(build_graph(["a", "b", "c"], edges), "a")
        assert all(orientation_uniqueness(tree, v) for v in "abc")

    def test_random_trees(self):
        rng = random.Random(42)
        for _ in range(50):
            g = random_tree_graph(rng)
            tree = spanning_tree(g, g.vertices[0])
            v0 = rng.choice(g.vertices)
            assert orientation_uniqueness(tree, v0)

    def test_pruned_search_matches_the_product_search(self):
        # the product search finds exactly the root-directed orientation for
        # every v0, and the pruned search says so too
        rng = random.Random(2027)
        for _ in range(500):
            g = random_tree_graph(rng)
            tree = spanning_tree(g, g.vertices[0])
            for v0 in g.vertices:
                winners = orientation_winners_by_product(tree, v0)
                assert winners == [orient_from_root(tree, v0)]
                assert orientation_uniqueness(tree, v0)

    def test_rigged_root_orientation(self, monkeypatch):
        # a root-directed orientation with one edge reversed: both searches
        # reject it, except on a one-vertex tree, which has no edge to reverse
        def reversed_one(tree, v0):
            picks = sorted(orient_from_root(tree, v0))
            return frozenset([tree.graph.bar(e) for e in picks[:1]] + picks[1:])

        monkeypatch.setattr(oracle, "orient_from_root", reversed_one)
        rng = random.Random(2028)
        for _ in range(100):
            g = random_tree_graph(rng)
            tree = spanning_tree(g, g.vertices[0])
            v0 = rng.choice(g.vertices)
            verdict = orientation_uniqueness(tree, v0)
            assert verdict == orientation_uniqueness_by_product(tree, v0)
            assert verdict == (len(g.vertices) == 1)

    def test_size_cap(self):
        from vfree.graph import build_graph

        edges = [(f"e{i:02d}", f"v{i:02d}", f"v{i + 1:02d}") for i in range(1, 22)]
        big = build_graph([f"v{i:02d}" for i in range(1, 23)], edges)
        big_tree = spanning_tree(big, "v01")
        with pytest.raises(TooLarge):
            orientation_uniqueness(big_tree, "v01")


def _relabeling_key(gog):
    """The least (vertex orders, sorted (unordered ends, order) edges) over
    all relabelings of the vertices: equal exactly for isomorphic data."""
    g = gog.graph
    edges = [(g.origin[e], g.terminus[e], gog.order(e)) for e in g.orientation_reps()]
    keys = []
    for perm in itertools.permutations(g.vertices):
        at = {v: i for i, v in enumerate(perm)}
        orders = tuple(gog.vertex_order[v] for v in perm)
        ends = [(*sorted((at[u], at[v])), s) for u, v, s in edges]
        keys.append((orders, tuple(sorted(ends))))
    return min(keys)


def _labelled_data(bound):
    """Every labelled connected datum on v1..vk (k <= 3) with <= 2 geometric
    edges and orders <= bound; each edge in one orientation, as reorienting
    changes neither its key nor whether normalization moves it."""
    for k in (1, 2, 3):
        names = [f"v{i}" for i in range(1, k + 1)]
        pairs = list(itertools.combinations_with_replacement(names, 2))
        for n_edges in (0, 1, 2):
            for orders, ends in itertools.product(
                itertools.product(range(1, bound + 1), repeat=k),
                itertools.product(pairs, repeat=n_edges),
            ):
                vorders = dict(zip(names, orders))
                gcds = [math.gcd(vorders[u], vorders[v]) for u, v in ends]
                divisors = [[d for d in range(1, n + 1) if n % d == 0] for n in gcds]
                for eorders in itertools.product(*divisors):
                    edges = zip(ends, eorders)
                    specs = [(f"e{i}", *uv, s) for i, (uv, s) in enumerate(edges, 1)]
                    try:
                        yield build_gog(vorders, specs)
                    except NotConnected:
                        pass


class TestShapeEnumeration:
    def test_includes_named_small_data(self):
        from helpers import invariant_signature

        signatures = {invariant_signature(g) for g in exhaustive_rank2_shapes(2)}
        assert invariant_signature(dihedral()) in signatures
        assert invariant_signature(triple_c2()) in signatures

    def test_all_valid_and_normalized_fixed_points(self):
        for gog in exhaustive_rank2_shapes(6):
            check_valid(gog)
            ngog, steps = normalize(gog)
            assert steps == []
            assert ngog.gog == gog

    def test_deterministic_and_duplicate_free(self):
        a = [serialize_gog(g) for g in exhaustive_rank2_shapes(6)]
        b = [serialize_gog(g) for g in exhaustive_rank2_shapes(6)]
        assert a == b
        assert len(a) == len(set(a))
        # the corpus is pinned: its size at every bound, and its bytes at 8
        counts = [sum(1 for _ in exhaustive_rank2_shapes(n)) for n in range(1, 13)]
        assert counts == [3, 15, 37, 91, 144, 292, 392, 640, 863, 1239, 1479, 2272]
        text = "|".join(serialize_gog(g) for g in exhaustive_rank2_shapes(8))
        assert hashlib.sha256(text.encode()).hexdigest().startswith("c9f72c917c684ee6")

    def test_complete_and_duplicate_free_up_to_relabeling(self):
        # each normalized labelled datum has the key of exactly one corpus datum
        corpus = [_relabeling_key(g) for g in exhaustive_rank2_shapes(4)]
        assert len(set(corpus)) == len(corpus) == 91
        fixed = {_relabeling_key(g) for g in _labelled_data(4) if not normalize(g)[1]}
        assert fixed == set(corpus)

    def test_covers_all_small_ranks(self):
        ranks = {free_rank(g) for g in exhaustive_rank2_shapes(8)}
        assert {0, 1, 2}.issubset(ranks)
        assert max(ranks) >= 3

    def test_size_bounds(self):
        for gog in exhaustive_rank2_shapes(5):
            assert len(gog.graph.vertices) <= 3
            assert len(gog.graph.orientation_reps()) <= 2
            assert all(n <= 5 for n in gog.vertex_order.values())

    def test_order_cap(self):
        with pytest.raises(TooLarge):
            exhaustive_rank2_shapes(13)


class TestRandomGog:
    def test_valid_and_within_bounds(self):
        rng = random.Random(99)
        for _ in range(100):
            gog = random_gog(rng)
            check_valid(gog)
            assert len(gog.graph.vertices) <= 6
            assert len(gog.graph.orientation_reps()) <= 6
            assert all(n <= 24 for n in gog.vertex_order.values())

    def test_lcm_stays_desk_scale(self):
        rng = random.Random(7)
        for _ in range(100):
            gog = random_gog(rng)
            assert math.lcm(*gog.vertex_order.values()) <= 24

    def test_reproducible(self):
        a = [serialize_gog(random_gog(random.Random(3))) for _ in range(5)]
        b = [serialize_gog(random_gog(random.Random(3))) for _ in range(5)]
        assert a == b

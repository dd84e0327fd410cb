"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an equality or a proven inequality (tolerance zero). The
500-datum random corpus is generated once per session from a fixed seed.
"""

import math
import random
from fractions import Fraction

import pytest

from helpers import (
    c2_star_c3,
    dihedral,
    free_bouquet,
    hnn_loop,
    invariant_signature,
    segment,
    terminal_data_all_orders,
    trivial_tree_half_edges,
)
from vfree.classify import Label, classify, largeness_report
from vfree.counting import (
    f_series,
    f_series_rank2,
    g_series,
    is_triple_c2_shape,
    ode_check,
    parity_profile,
    theta_coeffs,
)
from vfree.gog import build_gog
from vfree.graph import spanning_tree
from vfree.invariants import (
    check_edge_bound,
    euler_char,
    euler_from_type,
    free_rank,
    m_gamma,
    type_vector,
)
from vfree.normalize import normalize
from vfree.oracle import (
    exhaustive_rank2_shapes,
    free_group_subgroup_counts,
    orientation_uniqueness,
    random_gog,
    random_tree_graph,
)

RANDOM_SEED = 20240
RANDOM_COUNT = 500


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="session")
def random_corpus():
    rng = random.Random(RANDOM_SEED)
    return [
        random_gog(rng, max_vertices=6, max_geometric_edges=6, max_order=24)
        for _ in range(RANDOM_COUNT)
    ]


@pytest.fixture(scope="session")
def normalized_corpus(random_corpus):
    return [normalize(gog)[0] for gog in random_corpus]


@pytest.fixture(scope="session")
def shapes8():
    return exhaustive_rank2_shapes(8)


@pytest.fixture(scope="session")
def shapes12():
    return exhaustive_rank2_shapes(12)


def test_criterion_01_free_group_oracle_equivalence():
    expected2 = free_group_subgroup_counts(2, 5)
    assert expected2 == [1, 3, 13, 71, 461]
    assert f_series(free_bouquet(2), 5) == expected2
    expected3 = free_group_subgroup_counts(3, 4)
    assert f_series(free_bouquet(3), 4) == expected3
    report(1, "rank-2 and rank-3 free-group counts match the enumeration oracle")


def test_criterion_02_rank1_constant_counts():
    for n in range(1, 21):
        assert f_series(hnn_loop(n, n), 50) == [n] * 50
    g = g_series(dihedral(), 50)
    assert g == [Fraction(math.comb(2 * k, k), 4**k) for k in range(51)]
    assert f_series(dihedral(), 50) == [1] * 50
    report(2, "20 full-order loop data give f = n; dihedral gives central binomials and f = 1")


def test_criterion_03_parity_theorem():
    odd_positions = {1, 3, 7, 15, 31, 63}
    for gog in (c2_star_c3(), segment(2, 1, 4)):
        profile = parity_profile(f_series(gog, 64))
        assert {k for k, odd in enumerate(profile, 1) if odd} == odd_positions
    for gog in (
        build_gog({"v": 2}, [("p", "v", "v", 2), ("q", "v", "v", 2)]),
        hnn_loop(2, 1),
    ):
        profile = parity_profile(f_series(gog, 64))
        assert len(set(profile)) == 1
    report(3, "odd counts exactly at 2^k - 1 for the alternating classes; constant otherwise")


def test_criterion_04_growth_theorem(shapes8):
    rank2 = [g for g in shapes8 if free_rank(g) == 2]
    assert rank2
    exceptional = 0
    for gog in rank2:
        m = m_gamma(gog)
        f = f_series(gog, 26)
        deltas_ok = [
            f[lam] - f[lam - 1] >= m * math.factorial(lam + 1)
            for lam in range(1, 26)
        ]
        if is_triple_c2_shape(normalize(gog)[0]):
            exceptional += 1
            assert not deltas_ok[0]  # fails at lambda = 1
            assert all(deltas_ok[1:])  # holds for 2 <= lambda <= 25
        else:
            assert all(deltas_ok)
    assert exceptional == 1
    report(4, f"growth bound on {len(rank2)} rank-2 data, with the triple-C2 exception")


def test_criterion_05_normalization_invariance(random_corpus, normalized_corpus):
    for gog, ngog in zip(random_corpus, normalized_corpus):
        assert invariant_signature(gog, depth=15) == invariant_signature(
            ngog.gog, depth=15
        )
    checked = 0
    for gog in random_corpus:
        tree = spanning_tree(gog.graph, gog.graph.vertices[0])
        halves = trivial_tree_half_edges(gog, tree)
        geometric_trivial = {min(e, gog.graph.bar[e]) for e in halves}
        if not 1 <= len(geometric_trivial) <= 3:
            continue
        checked += 1
        want = invariant_signature(gog, depth=15)
        for terminal in terminal_data_all_orders(gog, tree):
            assert invariant_signature(terminal, depth=15) == want
    assert checked >= 10
    report(
        5,
        f"invariants and f_1..f_15 preserved on {RANDOM_COUNT} data; "
        f"all contraction orders agree on {checked} data with <= 3 trivial edges",
    )


def test_criterion_06_edge_bound(normalized_corpus):
    for ngog in normalized_corpus:
        assert check_edge_bound(ngog)
        assert len(ngog.gog.graph.half_edges) <= 2 * free_rank(ngog.gog)
    report(6, f"half-edge count <= 2*mu on all {RANDOM_COUNT} normalized data")


def test_criterion_07_ode_consistency(shapes8):
    data = list(shapes8) + [dihedral(), free_bouquet(2)]
    for gog in data:
        th = theta_coeffs(gog)
        assert ode_check(g_series(gog, 30), th, m_gamma(gog))
    assert theta_coeffs(dihedral()).theta == (1, 2)
    report(7, f"ODE recurrence holds to 30 terms on {len(data)} data; dihedral theta = (1, 2)")


def test_criterion_08_type_euler_identity(random_corpus):
    for gog in random_corpus:
        assert euler_from_type(type_vector(gog)) == euler_char(gog)
    report(8, f"type-based and direct Euler characteristics agree on {RANDOM_COUNT} data")


def test_criterion_09_classification(shapes12):
    third_class_pairs = set()
    rank2_count = 0
    for gog in shapes12:
        if free_rank(gog) > 2:
            continue
        rep = classify(normalize(gog)[0])  # must not raise
        if rep.label in (Label.R2_III_1, Label.R2_III_2, Label.R2_III_3):
            third_class_pairs.add((rep.params["a1"], rep.params["a2"]))
        if rep.rank == 2:
            rank2_count += 1
            family = rep.label.family
            params = {"m": rep.params["m"]}
            if family == "iii":
                params["S"] = rep.params["S"]
            assert f_series_rank2(family, params, 20) == f_series(gog, 20)
    assert third_class_pairs == {(2, 3), (3, 3), (2, 4)}
    report(
        9,
        f"no unclassifiable shapes; class-III index pairs are exactly "
        f"(2,3),(3,3),(2,4); recurrences agree on {rank2_count} rank-2 data",
    )


def test_criterion_10_largeness_equivalence(random_corpus, normalized_corpus):
    for gog, ngog in zip(random_corpus, normalized_corpus):
        rep = largeness_report(ngog, 15)
        assert rep.chi_negative == rep.rank_ge_2 == rep.structural_vii
        assert rep.f_strictly_increasing_prefix == (free_rank(gog) >= 2)
    report(10, f"largeness criteria equivalent on all {RANDOM_COUNT} data")


def test_criterion_11_tree_orientation_uniqueness():
    rng = random.Random(RANDOM_SEED)
    for _ in range(200):
        graph = random_tree_graph(rng, 10)
        tree = spanning_tree(graph, graph.vertices[0])
        v0 = rng.choice(graph.vertices)
        assert orientation_uniqueness(tree, v0)
    report(11, "orientation uniqueness on 200 random trees")

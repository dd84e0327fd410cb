"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an equality or a proven inequality (tolerance zero). The
500-datum random corpus is generated once per session from a fixed seed.
"""

import ast
import inspect
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    dihedral,
    euler_char_direct,
    euler_from_type,
    hnn_loop,
    invariant_signature,
    structural_vii_direct,
    terminal_data_all_orders,
    trivial_tree_half_edges,
)
from vfree import properties
from vfree.classify import Label, classify, largeness_report
from vfree.counting import f_series, f_series_rank2, g_series
from vfree.graph import spanning_tree
from vfree.invariants import (
    _chi,
    _net_orders,
    free_rank,
    type_vector,
)
from vfree.normalize import normalize
from vfree.oracle import exhaustive_rank2_shapes, free_group_subgroup_counts, random_gog

RANDOM_SEED = 20240
RANDOM_COUNT = 500


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def holds(suite: str, seed: int, bound: int) -> list[str]:
    """Run a registry suite, assert every property holds, return their names."""
    fn, _ = properties.SUITES[suite]
    results = list(fn(seed, bound))
    assert [(prop, detail) for prop, ok, detail in results if not ok] == []
    return [prop for prop, _, _ in results]


def test_registry_never_calls_the_predictors():
    # criteria 3 and 4 re-derive parity and growth; calling the library's
    # own predictors would check a helper against itself
    names = {
        getattr(node, field)
        for node in ast.walk(ast.parse(inspect.getsource(properties)))
        for field in ("id", "attr", "name", "value")
        if isinstance(getattr(node, field, None), str)
    }
    assert not names & {"growth_check", "predicted_parity"}


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
def shapes12():
    return list(exhaustive_rank2_shapes(12))


ORACLE_PROPERTIES = [
    "oracle-free-rank-2 (index <= 5)",
    "oracle-free-rank-3 (index <= 4)",
    f"oracle-orientation-uniqueness (200 trees, seed {RANDOM_SEED})",
]


def test_criterion_01_free_group_oracle_equivalence():
    assert free_group_subgroup_counts(2, 5) == [1, 3, 13, 71, 461]
    assert holds("oracle", RANDOM_SEED, 5) == ORACLE_PROPERTIES
    report(1, "rank-2 and rank-3 free-group counts match the enumeration oracle")


def test_criterion_02_rank1_constant_counts():
    for n in range(1, 21):
        assert f_series(hnn_loop(n, n), 50) == [n] * 50
    g = g_series(dihedral(), 50)
    assert g == [Fraction(math.comb(2 * k, k), 4**k) for k in range(51)]
    assert f_series(dihedral(), 50) == [1] * 50
    report(2, "20 full-order loop data give f = n; dihedral gives central binomials and f = 1")


def test_criterion_03_parity_theorem():
    assert holds("parity", 0, 64) == [
        "parity-iii-{2,3}-odd-S (64 terms)",
        "parity-iii-{2,4}-odd-S (64 terms)",
        "parity-ii-constant (64 terms)",
        "parity-i-constant (64 terms)",
    ]
    report(3, "odd counts exactly at 2^k - 1 for the alternating classes; all even otherwise")


def test_criterion_04_growth_theorem():
    assert holds("growth", 0, 25) == ["growth-bound (30 rank-2 data, lambda <= 25)"]
    report(4, "growth bound on 30 rank-2 data, with the triple-C2 exception")


def test_criterion_05_normalization_invariance(random_corpus, normalized_corpus):
    for gog, ngog in zip(random_corpus, normalized_corpus):
        assert invariant_signature(gog, depth=15) == invariant_signature(
            ngog.gog, depth=15
        )
    checked = 0
    for gog in random_corpus:
        tree = spanning_tree(gog.graph, gog.graph.vertices[0])
        halves = trivial_tree_half_edges(gog, tree)
        geometric_trivial = {min(e, gog.graph.bar(e)) for e in halves}
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
        assert len(ngog.gog.graph.half_edges) <= 2 * free_rank(ngog.gog)
    report(6, f"half-edge count <= 2*mu on all {RANDOM_COUNT} normalized data")


def test_criterion_07_ode_consistency():
    assert holds("ode", 0, 8) == [
        "ode-recurrence (642 data, 30 terms)",
        "ode-dihedral-coefficients (1, 2)",
    ]
    report(7, "ODE recurrence holds to 30 terms on 642 data; dihedral theta = (1, 2)")


def test_criterion_08_type_euler_identity(random_corpus):
    for gog in random_corpus:
        assert euler_from_type(type_vector(gog)) == euler_char_direct(gog)
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
        # against the three-case rule on the graph and the Fraction chi
        assert rep.structural_vii == structural_vii_direct(ngog)
        assert rep.chi_negative == (_chi(_net_orders(gog)[1]) < 0)
        assert rep.f_strictly_increasing_prefix == (free_rank(gog) >= 2)
    report(10, f"largeness criteria equivalent on all {RANDOM_COUNT} data")


def test_criterion_11_tree_orientation_uniqueness():
    assert holds("oracle", RANDOM_SEED, 5) == ORACLE_PROPERTIES
    report(11, "orientation uniqueness on 200 random trees")

"""The ode and growth suites may check each type (m, c) once.

Every quantity those suites read (theta, g, f) is a function of the type,
so data sharing a type give equal results; and a check that fails on one
type must count every datum of that type, so that the reported failure
count stays the number of data.
"""

import weakref
from collections import defaultdict

from helpers import dihedral, free_bouquet
from vfree import counting, oracle, properties
from vfree.invariants import _net_orders, free_rank, m_gamma
from vfree.oracle import exhaustive_rank2_shapes


def type_key(gog):
    m, c = _net_orders(gog)
    return m, tuple(sorted(c.items()))


def groups(data):
    by_key = defaultdict(list)
    for gog in data:
        by_key[type_key(gog)].append(gog)
    return list(by_key.values())


def ode_corpus():
    return list(exhaustive_rank2_shapes(8)) + [dihedral(), free_bouquet(2)]


def growth_corpus():
    return [gog for gog in exhaustive_rank2_shapes(8) if free_rank(gog) == 2]


def only(results, prefix):
    [(ok, detail)] = [(ok, d) for prop, ok, d in results if prop.startswith(prefix)]
    return ok, detail


class TestSameTypeSameSeries:
    def test_theta_and_g_on_the_ode_corpus(self):
        shared = [group for group in groups(ode_corpus()) if len(group) > 1]
        assert shared
        for first, *rest in shared:
            theta, g = counting.theta_coeffs(first, 30), counting.g_series(first, 30)
            for gog in rest:
                assert counting.theta_coeffs(gog, 30) == theta
                assert counting.g_series(gog, 30) == g

    def test_f_on_the_growth_corpus(self):
        data = growth_corpus()
        assert len(data) == 30
        shared = [group for group in groups(data) if len(group) > 1]
        assert shared
        for first, *rest in shared:
            f = counting.f_series(first, 26)
            assert all(counting.f_series(gog, 26) == f for gog in rest)


class TestFailuresCountEveryDatum:
    def test_ode_counts_each_datum_of_a_failing_type(self, monkeypatch):
        check = counting.ode_check
        monkeypatch.setattr(
            counting,
            "ode_check",
            lambda gog, th, N: m_gamma(gog) != 6 and check(gog, th, N),
        )
        k = sum(m_gamma(gog) == 6 for gog in ode_corpus())
        assert k > len({type_key(gog) for gog in ode_corpus() if m_gamma(gog) == 6})
        ok, detail = only(properties.suite_ode(0, 8), "ode-recurrence")
        assert (ok, detail) == (False, f"{k} failures")

    def test_growth_counts_each_datum_of_a_failing_type(self, monkeypatch):
        series = counting.f_series
        monkeypatch.setattr(
            counting,
            "f_series",
            lambda gog, N: [0] * (N + 1) if m_gamma(gog) == 6 else series(gog, N),
        )
        k = sum(m_gamma(gog) == 6 for gog in growth_corpus())
        assert k > len({type_key(gog) for gog in growth_corpus() if m_gamma(gog) == 6})
        ok, detail = only(properties.suite_growth(0, 25), "growth-bound")
        assert (ok, detail) == (
            False, f"{k} failures; 1 triple-C2 exceptional cases, want 1"
        )


class TestStreaming:
    def test_no_corpus_datum_outlives_its_check(self, monkeypatch):
        # each build counts the earlier corpus data still alive; a suite
        # that held its corpus would count up to 639 of them
        refs = []
        alive = []
        build = oracle.build_gog

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in refs))
            gog = build(*args)
            refs.append(weakref.ref(gog))
            return gog

        monkeypatch.setattr(oracle, "build_gog", tracked)
        for suite, bound in ((properties.suite_ode, 8), (properties.suite_growth, 25)):
            refs.clear()
            alive.clear()
            assert all(ok for _, ok, _ in suite(0, bound))
            assert len(refs) == 640
            assert max(alive) <= 2

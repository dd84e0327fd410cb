"""The ode and growth suites may check each type (m, c) once.

Every quantity those suites read (theta, g, f) is a function of the type,
so data sharing a type give equal results; and a check that fails on one
type must count every datum of that type, so that the reported failure
count stays the number of data.
"""

import random
import weakref
from collections import Counter, defaultdict

from helpers import dihedral, free_bouquet
from vfree import build_gog, counting, oracle, properties
from vfree.cli import main
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


def flat_key(gog):
    m, c = _net_orders(gog)
    return (m, *(x for item in sorted(c.items()) for x in item))


class TestRowKey:
    """The suites key a row by its orders, before any datum is built; the key
    must be that of the datum the row builds."""

    def test_every_row_of_the_order8_corpus(self):
        rows = list(oracle._shape_data(8))
        assert len(rows) == 640
        for row in rows:
            assert properties._row_key(*row) == flat_key(build_gog(*row))

    def test_random_data(self):
        rng = random.Random(27)
        for _ in range(200):
            gog = oracle.random_gog(rng)
            g = gog.graph
            specs = [
                (e, g.origin[e], g.terminus[e], gog.edge_order[e])
                for e in g.orientation_reps()
            ]
            key = properties._row_key(gog.vertex_order, specs)
            assert key == flat_key(gog) == flat_key(build_gog(gog.vertex_order, specs))
            # c again, counted from the half-edges, two per geometric edge
            net = Counter(gog.order(e) for e in g.half_edges)
            net = Counter({d: k // 2 for d, k in net.items()})
            net.subtract(gog.vertex_order.values())
            assert _net_orders(gog)[1] == {d: k for d, k in net.items() if k}


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


class TestConvolutionSuite:
    def test_one_f_series_call_per_datum(self, monkeypatch):
        # f comes from the public f_series, so a trace times it under that span
        calls = []
        series = counting.f_series

        def counted(gog, N):
            calls.append(N)
            return series(gog, N)

        monkeypatch.setattr(counting, "f_series", counted)
        [(_, ok, detail)] = properties.suite_convolution(0, 10)
        assert (ok, detail) == (True, "0 failures")
        assert calls == [12] * 10


class TestFailuresCountEveryDatum:
    def test_ode_counts_each_datum_of_a_failing_type(self, monkeypatch):
        # the suite checks each type on the kernel, so the kernel is rigged
        check = counting._ode
        monkeypatch.setattr(
            counting, "_ode", lambda m, c, th, N: m != 6 and check(m, c, th, N)
        )
        k = sum(m_gamma(gog) == 6 for gog in ode_corpus())
        assert k > len({type_key(gog) for gog in ode_corpus() if m_gamma(gog) == 6})
        ok, detail = only(properties.suite_ode(0, 8), "ode-recurrence")
        assert (ok, detail) == (False, f"{k} failures")

    def test_growth_counts_each_datum_of_a_failing_type(self, monkeypatch):
        series = counting._f
        monkeypatch.setattr(
            counting,
            "_f",
            lambda m, c, N: [0] * (N + 1) if m == 6 else series(m, c, N),
        )
        k = sum(m_gamma(gog) == 6 for gog in growth_corpus())
        assert k > len({type_key(gog) for gog in growth_corpus() if m_gamma(gog) == 6})
        ok, detail = only(properties.suite_growth(0, 25), "growth-bound")
        assert (ok, detail) == (
            False, f"{k} failures; 1 triple-C2 exceptional cases, want 1"
        )


class TestStreaming:
    def test_no_corpus_datum_outlives_its_check(self, monkeypatch):
        # the suites check each type on the kernels of the type and build
        # no corpus datum; each build counts the earlier data still alive
        refs = []
        alive = []
        build = properties.build_gog

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in refs))
            gog = build(*args)
            refs.append(weakref.ref(gog))
            return gog

        monkeypatch.setattr(properties, "build_gog", tracked)
        # ode builds only the dihedral whose coefficients it checks; growth
        # builds nothing
        for suite, bound, builds in (
            (properties.suite_ode, 8, 1),
            (properties.suite_growth, 25, 0),
        ):
            refs.clear()
            alive.clear()
            assert all(ok for _, ok, _ in suite(0, bound))
            assert len(refs) == builds
            assert alive == [0] * builds


class TestOneWalkAscendingM:
    """verify all walks the shape corpus once, for ode and growth both, and
    checks the types in ascending m, so theta's per-m memo misses once per
    m."""

    def test_memo_misses_once_per_m(self, monkeypatch, capsys):
        walks = []
        shape_data = oracle._shape_data

        def counted(order_bound):
            walks.append(order_bound)
            return shape_data(order_bound)

        monkeypatch.setattr(oracle, "_shape_data", counted)
        properties._corpus.cache_clear()
        counting._classes.cache_clear()
        assert main(["verify", "all", "--seed", "5"]) == 0
        assert capsys.readouterr().out.count("PASS ") == 11
        assert walks == [8]
        ms = {m_gamma(gog) for gog in ode_corpus()}
        assert len(ms) == 30
        # one miss per m of the walk, and one more for the dihedral line's
        # theta_coeffs (m = 2), which comes after the walk's last m
        info = counting._classes.cache_info()
        assert info.misses == len(ms) + 1
        assert info.currsize <= 1

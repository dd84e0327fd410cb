import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import (
    c2_star_c3,
    dihedral,
    double_edge,
    f_series_fractions,
    free_bouquet,
    g_closed_form,
    hnn_loop,
    ode_holds_on_g,
    predicted_parity,
    same_values,
    seeded_random_data,
    segment,
    segment_with_loop,
    small_gogs,
    triple_c2,
    type_vector_direct,
)
from vfree import cli, counting, invariants
from vfree.counting import (
    f_series,
    f_series_rank2,
    g_series,
    growth_check,
    ode_check,
    theta_coeffs,
)
from vfree.errors import (
    MissingParam,
    NonIntegralCount,
    NonIntegralTheta,
    NonPositiveCount,
    UnknownClass,
    WrongRank,
)
from vfree.gog import build_gog, parse_gog
from vfree.invariants import m_gamma
from vfree.normalize import normalize
from vfree.oracle import exhaustive_rank2_shapes

# frozen by the permutation-enumeration oracle (see test_oracle.py)
FREE_RANK2_COUNTS = [1, 3, 13, 71, 461, 3447]
FREE_RANK3_COUNTS = [1, 7, 97, 2143]


class TestGSeries:
    def test_dihedral_central_binomials(self):
        g = g_series(dihedral(), 50)
        for lam, val in enumerate(g):
            assert val == Fraction(math.comb(2 * lam, lam), 4**lam)

    def test_free_rank_two_factorials(self):
        assert g_series(free_bouquet(2), 8) == [
            Fraction(math.factorial(lam)) for lam in range(9)
        ]

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_full_order_loop_all_ones(self, n):
        assert g_series(hnn_loop(n, n), 20) == [Fraction(1)] * 21

    @given(small_gogs())
    @settings(max_examples=50, deadline=None)
    def test_g0_is_one(self, gog):
        assert g_series(gog, 0) == [Fraction(1)]

    def test_matches_closed_form_on_order8_shapes(self):
        shapes = list(exhaustive_rank2_shapes(8))
        assert len(shapes) == 640
        for gog in shapes:
            assert same_values(g_series(gog, 30), g_closed_form(gog, 30))

    @given(small_gogs())
    @settings(max_examples=50, deadline=None)
    def test_matches_closed_form(self, gog):
        assert same_values(g_series(gog, 20), g_closed_form(gog, 20))


class TestFSeries:
    def test_dihedral_constant_one(self):
        assert f_series(dihedral(), 50) == [1] * 50

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
    def test_full_order_loop_constant_n(self, n):
        assert f_series(hnn_loop(n, n), 30) == [n] * 30

    def test_free_rank_two_matches_oracle_values(self):
        assert f_series(free_bouquet(2), 6) == FREE_RANK2_COUNTS

    def test_free_rank_three_matches_oracle_values(self):
        assert f_series(free_bouquet(3), 4) == FREE_RANK3_COUNTS

    def test_finite_group_counts(self):
        # a rank-0 datum presents a finite group: one subgroup of index m,
        # none beyond
        assert f_series(build_gog({"v": 5}, []), 6) == [1, 0, 0, 0, 0, 0]

    def test_rank_one_constant_values(self):
        # loop class: constant m; index-2 amalgam class: constant m/2
        assert f_series(hnn_loop(6, 6), 12) == [6] * 12
        assert f_series(segment(6, 3, 6), 12) == [3] * 12

    @pytest.mark.parametrize(
        "g2,error,message",
        [
            # f_2 = 2 * g_2 - g_1 * f_1 on F2, where m = 1 and g = 1, 1, 2, ...
            (Fraction(9, 4), NonIntegralCount,
             "NonIntegralCount: f_2 = 7/2 is not an integer"),
            (Fraction(0), NonPositiveCount,
             "NonPositiveCount: f_2 = -1 with free rank 2"),
        ],
    )
    def test_corrupted_g_is_a_typed_error(self, monkeypatch, g2, error, message):
        real = counting.g_series

        def perturbed(gog, N):
            g = real(gog, N)
            g[2] = g2
            return g

        monkeypatch.setattr(counting, "g_series", perturbed)
        with pytest.raises(error) as exc:
            f_series(free_bouquet(2), 4)
        assert str(exc.value) == message

    @given(small_gogs())
    @settings(max_examples=50, deadline=None)
    def test_convolution_identity(self, gog):
        N = 8
        m = m_gamma(gog)
        g = g_series(gog, N)
        f = f_series(gog, N)
        for lam in range(1, N + 1):
            conv = sum(g[u] * f[lam - u - 1] for u in range(lam))
            assert conv == m * lam * g[lam]

    @given(small_gogs())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_normalization(self, gog):
        ngog, _ = normalize(gog)
        assert f_series(gog, 10) == f_series(ngog.gog, 10)
        assert g_series(gog, 10) == g_series(ngog.gog, 10)


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
# the benchmark's rank-2 count inputs with their recurrence class
RANK2_INPUTS = {
    "f2.gog": ("ii", {"m": 1}),
    "c2c3.gog": ("iii", {"m": 6, "S": 1}),
    "c2c4.gog": ("iii", {"m": 4, "S": 1}),
    "c2c2c2.gog": ("v", {"m": 2}),
    "am64.gog": ("iii", {"m": 12, "S": 2}),
}
BIG = build_gog(
    {"a": 12, "b": 8, "c": 6},
    [("x", "a", "b", 4), ("y", "b", "c", 2), ("z", "a", "c", 1)],
)


class TestIntegerKernel:
    """The int convolution over one common denominator against the same
    convolution in reduced Fractions, and against the rank-2 recurrences."""

    def test_order8_shapes(self):
        # the reference reads only m, mu and g, all functions of the type,
        # so it runs once per distinct type; the kernel runs on every shape
        reference = {}
        for gog in exhaustive_rank2_shapes(8):
            tv = type_vector_direct(gog)
            key = (tv.m, tuple(sorted(tv.zeta.items())))
            if key not in reference:
                reference[key] = f_series_fractions(gog, 30)
            assert f_series(gog, 30) == reference[key]

    def test_random_data(self):
        for gog in seeded_random_data(20240, 100):
            assert f_series(gog, 30) == f_series_fractions(gog, 30)

    @pytest.mark.parametrize("gog", [free_bouquet(2), BIG], ids=["f2", "big"])
    def test_integral_g(self, gog):
        # g is integral, so the common denominator is 1
        assert all(q.denominator == 1 for q in g_series(gog, 40))
        assert f_series(gog, 40) == f_series_fractions(gog, 40)

    @pytest.mark.parametrize("name", sorted(RANK2_INPUTS))
    def test_benchmark_rank2_inputs(self, name):
        label, params = RANK2_INPUTS[name]
        gog = parse_gog((INPUTS / name).read_text(encoding="utf-8"))
        assert f_series(gog, 200) == f_series_rank2(label, params, 200)


def wide_shapes():
    """The order-8 shapes with m >= 168: mu is 180..430, far past the 30
    terms that the ode suite reads."""
    return [gog for gog in exhaustive_rank2_shapes(8) if m_gamma(gog) >= 168]


def ratio_plus_a_seventh(g_ratios, lam):
    """g_ratios with the ratio g_lam / g_{lam-1} raised by 1/7."""

    def rigged(*args):
        ratios = g_ratios(*args)
        p, q = ratios[lam - 1]
        ratios[lam - 1] = (7 * p + q, 7 * q)
        return ratios

    return rigged


def assert_truncation_is_prefix(gog):
    full = theta_coeffs(gog)
    for n in (1, 2, 30, len(full), len(full) + 4):
        assert theta_coeffs(gog, n) == full[:n]


class TestTheta:
    def test_dihedral_coefficients(self):
        assert theta_coeffs(dihedral()) == (1, 2)

    def test_truncation_is_prefix_on_wide_shapes(self):
        shapes = wide_shapes()
        assert len(shapes) == 14
        for gog in shapes:
            assert_truncation_is_prefix(gog)

    @given(small_gogs())
    @settings(max_examples=40, deadline=None)
    def test_truncation_is_prefix(self, gog):
        assert_truncation_is_prefix(gog)

    @pytest.mark.parametrize("n", [0, -1])
    def test_truncation_below_one_term(self, n):
        with pytest.raises(ValueError, match=f"N >= 1, got {n}"):
            theta_coeffs(dihedral(), n)

    def test_ode_check_ignores_coefficients_past_its_terms(self, monkeypatch):
        # 12 ratios read theta_0..theta_11, index N - 1 at most
        gog = wide_shapes()[0]
        th = theta_coeffs(gog, 12)
        junk = th + (7, -3, 10**40)
        assert ode_check(gog, th, 12) and ode_check(gog, junk, 12)
        monkeypatch.setattr(
            counting, "_g_ratios", ratio_plus_a_seventh(counting._g_ratios, 5)
        )
        assert not ode_check(gog, th, 12) and not ode_check(gog, junk, 12)

    def test_ode_check_needs_the_last_coefficient(self):
        # guards the ode suite's N against an off-by-one
        gog = c2_star_c3()
        th = theta_coeffs(gog, 12)
        assert ode_check(gog, th, 12)
        assert not ode_check(gog, th[:-1], 12)
        gog = wide_shapes()[0]
        assert ode_check(gog, theta_coeffs(gog, 30), 30)
        assert not ode_check(gog, theta_coeffs(gog, 29), 30)

    def test_rank_zero_datum_single_coefficient(self):
        assert theta_coeffs(build_gog({"v": 5}, [])) == (1,)

    def test_length_is_rank_plus_one(self):
        assert len(theta_coeffs(free_bouquet(2))) == 3
        assert len(theta_coeffs(c2_star_c3())) == 3

    def test_non_integral_theta_on_corrupt_orders(self):
        # mutating a built datum bypasses validation: order 2 divides
        # neither vertex order
        corrupt = segment_with_loop(2, 2, 2, 2)
        corrupt.vertex_order.update({"a": 1, "b": 3})
        with pytest.raises(NonIntegralTheta) as exc:
            theta_coeffs(corrupt)
        assert str(exc.value) == "NonIntegralTheta: theta_0 = 1/6 is not an integer"

    @given(small_gogs())
    @settings(max_examples=40, deadline=None)
    def test_ode_recurrence_holds(self, gog):
        assert ode_check(gog, theta_coeffs(gog), 30)

    def test_ode_check_rejects_corrupted_theta(self):
        assert not ode_check(dihedral(), (1, 3), 10)

    def test_ode_check_rejects_one_perturbed_term(self, monkeypatch):
        # the ratio never reads theta, so ode_check must catch a wrong one
        gog = c2_star_c3()
        th = theta_coeffs(gog)
        real = counting._g_ratios
        for lam in range(1, 13):
            monkeypatch.setattr(counting, "_g_ratios", ratio_plus_a_seventh(real, lam))
            assert not ode_check(gog, th, 12)

    def test_ode_examples(self):
        for gog in (dihedral(), free_bouquet(2), c2_star_c3()):
            assert ode_check(gog, theta_coeffs(gog), 30)


def theta_1_plus_one(th):
    return (th[0], th[1] + 1 if len(th) > 1 else 1, *th[2:])


def assert_ratio_check_is_the_g_check(gog):
    m = m_gamma(gog)
    g = g_series(gog, 30)
    th = theta_coeffs(gog, 30)
    verdicts = []
    for theta in (th, theta_1_plus_one(th)):
        verdicts.append(ode_check(gog, theta, 30))
        assert verdicts[-1] == ode_holds_on_g(g, theta, m)
    assert verdicts == [True, False]


class TestRatioCheckIsTheGCheck:
    """ode_check on the term ratios against the cross-multiplied check on
    g_0..g_30 that it replaced, with the true theta and with theta_1 + 1."""

    def test_every_type_of_the_ode_corpus(self):
        types = {}
        for gog in [*exhaustive_rank2_shapes(8), dihedral(), free_bouquet(2)]:
            m, c = invariants._net_orders(gog)
            types.setdefault((m, *sorted(c.items())), gog)
        assert len(types) == 350
        for gog in types.values():
            assert_ratio_check_is_the_g_check(gog)

    @given(small_gogs())
    @settings(max_examples=40, deadline=None)
    def test_small_data(self, gog):
        assert_ratio_check_is_the_g_check(gog)


class TestRank2Recurrences:
    def test_class_ii_reproduces_free_group(self):
        assert f_series_rank2("ii", {"m": 1}, 6) == FREE_RANK2_COUNTS

    def test_class_iii_first_term(self):
        assert f_series_rank2("iii", {"m": 6, "S": 1}, 1) == [5]

    def test_class_i_first_terms(self):
        # f_2 = (5/2) * m * f_1 at the first step (coefficient (2*1+3)/2)
        assert f_series_rank2("i", {"m": 2}, 3) == [2, 10, 74]

    @pytest.mark.parametrize(
        "gog,label,params",
        [
            (hnn_loop(2, 1), "i", {"m": 2}),
            (hnn_loop(4, 2), "i", {"m": 4}),
            (hnn_loop(12, 6), "i", {"m": 12}),
            (free_bouquet(2), "ii", {"m": 1}),
            (build_gog({"v": 2}, [("p", "v", "v", 2), ("q", "v", "v", 2)]),
             "ii", {"m": 2}),
            (c2_star_c3(), "iii", {"m": 6, "S": 1}),
            (segment(3, 1, 3), "iii", {"m": 3, "S": 1}),
            (segment(2, 1, 4), "iii", {"m": 4, "S": 1}),
            (segment(6, 3, 12), "iii", {"m": 12, "S": 3}),
            (segment_with_loop(2, 1, 2, 2), "iv", {"m": 2}),
            (triple_c2(), "v", {"m": 2}),
            (build_gog({"a": 4, "b": 4, "c": 4},
                       [("e", "a", "b", 2), ("f", "b", "c", 2)]),
             "v", {"m": 4}),
            (double_edge(2, 1, 2, 2), "i", {"m": 2}),
            (double_edge(4, 2, 4, 4), "i", {"m": 4}),
        ],
    )
    def test_agrees_with_generic_convolution(self, gog, label, params):
        assert f_series_rank2(label, params, 15) == f_series(gog, 15)

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            f_series_rank2("vi", {"m": 2}, 3)

    def test_missing_param(self):
        with pytest.raises(MissingParam):
            f_series_rank2("iii", {"m": 6}, 3)
        with pytest.raises(MissingParam):
            f_series_rank2("i", {}, 3)
        for c in ("i", "iv", "v"):
            with pytest.raises(MissingParam) as exc:
                f_series_rank2(c, {"m": 3}, 3)
            assert str(exc.value) == f"MissingParam: class {c} requires even m, got 3"


class TestParity:
    def test_c2_star_c3_odd_exactly_below_powers_of_two(self):
        profile = [x % 2 == 1 for x in f_series(c2_star_c3(), 64)]
        odd_at = {lam for lam, odd in enumerate(profile, start=1) if odd}
        assert odd_at == {1, 3, 7, 15, 31, 63}

    def test_prediction_matches_for_alternating_classes(self):
        cases = [
            (c2_star_c3(), "iii", {"m": 6, "S": 1}),
            (segment(2, 1, 4), "iii", {"m": 4, "S": 1}),
            (segment(6, 3, 12), "iii", {"m": 12, "S": 3}),
            (triple_c2(), "v", {"m": 2}),
        ]
        for gog, label, params in cases:
            actual = [x % 2 == 1 for x in f_series(gog, 40)]
            assert actual == predicted_parity(label, params, 40)

    def test_constant_classes(self):
        cases = [
            (hnn_loop(2, 1), "i", {"m": 2}),
            (hnn_loop(4, 2), "i", {"m": 4}),
            (free_bouquet(2), "ii", {"m": 1}),
            (build_gog({"v": 2}, [("p", "v", "v", 2), ("q", "v", "v", 2)]),
             "ii", {"m": 2}),
            (segment(3, 1, 3), "iii", {"m": 3, "S": 1}),
            (segment(4, 2, 6), "iii", {"m": 12, "S": 2}),
            (segment_with_loop(2, 1, 2, 2), "iv", {"m": 2}),
            (build_gog({"a": 4, "b": 4, "c": 4},
                       [("e", "a", "b", 2), ("f", "b", "c", 2)]),
             "v", {"m": 4}),
        ]
        for gog, label, params in cases:
            actual = [x % 2 == 1 for x in f_series(gog, 40)]
            predicted = predicted_parity(label, params, 40)
            assert len(set(actual)) == 1
            assert actual == predicted

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            predicted_parity("x", {"m": 2}, 4)
        with pytest.raises(UnknownClass):
            predicted_parity("iii", {"m": 10, "S": 1}, 4)


class TestGrowth:
    def test_c2_star_c3(self):
        assert growth_check(c2_star_c3(), 20)

    def test_triple_c2_exceptional_start(self):
        gog = triple_c2()
        assert growth_check(gog, 20)  # auto-detects the shape, starts at 2

    def test_triple_c2_failure_is_exactly_at_first_step(self):
        f = f_series(triple_c2(), 2)
        assert f == [1, 4]
        assert f[1] - f[0] < 2 * math.factorial(2)

    def test_exception_is_the_type_in_any_presentation(self):
        presentations = [
            triple_c2(),
            # a segment of two C2*C2 pieces
            build_gog(
                {"a": 2, "b": 2, "c": 2, "d": 2},
                [("e", "a", "b", 1), ("f", "b", "c", 2), ("g", "c", "d", 1)],
            ),
            # not normalized: a pendant trivial vertex on a trivial edge
            build_gog(
                {"a": 2, "b": 2, "c": 2, "t": 1},
                [("e", "a", "b", 1), ("f", "b", "c", 1), ("p", "c", "t", 1)],
            ),
        ]
        for gog in presentations:
            f = f_series(gog, 2)
            assert f[1] - f[0] < 2 * math.factorial(2)
            assert growth_check(gog, 20)

    def test_wrong_rank(self):
        with pytest.raises(WrongRank):
            growth_check(dihedral(), 5)


class TestOneDerivationPerCall:
    """Each public kernel derives the type (m, c) once, and counting takes m
    and mu from that type rather than through m_gamma or free_rank."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"_net_orders": 0, "m_gamma": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        net_orders = counted("_net_orders", invariants._net_orders)
        monkeypatch.setattr(invariants, "_net_orders", net_orders)
        monkeypatch.setattr(counting, "_net_orders", net_orders)
        monkeypatch.setattr(invariants, "m_gamma", counted("m_gamma", invariants.m_gamma))
        return calls

    @pytest.mark.parametrize(
        "fn, derivations",
        [
            (lambda gog: counting.theta_coeffs(gog, 5), 1),
            (lambda gog: counting.ode_check(gog, (5, 72, 36), 5), 1),
            (invariants.free_rank, 1),
            # once in f_series itself and once in the public g_series it calls
            (lambda gog: counting.f_series(gog, 5), 2),
        ],
        ids=["theta_coeffs", "ode_check", "free_rank", "f_series"],
    )
    def test_derivations(self, calls, fn, derivations):
        fn(c2_star_c3())
        assert calls == {"_net_orders": derivations, "m_gamma": derivations}

    def test_invariants_command_derives_twice(self, calls, capsys):
        # once in type_vector and once for chi, mu and the edge bound
        assert cli.main(["invariants", str(INPUTS / "big.gog")]) == 0
        assert capsys.readouterr().out.endswith("edge_bound=ok (6 <= 68)\n")
        assert calls == {"_net_orders": 2, "m_gamma": 2}

    def test_counting_reads_neither_m_gamma_nor_free_rank(self):
        assert not hasattr(counting, "m_gamma")
        assert not hasattr(counting, "free_rank")

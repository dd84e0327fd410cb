import importlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    c2_star_c3,
    dihedral,
    double_edge,
    f_series_fractions,
    free_bouquet,
    g_closed_form,
    g_ratios_direct,
    hnn_loop,
    ode_check_falling,
    ode_holds_on_g,
    predicted_parity,
    same_values,
    seeded_random_data,
    segment,
    segment_with_loop,
    small_gogs,
    theta_levels,
    triple_c2,
    type_vector_direct,
)
from vfree import cli, counting, invariants, oracle, properties
from vfree.classify import classify
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
    TooLarge,
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

    def test_matches_closed_form_on_big(self):
        # K has 101 bits on BIG, so g_u = g^_u * K^u differs from g^_u
        assert same_values(g_series(BIG, 100), g_closed_form(BIG, 100))

    @staticmethod
    def assert_pairs_in_lowest_terms(gog, N):
        K, terms = counting._g(*invariants._net_orders(gog), N)
        assert len(terms) == N + 1
        assert all(Q > 0 and math.gcd(P, Q) == 1 for P, Q, _ in terms)
        # g_u = U_u / Q_u = g^_u * K^u, also in lowest terms
        assert all(U == P * K**u for u, (P, _, U) in enumerate(terms))
        assert all(math.gcd(U, Q) == 1 for _, Q, U in terms)

    @given(small_gogs())
    @settings(max_examples=50, deadline=None)
    def test_pairs_in_lowest_terms(self, gog):
        self.assert_pairs_in_lowest_terms(gog, 20)

    def test_pairs_in_lowest_terms_on_big(self):
        self.assert_pairs_in_lowest_terms(BIG, 100)


def reduced_ratios(gog, N):
    """The term ratios g_l / g_{l-1}, l = 1..N, in lowest terms."""
    ratios = counting._g_ratios(*invariants._net_orders(gog), N)
    return [Fraction(p, q).as_integer_ratio() for p, q in ratios]


def ratio_replaced(lam, ratio):
    """_g_ratios with its lam-th ratio p/q replaced by ratio(p, q)."""
    real = counting._g_ratios

    def rigged(m, net, N):
        ratios = real(m, net, N)
        if len(ratios) >= lam:
            ratios[lam - 1] = ratio(*ratios[lam - 1])
        return ratios

    return rigged


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
        # g_1 = 1, so the second term ratio is g_2 itself
        rigged = ratio_replaced(2, lambda p, q: (g2.numerator, g2.denominator))
        monkeypatch.setattr(counting, "_g_ratios", rigged)
        with pytest.raises(error) as exc:
            f_series(free_bouquet(2), 4)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "lam, ratio, error",
        [
            # g_3 gains a prime that divides no numerator: f_3 is not an integer
            (3, lambda p, q: (p, q * 10007), NonIntegralCount),
            # g_2 = 0, so f_2 = -g_1 * f_1
            (2, lambda p, q: (0, 1), NonPositiveCount),
        ],
        ids=["non-integral", "non-positive"],
    )
    def test_corrupted_ratio_reports_the_unscaled_f(
        self, monkeypatch, lam, ratio, error
    ):
        # on BIG the rescaling K stays > 1 under either corruption, and the
        # message must still give f_lam, not the rescaled f_lam / K^lam
        monkeypatch.setattr(counting, "_g_ratios", ratio_replaced(lam, ratio))
        assert counting._scale(reduced_ratios(BIG, 20)) > 1
        with pytest.raises(error) as expected:
            f_series_fractions(BIG, 20)
        with pytest.raises(error) as exc:
            f_series(BIG, 20)
        assert str(exc.value) == str(expected.value)

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


class TestScale:
    """K, the base f is rescaled by: it divides every reduced numerator of
    the term ratios, is coprime to every reduced denominator, and K^l
    divides f_l."""

    @staticmethod
    def assert_scale(gog, N):
        ratios = reduced_ratios(gog, N)
        K = counting._scale(ratios)
        assert K >= 1
        for p, q in ratios:
            assert p % K == 0
            assert math.gcd(K, q) == 1
        for lam, f in enumerate(f_series(gog, N), 1):
            assert f % K**lam == 0

    @given(small_gogs())
    @settings(max_examples=50, deadline=None)
    def test_small_data(self, gog):
        self.assert_scale(gog, 20)

    def test_order8_shapes(self):
        # K is a function of the type, so each type is checked once
        types = {}
        for gog in exhaustive_rank2_shapes(8):
            m, c = invariants._net_orders(gog)
            types.setdefault((m, *sorted(c.items())), gog)
        for gog in types.values():
            self.assert_scale(gog, 30)

    def test_big(self):
        K = counting._scale(reduced_ratios(BIG, 100))
        assert K == 2**38 * 3**9 * 5**7 * 7**3 * 11**2 * 13 * 17 * 19 * 23
        assert K.bit_length() == 101
        self.assert_scale(BIG, 100)

    def test_no_ratios(self):
        # math.gcd() of no numerators is 0; K is 1 there
        assert counting._scale([]) == 1
        assert f_series(BIG, 0) == []
        assert f_series(BIG, 1) == f_series_fractions(BIG, 1)


def low_rank_shapes(order_bound):
    """(type key, datum, m, mu) for each corpus shape of free rank <= 2 with
    orders <= order_bound."""
    for row in oracle._shape_data(order_bound):
        key = properties._row_key(*row)
        m, c = properties._key_type(key)
        mu = invariants._rank(m, c)
        if mu <= 2:
            yield key, build_gog(*row), m, mu


# theta_1 / m^2 of each rank-2 recurrence family: c_1 of f_series_rank2
FAMILY_THETA_1 = {
    "i": Fraction(5, 2), "ii": 3, "iii": 2, "iv": Fraction(5, 2), "v": 2
}


class TestRiccati:
    """f past f_3 on free rank <= 2, from the Riccati form of g's ODE,
    against the Fraction convolution, which reads every ratio of g."""

    def test_shape_types_match_fraction_reference(self):
        # f is a function of the type, so each type is checked once
        types = {key: (gog, mu) for key, gog, _, mu in low_rank_shapes(12)}
        assert len(types) == 65
        # rank 0 (theta_1 = 0: f is 0 after f_1) and rank 1 (theta_1 = m:
        # f is constant) take the same recurrence as rank 2
        assert {mu for _, mu in types.values()} == {0, 1, 2}
        for gog, _ in types.values():
            assert f_series(gog, 60) == f_series_fractions(gog, 60)

    @pytest.mark.parametrize("name", sorted(RANK2_INPUTS))
    def test_benchmark_rank2_inputs_match_fraction_reference(self, name):
        gog = parse_gog((INPUTS / name).read_text(encoding="utf-8"))
        assert f_series(gog, 200) == f_series_fractions(gog, 200)

    def test_theta_by_family(self):
        # theta_2 = m^mu, the leading coefficient of T, and theta_1, the
        # coefficient read off m f_2 = theta_1 f_1, is c_1 m^2 of the class
        families = set()
        for _, gog, m, mu in low_rank_shapes(12):
            if mu != 2:
                continue
            theta = theta_coeffs(gog)
            f = f_series(gog, 2)
            assert len(theta) == 3 and theta[2] == m * m
            assert theta[1] * f[0] == m * f[1]
            family = classify(normalize(gog)[0]).label.family
            assert Fraction(theta[1], m * m) == FAMILY_THETA_1[family]
            families.add(family)
        assert families == set(FAMILY_THETA_1)

    @pytest.mark.parametrize("check", [f_series, growth_check])
    @pytest.mark.parametrize(
        "lam, ratio, error",
        [
            # on F2, g_l = l!: each ratio is l/1, and f = 1, 3, 13, ...
            (2, lambda p, q: (9, 8), NonIntegralCount),
            (2, lambda p, q: (0, 1), NonPositiveCount),
            (3, lambda p, q: (1, 4), NonIntegralCount),
            (3, lambda p, q: (1, 2), NonPositiveCount),
        ],
        ids=["2-non-integral", "2-non-positive", "3-non-integral", "3-non-positive"],
    )
    def test_ratio_rigged_before_the_recurrence(
        self, monkeypatch, check, lam, ratio, error
    ):
        # f_1..f_3 still come from the convolution, so a ratio corrupted at
        # l <= 3 raises what the Fraction reference raises, through either caller
        monkeypatch.setattr(counting, "_g_ratios", ratio_replaced(lam, ratio))
        with pytest.raises(error) as expected:
            f_series_fractions(free_bouquet(2), 20)
        with pytest.raises(error) as exc:
            check(free_bouquet(2), 20)
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize(
        "name, ratio, error, message",
        [
            # f_1 = 3, f_2 = 4 on m = 4
            ("c2c4.gog", (25, 24), NonIntegralTheta,
             "NonIntegralTheta: theta_1 = 16/3 is not an integer"),
            # f_1 = 20 on m = 12: theta_1 = 3 f_2 / 5 is an integer, but
            # theta_1 f_3 is not a multiple of m
            ("am64.gog", (29, 24), NonIntegralCount,
             "NonIntegralCount: f_4 = 172185/4 is not an integer"),
        ],
        ids=["theta", "step"],
    )
    def test_corrupted_g_2_past_the_convolution(
        self, monkeypatch, name, ratio, error, message
    ):
        # f_1..f_3 pass, and the recurrence raises on what they imply
        gog = parse_gog((INPUTS / name).read_text(encoding="utf-8"))
        rigged = ratio_replaced(2, lambda p, q: ratio)
        monkeypatch.setattr(counting, "_g_ratios", rigged)
        with pytest.raises(error) as exc:
            f_series(gog, 6)
        assert str(exc.value) == message


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

    def test_huge_m_is_too_large_before_its_exponents_are_listed(self):
        # m = 6*10^12 exponents would be a bare MemoryError
        huge = segment(2 * 10**12, 10**12, 3 * 10**12)
        with pytest.raises(TooLarge) as exc:
            theta_coeffs(huge)
        assert str(exc.value) == "TooLarge: a 13-digit m is over theta's cap of 1048576"

    def test_cap_admits_m_up_to_it(self, monkeypatch):
        full = theta_coeffs(c2_star_c3())  # m = 6
        monkeypatch.setattr(counting, "_MAX_THETA_M", 6)
        assert theta_coeffs(c2_star_c3()) == full
        monkeypatch.setattr(counting, "_MAX_THETA_M", 5)
        with pytest.raises(TooLarge):
            theta_coeffs(c2_star_c3())

    def test_work_over_its_cap_is_too_large_before_any_block(self):
        # mu = 4096: work 4097 * 4096 * 8193; this did not end in 60 s before
        # the cap
        counting._classes.cache_clear()
        with pytest.raises(TooLarge) as exc:
            theta_coeffs(hnn_loop(4096, 1))
        assert str(exc.value) == (
            "TooLarge: theta's work 137489289216 is over its cap of 2147483648"
        )
        assert counting._classes.cache_info().misses == 0

    @pytest.mark.parametrize(
        "gog, N",
        [(free_bouquet(2000), None), (hnn_loop(1 << 18, 1), 2)],
        ids=["m-1-mu-2000", "m-2^18-two-terms"],
    )
    def test_work_cap_bounds_mu_at_any_m(self, gog, N):
        # under a cap on (top + 1)^2 * m both ran: 1.6 s and 11 s
        counting._classes.cache_clear()
        with pytest.raises(TooLarge):
            theta_coeffs(gog, N)
        assert counting._classes.cache_info().misses == 0

    def test_work_cap_admits_up_to_it(self, monkeypatch):
        full = theta_coeffs(c2_star_c3())  # m = 6, mu = 2: work 3 * 2 * 5
        monkeypatch.setattr(counting, "_MAX_THETA_WORK", 30)
        assert theta_coeffs(c2_star_c3()) == full
        assert theta_coeffs(c2_star_c3(), 2) == full[:2]  # work 2 * 2 * 4
        monkeypatch.setattr(counting, "_MAX_THETA_WORK", 29)
        with pytest.raises(TooLarge):
            theta_coeffs(c2_star_c3())

    def test_work_cap_admits_rank_512_and_the_order8_corpus(self):
        # m = 512 at mu = 512, work 513 * 512 * 1025, still runs
        theta = theta_coeffs(hnn_loop(512, 1))
        assert len(theta) == 513
        assert theta[:8] == theta_levels(512, {1: 1, 512: -1}, 8)
        # the largest work of the order-8 corpus at N = None, m = 280 at
        # mu = 430, which the tests build in full
        mus = [counting._rank(*properties._key_type(key)) for key in corpus_keys(8)]
        work = max((mu + 1) * mu * (2 * mu + 1) for mu in mus)
        assert work == 431 * 430 * 861 <= counting._MAX_THETA_WORK

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


def corpus_keys(order_bound):
    """The distinct type keys of the shape corpus, in ascending order."""
    return sorted(properties._corpus(order_bound))


class TestClassBlocks:
    """_theta forms T(j) from memoised gcd-class blocks and _g_ratios reads
    memoised factors; both equal their memo-free references on every type
    of the order-12 shape corpus, visited in a shuffled order so that the
    memos are hit and missed at random."""

    def shuffled_types(self, order_bound):
        keys = corpus_keys(order_bound)
        random.Random(7).shuffle(keys)
        return [properties._key_type(key) for key in keys]

    def test_theta_equals_the_level_form(self):
        types = self.shuffled_types(12)
        assert len(types) == 1151
        for m, c in types:
            assert counting._theta(m, c, 30) == theta_levels(m, c, 30)

    def test_full_theta_equals_the_level_form_on_the_order8_types(self):
        for m, c in self.shuffled_types(8):
            assert counting._theta(m, c, None) == theta_levels(m, c, None)

    def test_ratios_equal_the_direct_pairs(self):
        for m, c in self.shuffled_types(12):
            assert counting._g_ratios(m, c, 30) == g_ratios_direct(m, c, 30)

    def test_corrupt_orders_raise_as_the_level_form_does(self):
        # order 2 divides neither vertex order: zeta'_g = -1 at g = 1 and 3
        net = {2: 2, 1: -1, 3: -1}
        with pytest.raises(NonIntegralTheta) as expected:
            theta_levels(3, net, None)
        with pytest.raises(NonIntegralTheta) as exc:
            counting._theta(3, net, None)
        assert str(exc.value) == str(expected.value)

    def test_memos_stay_bounded(self):
        for m, c in self.shuffled_types(12)[:200]:
            counting._theta(m, c, 30)
            counting._g_ratios(m, c, 30)
        assert counting._classes.cache_info().currsize == 1
        assert counting._ratio_blocks.cache_info()[2:] == (16, 16)


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


class TestPrefixSumsAreTheFallingLoop:
    """ode_check builds P(0..N-1) by Newton prefix sums; the falling-factorial
    loop it replaced gives the same verdict for every theta and N."""

    @given(
        small_gogs(),
        st.lists(st.integers(-(10**6), 10**6), max_size=40),
        st.integers(1, 35),
    )
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_theta(self, gog, theta, N):
        theta = tuple(theta)
        assert ode_check(gog, theta, N) == ode_check_falling(gog, theta, N)

    @given(small_gogs(), st.integers(1, 35), st.data())
    @settings(max_examples=100, deadline=None)
    def test_true_theta_cut_extended_or_bumped(self, gog, N, data):
        theta = list(theta_coeffs(gog))
        theta = theta[: data.draw(st.integers(0, len(theta)))]
        theta += data.draw(st.lists(st.integers(-3, 3), max_size=6))
        if theta and data.draw(st.booleans()):
            theta[data.draw(st.integers(0, len(theta) - 1))] += 1
        theta = tuple(theta)
        assert ode_check(gog, theta, N) == ode_check_falling(gog, theta, N)

    def test_both_verdicts_occur(self):
        # the true theta passes at every N; a bump at u fails exactly when u < N
        for gog in (dihedral(), c2_star_c3(), free_bouquet(2), triple_c2()):
            theta = theta_coeffs(gog)
            for N in range(1, 36):
                assert ode_check(gog, theta, N) and ode_check_falling(gog, theta, N)
                for u in range(len(theta)):
                    bumped = (*theta[:u], theta[u] + 1, *theta[u + 1 :])
                    verdict = ode_check(gog, bumped, N)
                    assert verdict == ode_check_falling(gog, bumped, N) == (u >= N)


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
        # the package names the function classify, so fetch its module by path
        classify_module = importlib.import_module("vfree.classify")
        monkeypatch.setattr(classify_module, "_net_orders", net_orders)
        monkeypatch.setattr(invariants, "m_gamma", counted("m_gamma", invariants.m_gamma))
        return calls

    @pytest.mark.parametrize(
        "fn, derivations",
        [
            (lambda gog: counting.theta_coeffs(gog, 5), 1),
            (lambda gog: counting.ode_check(gog, (5, 72, 36), 5), 1),
            (invariants.free_rank, 1),
            (lambda gog: counting.f_series(gog, 5), 1),
            (lambda gog: counting.g_series(gog, 5), 1),
            (lambda gog: counting.growth_check(gog, 5), 1),
        ],
        ids=[
            "theta_coeffs", "ode_check", "free_rank", "f_series", "g_series",
            "growth_check",
        ],
    )
    def test_derivations(self, calls, fn, derivations):
        fn(c2_star_c3())
        assert calls == {"_net_orders": derivations, "m_gamma": derivations}

    def test_invariants_command_derives_twice(self, calls, capsys):
        # once in type_vector and once for chi, mu and the edge bound
        assert cli.main(["invariants", str(INPUTS / "big.gog")]) == 0
        assert capsys.readouterr().out.endswith("edge_bound=ok (6 <= 68)\n")
        assert calls == {"_net_orders": 2, "m_gamma": 2}

    def test_largeness_command_derives_twice(self, calls, capsys):
        # once for mu and m in largeness_report, and once in the f_series
        # it calls for the f prefix
        assert cli.main(["largeness", str(INPUTS / "big.gog")]) == 0
        assert capsys.readouterr().out.startswith("chi_negative=true\n")
        assert calls == {"_net_orders": 2, "m_gamma": 2}

    def test_counting_reads_neither_m_gamma_nor_free_rank(self):
        assert not hasattr(counting, "m_gamma")
        assert not hasattr(counting, "free_rank")

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (
    assert_invariants_direct,
    c2_star_c3,
    dihedral,
    euler_char_direct,
    euler_from_type,
    free_bouquet,
    hnn_loop,
    seeded_random_data,
    segment,
    small_gogs,
    totient,
)
from vfree import cli, invariants
from vfree.errors import NonIntegralRank, TooLarge
from vfree.gog import build_gog, serialize_gog
from vfree.invariants import (
    _MR_BASES,
    _MR_LIMIT,
    _factorize,
    _is_prime,
    divisors,
    free_rank,
    m_gamma,
    type_vector,
)
from vfree.normalize import normalize
from vfree.oracle import exhaustive_rank2_shapes

# 2^6 * 3^4 * 5^2 * 7 * 11 * 13 * 17 * 19 * 23, with 6,720 divisors
HIGHLY_COMPOSITE = 963761198400


def highly_composite_datum():
    """A vertex of order HIGHLY_COMPOSITE with 150 loops, and 100 leaf
    vertices hung from it by segments, over seven distinct orders; small
    enough that the per-divisor reference stays cheap."""
    orders = [1, 2, 12, 360, 5040, 720720, HIGHLY_COMPOSITE]
    vertices = {"v": HIGHLY_COMPOSITE}
    edges = [(f"l{i}", "v", "v", orders[i % 7]) for i in range(150)]
    for i in range(100):
        vertices[f"w{i}"] = orders[3 + i % 4]
        edges.append((f"s{i}", "v", f"w{i}", orders[i % 3]))
    return build_gog(vertices, edges)


def _is_small_prime(p):
    return p > 1 and all(p % q for q in range(2, p))


class TestTotientAndDivisors:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (12, 4)])
    def test_known_values(self, n, expected):
        assert totient(n) == expected

    def test_against_coprime_count(self):
        for n in range(1, 80):
            brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert totient(n) == brute

    def test_divisors(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(49) == [1, 7, 49]


    def test_against_one_trial_division_loop_each(self):
        # the definitions before both were derived from one factorization
        def old_divisors(n):
            small, large = [], []
            d = 1
            while d * d <= n:
                if n % d == 0:
                    small.append(d)
                    if d != n // d:
                        large.append(n // d)
                d += 1
            return small + large[::-1]

        def old_totient(n):
            result, m, p = n, n, 2
            while p * p <= m:
                if m % p == 0:
                    while m % p == 0:
                        m //= p
                    result -= result // p
                p += 1
            if m > 1:
                result -= result // m
            return result

        for n in range(1, 20001):
            assert divisors(n) == old_divisors(n)
            assert totient(n) == old_totient(n)

    def test_against_plain_trial_division(self):
        # random n < 10^12 often leave a cofactor past the trial bound, prime
        # (ended by Miller-Rabin) or composite (split by Pollard rho)
        def trial_factors(n):
            powers, p = {}, 2
            while p * p <= n:
                while n % p == 0:
                    n //= p
                    powers[p] = powers.get(p, 0) + 1
                p += 1
            if n > 1:
                powers[n] = 1
            return powers

        rng = random.Random(12)
        strong_pseudoprimes = [2047, 3215031751]  # to bases 2 and 2..7
        two_large_primes = [1009 * 999983, 1000003 * 999983]
        for n in [rng.randrange(1, 10**12) for _ in range(20)] + [
            999999999989, 2 * 999999999989, *strong_pseudoprimes, *two_large_primes
        ]:
            powers = trial_factors(n)
            assert _factorize(n) == powers
            divs = [1]
            for p, k in powers.items():
                divs = [d * p**i for d in divs for i in range(k + 1)]
            assert divisors(n) == sorted(divs)
            assert totient(n) == math.prod(p ** (k - 1) * (p - 1) for p, k in powers.items())

    @pytest.mark.parametrize(
        "n, prime",
        [
            (2047, False),
            (3215031751, False),
            (3825123056546413051, False),  # strong pseudoprime to bases 2..23
            (318665857834031151167461, False),  # to bases 2..37, not 41
            (999999999989, True),
            (2**61 - 1, True),
            (1000003 * 999983, False),
        ],
    )
    def test_miller_rabin_below_its_limit(self, n, prime):
        assert n < _MR_LIMIT
        assert _is_prime(n) is prime

    def test_miller_rabin_limit_is_the_first_failure(self):
        # the limit itself is a strong pseudoprime to all 13 bases
        assert _MR_LIMIT == 1287836182261 * 2575672364521
        assert _is_prime(_MR_LIMIT)

    def test_large_smooth_number(self):
        n = 10**18
        divs = divisors(n)
        assert len(divs) == 19 * 19
        assert divs[0] == 1 and divs[-1] == n and divs == sorted(divs)
        assert totient(n) == n * 2 // 5

    @pytest.mark.parametrize(
        "p, q",
        [(10007, 10009), (99991, 1000003), (998244353, 1000000007),
         (999999929, 999999937)],
    )
    def test_semiprimes_split(self, p, q):
        assert _is_prime(p) and _is_prime(q)
        assert _factorize(p * q) == {p: 1, q: 1}

    @pytest.mark.parametrize("p", [1009, 99991, 1000003])
    @pytest.mark.parametrize("k", [2, 3])
    def test_prime_powers_split(self, p, k):
        assert _factorize(p**k) == {p: k}
        assert divisors(p**k) == [p**i for i in range(k + 1)]

    def test_unproven_prime_is_too_large(self):
        # 2^89 - 1 is prime, but past the limit Miller-Rabin proves nothing
        assert 2**89 - 1 > _MR_LIMIT
        with pytest.raises(TooLarge) as exc:
            _factorize(2**89 - 1)
        assert exc.value.message == "a 27-digit cofactor cannot be proven prime"

    def test_one_round_past_the_limit(self, monkeypatch):
        # no number of rounds proves primality past the limit, so base 2
        # alone runs there: one modular exponentiation, not 13
        bases = []

        def counted_pow(a, *rest):
            bases.append(a)
            return pow(a, *rest)

        monkeypatch.setattr(invariants, "pow", counted_pow, raising=False)
        with pytest.raises(TooLarge) as exc:
            _factorize(2**89 - 1)
        assert exc.value.message == "a 27-digit cofactor cannot be proven prime"
        assert bases == [2]
        # a composite that fails base 2 still goes to rho; its two factors,
        # below the limit, each get all 13 bases
        bases.clear()
        assert _factorize((2**61 - 1) * (2**31 - 1)) == {2**61 - 1: 1, 2**31 - 1: 1}
        assert bases == [2, *_MR_BASES, *_MR_BASES]

    def test_two_large_primes_are_too_large(self):
        p, q = 999999999999947, 999999999999989
        assert _is_prime(p) and _is_prime(q)
        with pytest.raises(TooLarge) as exc:
            _factorize(p * q)
        assert "30-digit cofactor" in exc.value.message
        assert "\n" not in exc.value.message

    def test_divisor_cap(self, monkeypatch):
        primorial = math.prod(p for p in range(2, 80) if _is_small_prime(p))
        with pytest.raises(TooLarge) as exc:
            divisors(primorial)  # 22 primes
        assert exc.value.message == (
            "a 31-digit number has 4194304 divisors, more than 1048576"
        )
        # past the interpreter's 4300-digit int-to-str limit too
        with pytest.raises(TooLarge) as exc:
            divisors(2**20000 * primorial)
        assert exc.value.message.startswith("a 6052-digit number has ")
        monkeypatch.setattr(invariants, "_MAX_DIVISORS", 12)
        assert len(divisors(60)) == 12
        with pytest.raises(TooLarge):
            divisors(120)

    @pytest.mark.parametrize("n", [0, -4])
    def test_nonpositive_raises(self, n):
        with pytest.raises(ValueError):
            divisors(n)
        with pytest.raises(ValueError):
            totient(n)


class TestMGamma:
    def test_dihedral(self):
        assert m_gamma(dihedral()) == 2

    def test_c2_star_c3(self):
        assert m_gamma(c2_star_c3()) == 6

    def test_free_group(self):
        assert m_gamma(free_bouquet(2)) == 1


@pytest.fixture
def chi_mu(tmp_path, capsys):
    """The chi= and mu= values that `vfree invariants` prints for a datum."""
    path = tmp_path / "datum.gog"

    def run(gog):
        path.write_text(serialize_gog(gog))
        assert cli.main(["invariants", str(path)]) == 0
        out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        return out["chi"], out["mu"]

    return run


class TestEulerChar:
    """The chi line, which reads chi = (1 - mu)/m off the free rank."""

    def test_dihedral_zero(self, chi_mu):
        assert chi_mu(dihedral()) == ("0/1", "1")

    def test_c2_star_c3(self, chi_mu):
        assert chi_mu(c2_star_c3()) == ("-1/6", "2")

    def test_free_rank_two(self, chi_mu):
        assert chi_mu(free_bouquet(2)) == ("-1/1", "2")

    def test_positive(self, chi_mu):
        # C4 *_C2 C2 is C4, finite: chi = 1/4 + 1/2 - 1/2
        assert chi_mu(segment(4, 2, 2)) == ("1/4", "0")

    def test_matches_direct_sum_on_random_data(self, chi_mu):
        ranks = set()
        for gog in seeded_random_data(11, 100):
            chi, mu = chi_mu(gog)
            direct = euler_char_direct(gog)
            assert chi == f"{direct.numerator}/{direct.denominator}"
            ranks.add(int(mu))
        assert {0, 1, 2} < ranks


class TestTypeVector:
    def test_dihedral(self):
        tv = type_vector(dihedral())
        assert tv.m == 2
        assert tv.zeta == {1: 1, 2: -1}

    def test_free_rank_two(self):
        tv = type_vector(free_bouquet(2))
        assert tv.m == 1
        assert tv.zeta == {1: 1}

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_bare_vertex(self, n):
        tv = type_vector(build_gog({"v": n}, []))
        assert tv.m == n
        for k, z in tv.zeta.items():
            assert z == (-1 if k == n else 0)

    @given(small_gogs())
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_tree_criterion(self, gog):
        tv = type_vector(gog)
        g = gog.graph
        is_tree = len(g.half_edges) == 2 * (len(g.vertices) - 1)
        for k, z in tv.zeta.items():
            if k < tv.m:
                assert z >= 0
        assert tv.zeta[tv.m] >= -1
        assert (tv.zeta[tv.m] == -1) == is_tree

    def test_invariant_under_relabeling(self):
        a = build_gog({"x": 4, "y": 2}, [("e", "x", "y", 2)])
        b = build_gog({"p": 4, "q": 2}, [("z", "p", "q", 2)])
        assert type_vector(a) == type_vector(b)


class TestEulerFromType:
    def test_dihedral(self):
        assert euler_from_type(type_vector(dihedral())) == 0

    def test_free_rank_two(self):
        assert euler_from_type(type_vector(free_bouquet(2))) == -1

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_bare_vertex_gives_reciprocal_order(self, n):
        tv = type_vector(build_gog({"v": n}, []))
        assert euler_from_type(tv) == Fraction(1, n)

    @given(small_gogs())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_direct_formula(self, gog):
        assert euler_from_type(type_vector(gog)) == euler_char_direct(gog)


class TestAgainstDirectFormulas:
    """chi, type_vector and free_rank read the net order
    multiplicities; each is checked against a sum over every vertex and
    edge (and, for zeta, over every divisor) in tests/helpers.py."""

    @given(small_gogs())
    @settings(max_examples=80, deadline=None)
    def test_small_data(self, gog):
        assert_invariants_direct(gog)

    def test_seeded_random_data(self):
        for gog in seeded_random_data(4, 200):
            assert_invariants_direct(gog)

    def test_order8_shapes(self):
        shapes = list(exhaustive_rank2_shapes(8))
        assert len(shapes) == 640
        for gog in shapes:
            assert_invariants_direct(gog)

    def test_highly_composite_m(self):
        gog = highly_composite_datum()
        tv = type_vector(gog)
        assert tv.m == HIGHLY_COMPOSITE and len(tv.zeta) == 6720
        assert_invariants_direct(gog)


class TestFreeRank:
    def test_examples(self):
        assert free_rank(dihedral()) == 1
        assert free_rank(c2_star_c3()) == 2
        assert free_rank(free_bouquet(2)) == 2

    def test_non_integral_rank_on_corrupt_orders(self):
        # mutating a built datum bypasses validation: the edge order no
        # longer divides an endpoint order
        corrupt = segment(2, 1, 3)
        corrupt.edge_order.update({"s": 4})
        with pytest.raises(NonIntegralRank):
            free_rank(corrupt)

    @given(small_gogs())
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_integer_on_valid_data(self, gog):
        assert free_rank(gog) >= 0

    @given(small_gogs())
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_normalization(self, gog):
        ngog, _ = normalize(gog)
        assert free_rank(gog) == free_rank(ngog.gog)
        assert type_vector(gog) == type_vector(ngog.gog)
        assert m_gamma(gog) == m_gamma(ngog.gog)


class TestEdgeBound:
    def test_dihedral_equality(self):
        ngog, _ = normalize(dihedral())
        assert len(ngog.gog.graph.half_edges) == 2 == 2 * free_rank(ngog.gog)
        assert len(ngog.gog.graph.half_edges) <= 2 * free_rank(ngog.gog)

    def test_free_rank_two_equality(self):
        ngog, _ = normalize(free_bouquet(2))
        assert len(ngog.gog.graph.half_edges) == 4 == 2 * free_rank(ngog.gog)
        assert len(ngog.gog.graph.half_edges) <= 2 * free_rank(ngog.gog)

    def test_hnn_loop(self):
        ngog, _ = normalize(hnn_loop(6, 3))
        assert len(ngog.gog.graph.half_edges) <= 2 * free_rank(ngog.gog)

    @given(small_gogs())
    @settings(max_examples=80, deadline=None)
    def test_holds_for_every_normalized_datum(self, gog):
        ngog, _ = normalize(gog)
        assert len(ngog.gog.graph.half_edges) <= 2 * free_rank(ngog.gog)

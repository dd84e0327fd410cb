"""Exact invariants of a graph-of-groups datum.

All arithmetic is exact: the Euler characteristic is a Fraction, everything
else is an integer. The invariants depend on the orders only through
m = lcm of the vertex orders (every edge order divides it) and the net
order multiplicities c_d = #{geometric edges of order d} - #{vertices of
order d}, which ``_net`` collapses in one pass over the orders:

* zeta_k = sum over d | k of c_d, for each divisor k of m,
* chi = -sum over d of c_d / d, one Fraction per distinct order,
* mu = 1 - m*chi = 1 + sum over d of c_d * (m/d), the rank of a free
  subgroup of index m, computed in integers from (m, c) by ``_rank``.

Only ``_chi`` imports ``fractions``, so the rank on valid data and the
type vector load neither it nor ``decimal``.

Past that pass, the type vector costs O(d(m) * #distinct orders) plus the
factorization of m. Both are capped: d(m) at _MAX_DIVISORS, and Pollard
rho at _RHO_WORK bit-steps per cofactor (a step on a b-bit cofactor costs
max(b, 128)); past a cap, ``TooLarge`` is raised before the divisor list
is built.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable

from .errors import NonIntegralRank, TooLarge
from .gog import GraphOfGroups
from .graph import Record


# trial division stops at _TRIAL_BOUND; Miller-Rabin on the first 13 prime
# bases is exact below _MR_LIMIT (Sorenson and Webster, Math. Comp. 2017),
# and at or above it runs base 2 alone
_TRIAL_BOUND = 1000
_MR_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard rho work per cofactor, in bit-steps: a step multiplies numbers of
# the cofactor's size, so a b-bit cofactor gets _RHO_WORK // max(b, 128)
# steps; 2^20 up to 128 bits, where a factor near 10^9 takes about 3*10^4
_RHO_WORK = 1 << 27
# the most divisors ``divisors`` lists
_MAX_DIVISORS = 1 << 20


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < _MR_LIMIT. At or above it
    no number of rounds proves n prime, so one round, base 2, only looks
    for a proof that n is composite: False."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES if n < _MR_LIMIT else _MR_BASES[:1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(n: int) -> int:
    """The decimal digits of n >= 1. Unlike len(str(n)), this holds past
    the interpreter's int-to-str limit, which only the CLI lifts."""
    from decimal import Decimal  # only error messages need it

    return Decimal(n).adjusted() + 1


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard rho with Brent's
    cycle detection (Brent, BIT 1980) on y -> y^2 + c from y = 2, for
    c = 1, 2, ... in turn; TooLarge when its steps exceed its share of
    _RHO_WORK."""
    budget = _RHO_WORK // max(n.bit_length(), 128)
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > budget:
                raise TooLarge(
                    f"a {_digits(n)}-digit cofactor did not split "
                    f"in {budget} Pollard rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            # compare x with the next r values of y; q gathers the
            # differences, so one gcd serves a batch of 128
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # a batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """prime -> exponent. Trial division up to _TRIAL_BOUND; then each
    cofactor is proven prime by Miller-Rabin or split by ``_rho``, and the
    pieces are factored again. TooLarge when rho does not split one, or
    when one of at least _MR_LIMIT passes its base-2 round, since its
    primality is then not proven."""
    if n < 1:
        raise ValueError(f"factorization requires n >= 1, got {n}")
    powers: dict[int, int] = {}
    p = 2
    while p < _TRIAL_BOUND and p * p <= n:
        while n % p == 0:
            n //= p
            powers[p] = powers.get(p, 0) + 1
        p += 1
    # every prime factor left is at least p, so a cofactor below p^2 is prime
    todo = [n] if n > 1 else []
    while todo:
        c = todo.pop()
        if c < p * p or _is_prime(c):
            if c >= _MR_LIMIT:
                raise TooLarge(f"a {_digits(c)}-digit cofactor cannot be proven prime")
            powers[c] = powers.get(c, 0) + 1
        else:
            d = _rho(c)
            todo += [d, c // d]
    return powers


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending. TooLarge, before any is
    built, when there are more than _MAX_DIVISORS."""
    powers = _factorize(n)
    count = math.prod(k + 1 for k in powers.values())
    if count > _MAX_DIVISORS:
        raise TooLarge(
            f"a {_digits(n)}-digit number has {count} divisors, "
            f"more than {_MAX_DIVISORS}"
        )
    divs = [1]
    for p, k in powers.items():
        divs = [d * p**i for d in divs for i in range(k + 1)]
    return sorted(divs)


class TypeVector(Record):
    """m together with the divisor-indexed integers zeta_k.

    zeta_k >= 0 for k < m, and zeta_m >= -1 with equality exactly when the
    underlying graph is a tree.
    """

    m: int
    zeta: dict[int, int]


def m_gamma(gog: GraphOfGroups) -> int:
    """lcm of the vertex orders; also the lcm of all finite subgroup orders."""
    return math.lcm(*gog.vertex_order.values())


def _net(vertex_orders: Iterable[int], edge_orders: Iterable[int]) -> dict[int, int]:
    """c_d = #{geometric edges of order d} - #{vertices of order d}, with
    the zero entries dropped, from the orders alone: one per vertex and
    one per geometric edge."""
    net = Counter(edge_orders)
    net.subtract(vertex_orders)
    return {d: c for d, c in net.items() if c}


def _net_orders(gog: GraphOfGroups) -> tuple[int, dict[int, int]]:
    """(m, c): m = m_gamma(gog) and the net orders c of its orders."""
    return m_gamma(gog), _net(gog.vertex_order.values(), gog.edge_order.values())


def _chi(net: dict[int, int]) -> Fraction:
    """chi = -sum_d c_d/d from the net orders c."""
    from fractions import Fraction  # here, so _rank on valid data never loads it

    return -sum((Fraction(c, d) for d, c in net.items()), Fraction(0))


def type_vector(gog: GraphOfGroups) -> TypeVector:
    """zeta_k = sum_{d | k} c_d for each divisor k of m."""
    m, net = _net_orders(gog)
    zeta = {k: sum(c for d, c in net.items() if k % d == 0) for k in divisors(m)}
    return TypeVector(m=m, zeta=zeta)


def _rank(m: int, net: dict[int, int]) -> int:
    """mu = 1 - m*chi = 1 + sum_d c_d*(m/d) of the type (m, c), in integers
    when every d divides m, as it does on valid data.

    Integrality and nonnegativity hold for every genuine datum; a violation
    means the order data does not come from a graph of groups.
    """
    if all(m % d == 0 for d in net):
        mu = 1 + sum(c * (m // d) for d, c in net.items())
    else:  # corrupt orders only
        mu = 1 - m * _chi(net)
    if mu.denominator != 1 or mu < 0:
        raise NonIntegralRank(f"1 - m*chi = {mu} is not a nonnegative integer")
    return int(mu)


def free_rank(gog: GraphOfGroups) -> int:
    """mu = 1 - m*chi: the rank of a free subgroup of index m."""
    return _rank(*_net_orders(gog))

"""Exact invariants of a graph-of-groups datum.

All arithmetic is exact: the Euler characteristic is a Fraction, everything
else is an integer. For a datum with orders |G_v| at vertices and |G_e| at
geometric edges:

* m = lcm of the vertex orders (every edge order divides it),
* chi = sum(1/|G_v|) - sum(1/|G_e|),
* zeta_k = #{geometric edges with |G_e| | k} - #{vertices with |G_v| | k}
  for each divisor k of m,
* mu = 1 - m*chi, the rank of a free subgroup of index m.

chi is recoverable from the type data alone via
chi = -(1/m) * sum over k|m of totient(m/k) * zeta_k,
which the test suite checks against the direct formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonIntegralRank
from .gog import GraphOfGroups, NormalizedGog


def _factorize(n: int) -> dict[int, int]:
    """prime -> exponent, by trial division that divides out each prime it
    finds; only a large prime factor still costs up to sqrt(n) steps."""
    if n < 1:
        raise ValueError(f"factorization requires n >= 1, got {n}")
    powers: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            powers[p] = powers.get(p, 0) + 1
        p += 1
    if n > 1:
        powers[n] = 1
    return powers


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, k in _factorize(n).items():
        divs = [d * p**i for d in divs for i in range(k + 1)]
    return sorted(divs)


def totient(n: int) -> int:
    """Euler's totient of n >= 1, from its factorization."""
    return math.prod(p ** (k - 1) * (p - 1) for p, k in _factorize(n).items())


@dataclass(frozen=True)
class TypeVector:
    """m together with the divisor-indexed integers zeta_k.

    zeta_k >= 0 for k < m, and zeta_m >= -1 with equality exactly when the
    underlying graph is a tree.
    """

    m: int
    zeta: dict[int, int]


def m_gamma(gog: GraphOfGroups) -> int:
    """lcm of the vertex orders; also the lcm of all finite subgroup orders."""
    return math.lcm(*gog.vertex_order.values())


def euler_char(gog: GraphOfGroups) -> Fraction:
    """sum(1/|G_v|) - sum(1/|G_e|) over vertices and geometric edges."""
    chi = Fraction(0)
    for v in gog.graph.vertices:
        chi += Fraction(1, gog.vertex_order[v])
    for e in gog.graph.orientation_reps():
        chi -= Fraction(1, gog.edge_order[e])
    return chi


def type_vector(gog: GraphOfGroups) -> TypeVector:
    m = m_gamma(gog)
    edge_orders = [gog.edge_order[e] for e in gog.graph.orientation_reps()]
    vertex_orders = list(gog.vertex_order.values())
    zeta = {}
    for k in divisors(m):
        zeta[k] = sum(1 for s in edge_orders if k % s == 0) - sum(
            1 for n in vertex_orders if k % n == 0
        )
    return TypeVector(m=m, zeta=zeta)


def euler_from_type(tv: TypeVector) -> Fraction:
    """Recover the Euler characteristic from the type data alone."""
    total = sum(totient(tv.m // k) * z for k, z in tv.zeta.items())
    return Fraction(-total, tv.m)


def free_rank(gog: GraphOfGroups) -> int:
    """mu = 1 - m*chi: the rank of a free subgroup of index m.

    Integrality and nonnegativity hold for every genuine datum; a violation
    means the order data does not come from a graph of groups.
    """
    mu = 1 - m_gamma(gog) * euler_char(gog)
    if mu.denominator != 1 or mu < 0:
        raise NonIntegralRank(f"1 - m*chi = {mu} is not a nonnegative integer")
    return int(mu)


def check_edge_bound(ngog: NormalizedGog) -> bool:
    """Half-edge count is at most 2*mu on normalized data (so geometric
    edges are at most mu); a False return indicates an upstream bug."""
    return len(ngog.gog.graph.half_edges) <= 2 * free_rank(ngog.gog)

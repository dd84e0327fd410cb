"""Free-subgroup counting series and their holonomic structure.

For a datum with invariants m and mu, let g_l be the number of actions on
a set of l*m points that are free on every finite subgroup, divided by
(l*m)!, and let f_l be the number of free subgroups of index l*m. The two
sequences determine each other through the index-counting convolution

    sum_{u=0}^{l-1} g_u * f_{l-u} = m * l * g_l,   l >= 1,   g_0 = 1,

which is how f_l is computed here. g_l is hypergeometric: write
c_d = #{geometric edges of order d} - #{vertices of order d} for the net
order multiplicities, so that

    g_l = prod_d ((l*m/d)! * d^(l*m/d))^(c_d),

and g is built from g_0 = 1 by the term ratio

    g_l / g_{l-1} = prod_d (d^(m/d) * prod_{j=(l-1)m/d+1}^{l*m/d} j)^(c_d),

one small exact Fraction per step, derived from the orders alone. Its
generating function G(z) satisfies an order-mu linear ODE with integer
coefficients theta_0..theta_mu, built from the type's terms T(j) grouped
by k. ode_check tests the ratio above, grouped by d and never read by
theta_coeffs, against them, and so checks g without building it.
All arithmetic is exact; g_l is a Fraction and f_l an arbitrary-precision
integer. Each public kernel derives the type (m, c) once, by
``invariants._net_orders``, and mu from it by ``invariants._rank``.

f is solved over the D-scaled integers: with D the lcm of the reduced
denominators of g_0..g_N and a_l = g_l * D, an int, step l computes

    D * f_l = m * l * a_l - sum_{u=1}^{l-1} a_u * f_{l-u}

and divides by D, so the quadratic loop builds no Fraction and takes no
gcd. The division is exact for every genuine datum; a remainder means
corrupted order data, and it raises NonIntegralCount rather than being
truncated into a wrong count.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    MissingParam,
    NonIntegralCount,
    NonIntegralTheta,
    NonPositiveCount,
    UnknownClass,
    WrongRank,
)
from .gog import GraphOfGroups
from .invariants import _net_orders, _rank


def _g_ratios(m: int, net: dict[int, int], N: int) -> list[tuple[int, int]]:
    """(p_l, q_l) with g_l / g_{l-1} = p_l / q_l for l = 1..N, unreduced: the
    one statement of the term ratio. It reads the orders, never theta, and
    not the orientation, since edge orders agree on {e, bar(e)}.
    """
    # per order d with c_d != 0: (m/d, d^(m/d), c_d)
    steps = [(m // d, d ** (m // d), c) for d, c in net.items()]
    out = []
    for lam in range(1, N + 1):
        num = den = 1
        for q, power, c in steps:
            block = power * math.prod(range((lam - 1) * q + 1, lam * q + 1))
            if c > 0:
                num *= block**c
            else:
                den *= block**-c
        out.append((num, den))
    return out


def g_series(gog: GraphOfGroups, N: int) -> list[Fraction]:
    """g_0..g_N, exactly: the running product of the term ratios from g_0 = 1."""
    g = Fraction(1)
    out = [g]
    for p, q in _g_ratios(*_net_orders(gog), N):
        g *= Fraction(p, q)
        out.append(g)
    return out


def f_series(gog: GraphOfGroups, N: int) -> list[int]:
    """f_1..f_N, solved from the convolution against g_0..g_N.

    Each value must come out a nonnegative integer, positive whenever the
    free rank is at least 1; a violation signals corrupted order data.
    (A rank-0 datum presents a finite group, where f_1 = 1 and every later
    count is 0.)
    """
    return _f(*_net_orders(gog), g_series(gog, N))


def _f(m: int, net: dict[int, int], g: list[Fraction]) -> list[int]:
    """f_1..f_N of the type (m, c) from its g = g_0..g_N, for callers that need g."""
    N = len(g) - 1
    mu = _rank(m, net)
    D = math.lcm(*(q.denominator for q in g))
    a = [q.numerator * (D // q.denominator) for q in g]
    f: list[int] = []
    for lam in range(1, N + 1):
        val = m * lam * a[lam]
        for u in range(1, lam):
            val -= a[u] * f[lam - u - 1]
        n, rem = divmod(val, D)
        if rem:
            raise NonIntegralCount(f"f_{lam} = {Fraction(val, D)} is not an integer")
        if n < 0 or (mu >= 1 and n == 0):
            raise NonPositiveCount(f"f_{lam} = {n} with free rank {mu}")
        f.append(n)
    return f


def theta_coeffs(gog: GraphOfGroups, N: int | None = None) -> tuple[int, ...]:
    """Integer ODE coefficients theta_0..theta_mu from the type data.

    Reads only the net orders (m, c) and mu; m is not factorized, since
    zeta_{gcd(m,k)} = sum_{d | gcd(m,k)} c_d is built by adding each c_d
    with d | m at the multiples k of d.

    theta_u = (1/u!) * sum_{j=0}^{u} (-1)^(u-j) * C(u,j) * m * (j+1)
              * prod_{k=1}^{m} (j*m + k)^zeta_{gcd(m,k)}.

    That is theta_u = Delta^u T(0) / u!, Newton's forward coefficient of
    T(x) = m(x+1) * prod_k (m x + k)^zeta_{gcd(m,k)}, so theta_u depends on
    T(0..u) alone. Given N, only theta_0..theta_{min(N-1, mu)} are built,
    from T(0..min(N-1, mu)); they equal that prefix of the full tuple.
    ode_check(gog, theta, N) reads no more than these N. N < 1 raises
    ValueError.

    Since m*(j+1) = j*m + m, the prefactor is one more power of the k = m
    factor. For genuine data that lifts the lone negative exponent
    (zeta_m = -1 on a tree) to 0, so every exponent is >= 0 and T lies in
    Z[x]. An integer polynomial has integer coefficients in the
    falling-factorial basis x(x-1)...(x-u+1), and those are exactly the
    theta_u, so each theta_u is an integer. An exponent still negative
    means corrupted orders: T(j) becomes a rational, and a theta_u that
    is not an integer raises NonIntegralTheta.
    """
    if N is not None and N < 1:
        raise ValueError(f"theta_coeffs requires N >= 1, got {N}")
    m, net = _net_orders(gog)
    mu = _rank(m, net)
    top = mu if N is None else min(N - 1, mu)
    # exps[k-1] = zeta_{gcd(m,k)}: c_d, for d | m, is added at each multiple k of d
    exps = [0] * m
    for d, c in net.items():
        if m % d == 0:
            exps[d - 1 :: d] = [e + c for e in exps[d - 1 :: d]]
    exps[-1] += 1
    up = [(k, e) for k, e in enumerate(exps, 1) if e > 0]
    down = [(k, -e) for k, e in enumerate(exps, 1) if e < 0]

    def term(j: int) -> int | Fraction:
        num = math.prod((j * m + k) ** e for k, e in up)
        if not down:
            return num
        return Fraction(num, math.prod((j * m + k) ** e for k, e in down))

    # the alternating binomial sum for theta_u is the u-th forward
    # difference of the term sequence at 0, divided by u!
    work = [term(j) for j in range(top + 1)]
    theta: list[int] = []
    factorial = 1
    for u in range(top + 1):
        if u:
            factorial *= u
            work = [b - a for a, b in zip(work, work[1:])]
        val, rem = divmod(work[0], factorial)
        if rem:
            raise NonIntegralTheta(
                f"theta_{u} = {Fraction(work[0], factorial)} is not an integer"
            )
        theta.append(int(val))
    return tuple(theta)


def ode_check(gog: GraphOfGroups, theta: tuple[int, ...], N: int) -> bool:
    """Check that the term ratios of g satisfy the recurrence of the ODE.

    With G(z) = sum g_l z^l, the relation

        theta_0 G + (theta_1 z - m) G' + sum_{u=2}^{d} theta_u z^u G^(u) = 0

    is read off coefficient-wise: z^u G^(u) shifts nothing and multiplies
    g_l by the falling factorial l(l-1)...(l-u+1), while -m G' contributes
    -m(l+1) g_{l+1}. Hence for every l,

        sum_{u=0}^{d} theta_u * l(l-1)...(l-u+1) * g_l = m (l+1) g_{l+1},

    with the empty product (u = 0) equal to 1. Every g_l is nonzero, so
    dividing by g_l states the same as P(l) = m (l+1) p_{l+1} / q_{l+1}, with
    P(l) the sum on the left and p/q the term ratio of g_series; True iff
    P(l) * q_{l+1} == m (l+1) p_{l+1} for l = 0..N-1, in integers, and no g
    is built. The falling factorial vanishes for u > l, so only
    theta_0..theta_{N-1} are read; any further coefficients are ignored.
    """
    m, net = _net_orders(gog)
    for lam, (p, q) in enumerate(_g_ratios(m, net, N)):
        total = 0
        falling = 1
        for u, coeff in enumerate(theta):
            if u > 0:
                falling *= lam - (u - 1)
            if falling == 0:
                break
            total += coeff * falling
        if total * q != m * (lam + 1) * p:
            return False
    return True


# f_1 (from m and |S|) and c_l * m (from m and l) of each rank-2 recurrence
# family; only family iii reads |S|
_RANK2_RECURRENCES = {
    "i": (lambda m, s: m * m // 2, lambda m, lam: (2 * lam + 3) * m // 2),
    "ii": (lambda m, s: m * m, lambda m, lam: (lam + 2) * m),
    "iii": (lambda m, s: (m - s) * s, lambda m, lam: (lam + 1) * m),
    "iv": (lambda m, s: m * m // 2, lambda m, lam: (2 * lam + 3) * m // 2),
    "v": (lambda m, s: (m // 2) ** 2, lambda m, lam: (lam + 1) * m),
}


def _rank2_inputs(class_label: str, params: dict[str, int]) -> tuple[int, int | None]:
    if class_label not in _RANK2_RECURRENCES:
        raise UnknownClass(class_label)
    if "m" not in params:
        raise MissingParam("m")
    m = params["m"]
    s = None
    if class_label == "iii":
        if "S" not in params:
            raise MissingParam("S")
        s = params["S"]
    return m, s


def f_series_rank2(class_label: str, params: dict[str, int], N: int) -> list[int]:
    """f_1..f_N for a rank-2 class, by its specialized recurrence.

    f_{l+1} = c_l * m * f_l + sum_{u=1}^{l-1} f_u * f_{l-u}, where c_l is
    (2l+3)/2 for classes i and iv, l+2 for class ii, and l+1 for classes
    iii and v. Initial values: m^2/2 (i, iv), m^2 (ii), (m-|S|)*|S| (iii),
    (m/2)^2 (v). Must agree with the generic convolution on every datum of
    the class.
    """
    m, s = _rank2_inputs(class_label, params)
    if class_label in ("i", "iv", "v") and m % 2 != 0:
        raise MissingParam(f"class {class_label} requires even m, got {m}")
    first, step = _RANK2_RECURRENCES[class_label]

    f = [first(m, s)]
    for lam in range(1, N):
        nxt = step(m, lam) * f[lam - 1]
        for u in range(1, lam):
            nxt += f[u - 1] * f[lam - u - 1]
        f.append(nxt)
    return f[:N]


# the type (m, c) of C2*C2*C2: three order-2 vertices joined by two
# order-1 edges, and so of every presentation of that group
_TRIPLE_C2_TYPE = (2, {1: 2, 2: -3})


def growth_check(gog: GraphOfGroups, N: int) -> bool:
    """Check f_{l+1} - f_l >= m * (l+1)! for l = 1..N on a rank-2 datum.

    f depends on the datum only through its type (m, c). On the type of
    C2*C2*C2, in any presentation, the bound genuinely fails at l = 1, so
    there the check starts at l = 2.
    """
    m, net = _net_orders(gog)
    if (mu := _rank(m, net)) != 2:
        raise WrongRank(f"free rank {mu} != 2")
    start = 2 if (m, net) == _TRIPLE_C2_TYPE else 1
    f = f_series(gog, N + 1)
    return all(
        f[lam] - f[lam - 1] >= m * math.factorial(lam + 1)
        for lam in range(start, N + 1)
    )

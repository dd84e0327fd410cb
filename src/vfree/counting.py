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

derived from the orders alone and multiplied once, on bare ints, by _g. Its
generating function G(z) satisfies an order-mu linear ODE with integer
coefficients theta_0..theta_mu, built from the type's terms T(j) grouped
by gcd(m, k). ode_check tests the ratio above, grouped by multiples of d
and never read by theta_coeffs, against them, so checks g without building
it. Each side memoises its products of m, built once per m of a walk.
All arithmetic is exact; g_l is a Fraction and f_l an arbitrary-precision
integer. Each public kernel derives the type (m, c) once, by
``invariants._net_orders``, and mu from it by ``invariants._rank``; the
kernels under them (_g, _f, _theta, _ode) take the type.

f is solved on a rescaled series. Let p_l/q_l be the reduced term ratios
and K the gcd of the p_l (K = 1 when N = 0). A prime of K divides every
p_l, so it divides no q_l. The convolution is invariant under z -> z/K:
with g^_u = g_u / K^u and f^_l = f_l / K^l,

    sum_{u=0}^{l-1} g^_u * f^_{l-u} = m * l * g^_l,

so f^ solves the same recurrence against g^, the running product of the
ratios p_l / (q_l * K), whose numerators are smaller by a factor K per
term. With D the lcm of the denominators of g^_0..g^_N and a_l = g^_l * D,
an int, step l computes

    D * f^_l = m * l * a_l - sum_{u=1}^{l-1} a_u * f^_{l-u}

and divides by D, so the quadratic loop builds no Fraction and takes no
gcd; then f_l = f^_l * K^l.

The division is exact. Suppose f_1..f_{l-1}, and so f^_1..f^_{l-1}, are
integers. D * f^_l is then an integer by the recurrence, and D, whose
primes are among those of the q_u, is coprime to K. If f_l is an integer, the
denominator of f^_l divides both K^l and D, so f^_l is an integer; if f^_l
is, so is f_l. Every f_l of a genuine datum is an integer; a remainder
means corrupted order data, at the same l where the unscaled convolution
first fails, and raises NonIntegralCount rather than being truncated into
a wrong count. Both NonIntegralCount and NonPositiveCount report f_l, not
f^_l.

On free rank mu <= 2 the convolution stops at l = 3 and f goes on by a
recurrence on f alone. The convolution says F(z) = sum_{l>=1} f_l z^l =
m z G'/G, and G solves the ODE of theta_coeffs, theta_0 G + (theta_1 z - m)
G' + theta_2 z^2 G'' = 0 with theta_u = 0 for u > mu. With y = G'/G, so
that G''/G = y' + y^2, the ODE is a Riccati equation for y = F/(m z),
whose z^l coefficient reads

    m f_{l+1} = (theta_1 + theta_2 (l-1)) f_l
                + (theta_2 / m) sum_{u=1}^{l-1} f_u f_{l-u},   l >= 1,

so a step takes ceil((l-1)/2) products of f-sized ints and one exact
division by m, against l products and a g of D-scaled ints for the
convolution. Only theta_1 and theta_2 are read, and neither
needs T(j), which takes m factors: theta_2 is T's leading coefficient,
which is m^mu, since T(x) = m(x+1) * prod_k (m x + k)^zeta_{gcd(m,k)} has
degree 1 + sum_k zeta_{gcd(m,k)} = 1 - m*chi = mu; so theta_2 = m^2 on
rank 2 and 0 below it. theta_1 is read off the l = 1 step, m f_2 =
theta_1 f_1 (f_1 = theta_0 > 0 on rank >= 1; theta_1 = 0 on rank 0), and
a theta_1 that is not an integer raises NonIntegralTheta. On rank 1
(theta_1 = m) f stays constant, and on rank 0 it is 0 after f_1. Every
term of the step is nonnegative, so f_{l+1} > 0 follows from f_l > 0 and
needs no check; a remainder still raises NonIntegralCount.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate, compress, repeat

from .errors import (
    MissingParam,
    NonIntegralCount,
    NonIntegralTheta,
    NonPositiveCount,
    TooLarge,
    UnknownClass,
    WrongRank,
)
from .gog import GraphOfGroups
from .invariants import _digits, _factorize, _net_orders, _rank, divisors

# _theta's caps on m, and on its work (top + 1) * mu * (mu + top + 1): a term
# is a product of mu factors and top forward differences of it follow
_MAX_THETA_M = 1 << 20
_MAX_THETA_WORK = 1 << 31


@lru_cache(maxsize=16)
def _ratio_blocks(m: int, d: int, N: int) -> tuple[int, ...]:
    """g's order-d ratio factors d^(m/d) * (l*m/d)! / ((l-1)*m/d)!, l = 1..N."""
    q = m // d
    power = d**q
    return tuple(power * math.perm(lam * q, q) for lam in range(1, N + 1))


def _g_ratios(m: int, net: dict[int, int], N: int) -> list[tuple[int, int]]:
    """(p_l, q_l) with g_l / g_{l-1} = p_l / q_l for l = 1..N, unreduced: the
    one statement of the term ratio. It reads the orders, never theta, and
    not the orientation, since edge orders agree on {e, bar(e)}."""
    num = den = [1] * N  # rebound below, never changed in place
    for d, c in net.items():
        powers = map(pow, _ratio_blocks(m, d, N), repeat(abs(c)))
        if c > 0:
            num = list(map(operator.mul, num, powers))
        else:
            den = list(map(operator.mul, den, powers))
    return list(zip(num, den))


def g_series(gog: GraphOfGroups, N: int) -> list[Fraction]:
    """g_0..g_N, exactly, from the unscaled numerators of _g's running
    product."""
    from fractions import Fraction

    _, terms = _g(*_net_orders(gog), N)
    return [Fraction(U, Q) for _, Q, U in terms]


def f_series(gog: GraphOfGroups, N: int) -> list[int]:
    """f_1..f_N, solved from the convolution against g_0..g_N rescaled by K,
    and past f_3 on free rank <= 2 from the Riccati recurrence (see the
    module docstring); g itself is not built.

    Each value must come out a nonnegative integer, positive whenever the
    free rank is at least 1; a violation signals corrupted order data.
    (A rank-0 datum presents a finite group, where f_1 = 1 and every later
    count is 0.)
    """
    return _f(*_net_orders(gog), N)


def _not_integral(error: type[Exception], name: str, num, den: int) -> Exception:
    """error("name = num/den is not an integer"), num/den in lowest terms."""
    from fractions import Fraction  # only error messages need it here

    return error(f"{name} = {Fraction(num, den)} is not an integer")


def _scale(ratios: list[tuple[int, int]]) -> int:
    """K of the reduced term ratios p_l/q_l: the gcd of the p_l, coprime to
    every q_l (see the module docstring). gcd() of no numerators, or of
    zeros only, is 0; K is 1 there."""
    return math.gcd(*(p for p, _ in ratios)) or 1


def _g(
    m: int, net: dict[int, int], N: int
) -> tuple[int, list[tuple[int, int, int]]]:
    """(K, [(P_u, Q_u, U_u) for u = 0..N]): K = _scale of the reduced term
    ratios, g^_u = g_u / K^u = P_u / Q_u and g_u = U_u / Q_u, both in lowest
    terms (K is coprime to Q_u), from the one running product of the
    ratios. Each step multiplies P by (p/K)/q, whose terms are coprime,
    cross-reduced as Fraction does but on bare ints, and U by p/q with the
    same two gcds, since U_u = P_u * K^u."""
    ratios = []
    for p, q in _g_ratios(m, net, N):
        d = math.gcd(p, q)
        ratios.append((p // d, q // d))
    K = _scale(ratios)
    P = Q = U = 1
    terms = [(P, Q, U)]
    for p, q in ratios:
        r = p // K
        d1, d2 = math.gcd(P, q), math.gcd(r, Q)
        P, Q = (P // d1) * (r // d2), (Q // d2) * (q // d1)
        U = (U // d1) * (p // d2)
        terms.append((P, Q, U))
    return K, terms


def _f(m: int, net: dict[int, int], N: int) -> list[int]:
    """f_1..f_N of the type (m, c): the D-scaled convolution on _g's g^,
    then f_l = f^_l * K^l; on free rank <= 2 the convolution stops at f_3
    and _riccati goes on from there."""
    mu = _rank(m, net)
    top = min(N, 3) if mu <= 2 else N
    K, rescaled = _g(m, net, top)
    D = math.lcm(*(Q for _, Q, _ in rescaled))
    a = [P * (D // Q) for P, Q, _ in rescaled]
    f: list[int] = []  # f^_1..f^_top, turned into f_1..f_top in place below
    for lam in range(1, top + 1):
        val = m * lam * a[lam]
        for u in range(1, lam):
            val -= a[u] * f[lam - u - 1]
        n, rem = divmod(val, D)
        if rem:
            raise _not_integral(NonIntegralCount, f"f_{lam}", val * K**lam, D)
        if n < 0 or (mu >= 1 and n == 0):
            raise NonPositiveCount(f"f_{lam} = {n * K**lam} with free rank {mu}")
        f.append(n)
    scale = 1
    for i in range(top):
        scale *= K
        f[i] *= scale
    if top < N:
        _riccati(m, mu, f, N)
    return f


def _riccati(m: int, mu: int, f: list[int], N: int) -> None:
    """Extend f_1..f_3 of a type of free rank mu <= 2 to f_1..f_N in place,
    by the Riccati recurrence of the module docstring."""
    theta2 = m * m if mu == 2 else 0
    theta1, rem = divmod(m * f[1], f[0]) if mu else (0, 0)
    if rem:
        raise _not_integral(NonIntegralTheta, "theta_1", m * f[1], f[0])
    for lam in range(len(f), N):
        # sum_{u=1}^{lam-1} f_u f_{lam-u}: each product u < lam-u once,
        # doubled, and the square at u = lam/2
        h = (lam - 1) // 2
        conv = 2 * sum(map(operator.mul, f[:h], f[lam - 2 : lam - 2 - h : -1]))
        if lam % 2 == 0:
            conv += f[lam // 2 - 1] ** 2
        val = (theta1 + theta2 * (lam - 1)) * f[-1] + theta2 // m * conv
        n, rem = divmod(val, m)
        if rem:
            raise _not_integral(NonIntegralCount, f"f_{lam + 1}", val, m)
        f.append(n)


def theta_coeffs(gog: GraphOfGroups, N: int | None = None) -> tuple[int, ...]:
    """Integer ODE coefficients theta_0..theta_mu from the type data.

    Reads only the net orders (m, c), mu, and m's divisors and primes, by
    invariants._factorize on an m of at most 2^20.

    theta_u = (1/u!) * sum_{j=0}^{u} (-1)^(u-j) * C(u,j) * m * (j+1)
              * prod_{k=1}^{m} (j*m + k)^zeta_{gcd(m,k)}.

    That is theta_u = Delta^u T(0) / u!, Newton's forward coefficient of
    T(x) = m(x+1) * prod_k (m x + k)^zeta_{gcd(m,k)}, so theta_u depends on
    T(0..u) alone. Given N, only theta_0..theta_{min(N-1, mu)} are built,
    from T(0..min(N-1, mu)); they equal that prefix of the full tuple.
    ode_check(gog, theta, N) reads no more than these N. N < 1 raises
    ValueError; m over _MAX_THETA_M, or (top + 1) * mu * (mu + top + 1)
    over _MAX_THETA_WORK (top = min(N-1, mu)), raises TooLarge. T(j) is
    formed class by class, as the product over g | m of B_g(j)^zeta'_g:
    B_g(j) = prod (j*m + k) over the k with gcd(m, k) = g, that is k = g*i
    with i coprime to m/g (sieved by m's primes), and zeta'_g = zeta_g +
    [g = m]. The blocks depend on m alone; those of the last m are kept,
    so a walk over types in ascending m builds them once per m.

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
    return _theta(*_net_orders(gog), N)


@lru_cache(maxsize=1)
def _classes(m: int) -> tuple:
    """m's divisors and primes, and _theta's memo g -> [B_g(0), B_g(1), ...]."""
    return divisors(m), list(_factorize(m)), {}


def _theta(m: int, net: dict[int, int], N: int | None) -> tuple[int, ...]:
    """theta_coeffs on the type (m, c)."""
    if m > _MAX_THETA_M:  # before any class is listed
        raise TooLarge(f"a {_digits(m)}-digit m is over theta's cap of {_MAX_THETA_M}")
    mu = _rank(m, net)
    top = mu if N is None else min(N - 1, mu)
    if (cost := (top + 1) * mu * (mu + top + 1)) > _MAX_THETA_WORK:  # before any block
        raise TooLarge(f"theta's work {cost} is over its cap of {_MAX_THETA_WORK}")
    divs, primes, memo = _classes(m)
    # T(0..top): the product of B_g(j)^e over the classes g, e = zeta'_g
    work = [1] * (top + 1)
    for g in divs:
        if e := sum(c for d, c in net.items() if g % d == 0) + (g == m):
            blocks = memo.setdefault(g, [])
            if len(blocks) <= top:
                coprime = bytearray(b"\1") * (n := m // g)
                for p in [p for p in primes if n % p == 0]:
                    coprime[p - 1 :: p] = bytes(n // p)
                ks = list(compress(range(g, m + 1, g), coprime))
                for j in range(len(blocks), top + 1):
                    blocks.append(math.prod(map((j * m).__add__, ks)))
            powers = map(pow, blocks, repeat(abs(e)))
            if e > 0:
                work = list(map(operator.mul, work, powers))
            else:  # corrupt orders only: T(j) is a rational
                from fractions import Fraction

                work = list(map(Fraction, work, powers))
    # the alternating binomial sum for theta_u is the u-th forward
    # difference of the term sequence at 0, divided by u!
    theta: list[int] = []
    factorial = 1
    for u in range(top + 1):
        if u:
            factorial *= u
            work = list(map(operator.sub, work[1:], work))
        val, rem = divmod(work[0], factorial)
        if rem:
            raise _not_integral(NonIntegralTheta, f"theta_{u}", work[0], factorial)
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
    P(l) the sum on the left and p/q the term ratio (_g_ratios); True iff
    P(l) * q_{l+1} == m (l+1) p_{l+1} for l = 0..N-1, in integers, and no g
    is built. The falling factorial vanishes for u > l, so only
    theta_0..theta_{N-1} are read; any further coefficients are ignored.

    P(0..N-1) is built by Newton's forward differences rather than term by
    term: the u-th difference of P is R_u(l) = sum_{v>=u} theta_v
    v!/(v-u)! (l)_{v-u}, so R_u(0) = u! theta_u and

        R_u(l) = u! theta_u + sum_{i<l} R_{u+1}(i),   P = R_0,

    one prefix sum per u, from the last coefficient read down to u = 0.
    """
    return _ode(*_net_orders(gog), theta, N)


def _ode(m: int, net: dict[int, int], theta: tuple[int, ...], N: int) -> bool:
    """ode_check on the type (m, c)."""
    # R_u is needed at l = 0..N-1-u only, and R_u = 0 for u >= len(theta)
    top = min(len(theta), N)
    P = [0] * (N - top)
    for u in reversed(range(top)):
        P = list(accumulate(P, initial=math.factorial(u) * theta[u]))
    for lam, (total, (p, q)) in enumerate(zip(P, _g_ratios(m, net, N))):
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
    (m/2)^2 (v). Must agree with f_series on every datum of the class.

    This is the Riccati recurrence of f_series divided by m, since
    c_l = theta_1 / m^2 + l - 1, with theta_1 / m^2 = c_1 (5/2, 3, 2, 5/2,
    2 for i-v) taken from the class and f_1 from its params. f_series reads
    theta_1 off its own f_2 and f_1 off the orders, so this is an
    independent check on that path. (perfbench/make_expected.py imports
    it, so it stays public.)
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
    f = _f(m, net, N + 1)
    return all(
        f[lam] - f[lam - 1] >= m * math.factorial(lam + 1)
        for lam in range(start, N + 1)
    )

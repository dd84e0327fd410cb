"""Shared constructors and strategies for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from vfree import build_gog, counting, oracle
from vfree.classify import ClassificationReport, Label
from vfree.counting import (
    _g_ratios,
    _rank2_inputs,
    f_series,
    f_series_rank2,
    g_series,
)
from vfree.errors import (
    MissingParam,
    NonIntegralCount,
    NonIntegralTheta,
    NonPositiveCount,
    UnknownClass,
    WrongRank,
)
from vfree.gog import GraphOfGroups
from vfree.graph import SpanningTree, spanning_tree
from vfree.invariants import (
    TypeVector,
    _chi,
    _factorize,
    _net_orders,
    _rank,
    divisors,
    free_rank,
    m_gamma,
    type_vector,
)
from vfree.normalize import NormalizedGog, contract_edge, find_trivial_edge
from vfree.oracle import random_gog


# --- named data --------------------------------------------------------------

def dihedral():
    """C2 * C2: segment with vertex orders 2, 2 and trivial edge group."""
    return build_gog({"a": 2, "b": 2}, [("s", "a", "b", 1)])


def free_bouquet(r: int):
    """Free group of rank r: one trivial vertex carrying r trivial loops."""
    return build_gog(
        {"v": 1}, [(f"l{i}", "v", "v", 1) for i in range(1, r + 1)]
    )


def c2_star_c3():
    return build_gog({"a": 2, "b": 3}, [("s", "a", "b", 1)])


def triple_c2():
    """C2 * C2 * C2 as a path of three order-2 vertices."""
    return build_gog(
        {"a": 2, "b": 2, "c": 2}, [("e", "a", "b", 1), ("f", "b", "c", 1)]
    )


def hnn_loop(n: int, s: int):
    """Single vertex of order n with one loop of order s."""
    return build_gog({"v": n}, [("e", "v", "v", s)])


def segment(a: int, s: int, b: int):
    return build_gog({"a": a, "b": b}, [("s", "a", "b", s)])


def segment_with_loop(a: int, s1: int, b: int, s2: int):
    """Segment a--b with a loop of order s2 at the b side."""
    return build_gog(
        {"a": a, "b": b}, [("e1", "a", "b", s1), ("e2", "b", "b", s2)]
    )


def double_edge(a: int, s1: int, s2: int, b: int):
    return build_gog(
        {"a": a, "b": b}, [("e1", "a", "b", s1), ("e2", "a", "b", s2)]
    )


# --- invariant bundles --------------------------------------------------------

def invariant_signature(gog: GraphOfGroups, depth: int = 0, with_g: bool = False):
    """The order-determined invariants, optionally with a counting prefix."""
    tv = type_vector(gog)
    sig = (m_gamma(gog), _chi(_net_orders(gog)[1]), tv.m,
           tuple(sorted(tv.zeta.items())), free_rank(gog))
    if depth:
        sig = sig + (tuple(f_series(gog, depth)),)
        if with_g:
            sig = sig + (tuple(g_series(gog, depth)),)
    return sig


# --- direct invariant formulas ---------------------------------------------------

def euler_char_direct(gog: GraphOfGroups) -> Fraction:
    """sum(1/|G_v|) - sum(1/|G_e|), one Fraction per vertex and geometric
    edge. The reference for ``_chi``, which sums over distinct orders."""
    chi = Fraction(0)
    for v in gog.graph.vertices:
        chi += Fraction(1, gog.vertex_order[v])
    for e in gog.graph.orientation_reps():
        chi -= Fraction(1, gog.edge_order[e])
    return chi


def structural_vii_direct(ngog: NormalizedGog) -> bool:
    """Criterion (vii) read off the graph: large unless the normalized datum
    is a bare vertex, one loop whose edge group is the whole vertex group,
    or one edge amalgamating two index-2 subgroups. The reference for
    ``largeness_report``, which reads the rank <= 1 rows of ``_PATTERNS``."""
    gog = ngog.gog
    g = gog.graph
    geom = g.orientation_reps()
    if len(geom) != 1:
        return len(geom) >= 2
    e = geom[0]
    s = gog.edge_order[e]
    a = gog.vertex_order[g.origin[e]] // s, gog.vertex_order[g.terminus[e]] // s
    return a[0] >= 2 if g.is_loop(e) else a != (2, 2)


def walk_direct(ngog: NormalizedGog) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(witness, its edges) by walking the tree path edge by edge, from the
    leaf that ``classify._walk`` documents. The reference for ``_walk``,
    which reads the path off a breadth-first search from that leaf."""
    g = ngog.gog.graph
    ends = {e: (g.origin[e], g.terminus[e]) for e in g.orientation_reps()}
    path = {e: vw for e, vw in ends.items() if e in ngog.tree.tree_edges}
    rest = tuple(e for e in ends if e not in path)
    looped = {ends[e][0] for e in rest if g.is_loop(e)}
    degree = Counter(v for vw in path.values() for v in vw)
    starts = next(iter(path.values())) if len(path) == 1 else g.vertices
    v = next((u for u in starts if degree[u] == 1 and u not in looped), g.vertices[0])
    witness = [v]
    while path:
        e = next(e for e, vw in path.items() if v in vw)
        o, t = path.pop(e)
        v = t if v == o else o
        witness += (e, v)
    return (*witness, *rest), (*witness[1::2], *rest)


def totient(n: int) -> int:
    """Euler's totient of n >= 1, from its factorization."""
    return math.prod(p ** (k - 1) * (p - 1) for p, k in _factorize(n).items())


def euler_from_type(tv: TypeVector) -> Fraction:
    """chi = -(1/m) * sum over k|m of totient(m/k) * zeta_k: the Euler
    characteristic recovered from the type data alone."""
    total = sum(totient(tv.m // k) * z for k, z in tv.zeta.items())
    return Fraction(-total, tv.m)


def type_vector_direct(gog: GraphOfGroups) -> TypeVector:
    """zeta_k = #{geometric edges with |G_e| | k} - #{vertices with |G_v| | k},
    counted afresh for each divisor k of m. The reference for
    ``type_vector``, which reads the net order multiplicities."""
    m = m_gamma(gog)
    edge_orders = [gog.edge_order[e] for e in gog.graph.orientation_reps()]
    vertex_orders = list(gog.vertex_order.values())
    zeta = {}
    for k in divisors(m):
        zeta[k] = sum(1 for s in edge_orders if k % s == 0) - sum(
            1 for n in vertex_orders if k % n == 0
        )
    return TypeVector(m=m, zeta=zeta)


def assert_invariants_direct(gog: GraphOfGroups) -> None:
    """chi, type_vector and free_rank equal the direct formulas."""
    chi = euler_char_direct(gog)
    assert _chi(_net_orders(gog)[1]) == chi
    assert type_vector(gog) == type_vector_direct(gog)
    assert free_rank(gog) == 1 - m_gamma(gog) * chi


# --- reference closed form -------------------------------------------------------

def g_closed_form(gog: GraphOfGroups, N: int) -> list[tuple[int, int]]:
    """g_0..g_N from the closed product form, each term rebuilt from scratch:

    g_l = prod over geometric edges e of (l*m/|G_e|)! * |G_e|^(l*m/|G_e|)
        / prod over vertices v       of (l*m/|G_v|)! * |G_v|^(l*m/|G_v|).

    Each term is the unreduced pair (numerator, denominator) above; reducing
    the huge pairs would dominate the cost of the comparison. The oracle
    for the term-ratio recurrence of ``g_series``.
    """
    m = m_gamma(gog)
    edge_orders = [gog.edge_order[e] for e in gog.graph.orientation_reps()]
    vertex_orders = list(gog.vertex_order.values())
    out = []
    for lam in range(N + 1):
        num = 1
        for s in edge_orders:
            k = lam * m // s
            num *= math.factorial(k) * s**k
        den = 1
        for n in vertex_orders:
            k = lam * m // n
            den *= math.factorial(k) * n**k
        out.append((num, den))
    return out


def theta_levels(m: int, net: dict[int, int], N: int | None) -> tuple[int, ...]:
    """theta_0..theta_top of the type (m, c) with T(j) formed level by level:
    zeta'_k = zeta_{gcd(m,k)} (plus 1 at k = m) listed for k = 1..m, the k
    sharing an exponent e multiplied first, as prod_k (j*m + k), and raised
    to e once. The reference for ``counting._theta``, which forms T(j) from
    memoised gcd-class blocks; this one lists every k of every call and
    memoises nothing. It raises ``_theta``'s NonIntegralTheta message and
    has neither of its caps."""
    mu = _rank(m, net)
    top = mu if N is None else min(N - 1, mu)
    exps = [0] * m
    for d, c in net.items():
        if m % d == 0:
            exps[d - 1 :: d] = [e + c for e in exps[d - 1 :: d]]
    exps[-1] += 1
    levels: dict[int, list[int]] = {}
    for k, e in enumerate(exps, 1):
        if e:
            levels.setdefault(e, []).append(k)
    work = []
    for j in range(top + 1):
        num = den = 1
        for e, ks in levels.items():
            block = math.prod(map((j * m).__add__, ks))
            if e > 0:
                num *= block**e
            else:
                den *= block**-e
        work.append(num if den == 1 else Fraction(num, den))
    theta = []
    factorial = 1
    for u in range(top + 1):
        if u:
            factorial *= u
            work = [b - a for a, b in zip(work, work[1:])]
        val, rem = divmod(work[0], factorial)
        if rem:
            frac = Fraction(work[0], factorial)
            raise NonIntegralTheta(f"theta_{u} = {frac} is not an integer")
        theta.append(int(val))
    return tuple(theta)


def g_ratios_direct(m: int, net: dict[int, int], N: int) -> list[tuple[int, int]]:
    """The unreduced term ratios (p_l, q_l), l = 1..N, each order's factor
    d^(m/d) * (l*m/d)! / ((l-1)*m/d)! rebuilt for every l and call. The
    reference for ``counting._g_ratios``, which reads memoised factors."""
    out = []
    for lam in range(1, N + 1):
        num = den = 1
        for d, c in net.items():
            q = m // d
            block = d**q * math.perm(lam * q, q)
            if c > 0:
                num *= block**c
            else:
                den *= block**-c
        out.append((num, den))
    return out


def same_values(g: list[Fraction], pairs: list[tuple[int, int]]) -> bool:
    """True iff g[l] == num/den for each (num, den) in pairs, in integers."""
    return len(g) == len(pairs) and all(
        x.numerator * den == num * x.denominator for x, (num, den) in zip(g, pairs)
    )


def ode_holds_on_g(g: list[Fraction], theta: tuple[int, ...], m: int) -> bool:
    """The ODE recurrence checked on g itself, cross-multiplied in ints:

        sum_u theta_u * l(l-1)...(l-u+1) * g_l = m (l+1) g_{l+1}

    for l = 0..len(g)-2. The reference for ``ode_check``, which checks the
    same identity divided by g_l on the term ratios and builds no g.
    """
    for lam in range(len(g) - 1):
        total = 0
        falling = 1
        for u, coeff in enumerate(theta):
            if u > 0:
                falling *= lam - (u - 1)
            if falling == 0:
                break
            total += coeff * falling
        a, b = g[lam], g[lam + 1]
        lhs = total * a.numerator * b.denominator
        if lhs != m * (lam + 1) * b.numerator * a.denominator:
            return False
    return True


def ode_check_falling(gog: GraphOfGroups, theta: tuple[int, ...], N: int) -> bool:
    """``ode_check`` with P(l) = sum_u theta_u * l(l-1)...(l-u+1) summed term
    by term, the falling factorial built one factor at a time. The
    reference for ``ode_check``, which builds P(0..N-1) by prefix sums."""
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


def orientation_winners_by_product(tree: SpanningTree, v0: str) -> list[frozenset]:
    """Every orientation of the tree edges, by ``itertools.product``, whose
    termini are exactly the vertices other than v0. The reference for
    ``orientation_uniqueness``, which prunes its search at a repeated
    terminus."""
    g = tree.graph
    pairs = [(e, g.bar(e)) for e in g.orientation_reps() if e in tree.tree_edges]
    others = set(g.vertices) - {v0}
    return [
        frozenset(picks)
        for picks in itertools.product(*pairs)
        # |picks| = |V| - 1 = |others|, so onto others means a bijection
        if {g.terminus[e] for e in picks} == others
    ]


def orientation_uniqueness_by_product(tree: SpanningTree, v0: str) -> bool:
    """The verdict of ``orientation_uniqueness`` from the product search."""
    winners = orientation_winners_by_product(tree, v0)
    return len(winners) == 1 and winners[0] == oracle.orient_from_root(tree, v0)


def f_series_fractions(gog: GraphOfGroups, N: int) -> list[int]:
    """f_1..f_N by the convolution against g_0..g_N in Fractions.

    The reference for the integer kernel of ``f_series``: g is its own
    running product of Fractions over the term ratios, and every
    multiply-subtract here is a reduced Fraction, so it shares neither
    ``counting._g``'s int pairs, the common denominator nor the scaled
    numerators. The ratios are looked up on the module, so a test that
    rigs ``counting._g_ratios`` rigs this reference too.
    """
    g = [Fraction(1)]
    for p, q in counting._g_ratios(*_net_orders(gog), N):
        g.append(g[-1] * Fraction(p, q))
    m = m_gamma(gog)
    mu = free_rank(gog)
    f: list[int] = []
    for lam in range(1, N + 1):
        val = m * lam * g[lam]
        for u in range(1, lam):
            val -= g[u] * f[lam - u - 1]
        if val.denominator != 1:
            raise NonIntegralCount(f"f_{lam} = {val} is not an integer")
        n = int(val)
        if n < 0 or (mu >= 1 and n == 0):
            raise NonPositiveCount(f"f_{lam} = {n} with free rank {mu}")
        f.append(n)
    return f


# --- rank-2 parity and rank-1 class predictors ----------------------------------

def predicted_parity(class_label: str, params: dict[str, int], N: int) -> list[bool]:
    """Predicted parity of f_1..f_N for a rank-2 class.

    Classes iii (index pairs {2,3} and {2,4}) and v with odd amalgam order
    are odd exactly at l = 1, 3, 7, 15, ... (l + 1 a power of two); every
    other class is constant mod 2, with the constant read off f_1.
    """
    m, s = _rank2_inputs(class_label, params)

    alternating = False
    if class_label == "iii":
        if s < 1 or m % s != 0 or m // s not in (3, 4, 6):
            raise UnknownClass(f"class iii requires m/|S| in {{3, 4, 6}}, got m={m} S={s}")
        alternating = m // s in (4, 6) and s % 2 == 1
    elif class_label == "v":
        if m % 2 != 0:
            raise MissingParam(f"class v requires even m, got {m}")
        alternating = (m // 2) % 2 == 1

    if alternating:
        return [((lam + 1) & lam) == 0 for lam in range(1, N + 1)]
    f1_odd = f_series_rank2(class_label, params, 1)[0] % 2 == 1
    return [f1_odd] * N


def distinguish_rank1(
    a: tuple[ClassificationReport, GraphOfGroups],
    b: tuple[ClassificationReport, GraphOfGroups],
) -> bool:
    """True iff two rank-1 (report, datum) pairs name different classes.

    The classes are separated by the type data: the loop class has every
    zeta_k = 0, while the amalgam class has zeta_m = -1. Both facts are
    re-checked against each datum's type vector; a report whose label
    contradicts them raises AssertionError (explicitly, so -O keeps it).
    """
    if a[0].rank != 1 or b[0].rank != 1:
        raise WrongRank(f"ranks {a[0].rank}, {b[0].rank} are not both 1")
    for rep, gog in (a, b):
        tv = type_vector(gog)
        if rep.label is Label.R1_I and any(tv.zeta.values()):
            raise AssertionError(f"loop class with zeta {tv.zeta}")
        if rep.label is Label.R1_II and tv.zeta[tv.m] != -1:
            raise AssertionError(
                f"amalgam class with zeta_{tv.m} = {tv.zeta[tv.m]}"
            )
    return a[0].label is not b[0].label


# --- reference normalization ----------------------------------------------------

def normalize_by_steps(gog: GraphOfGroups):
    """(datum, tree, steps) of the one-step loop: build the spanning tree
    from the smallest vertex id, then repeatedly contract the smallest-id
    trivial tree half-edge, rebuilding the datum each time. The oracle
    for the one-pass ``normalize``."""
    tree = spanning_tree(gog.graph, gog.graph.vertices[0])
    steps = []
    while (e := find_trivial_edge(gog, tree)) is not None:
        gog, tree, step = contract_edge(gog, tree, e)
        steps.append(step)
    return gog, tree, steps


# --- contraction-order exploration ---------------------------------------------

def trivial_tree_half_edges(gog, tree):
    g = gog.graph
    return [
        e for e in sorted(tree.tree_edges)
        if gog.order(e) == gog.vertex_order[g.terminus[e]]
    ]


def terminal_data_all_orders(gog, tree, _cache=None):
    """Every datum reachable by exhausting trivial-edge contractions,
    branching over all choices at every step. Deduplicated by an
    id-independent structural key."""
    results = {}

    def key(d):
        g = d.graph
        vs = tuple(sorted(d.vertex_order.values()))
        es = tuple(
            sorted(
                (
                    d.edge_order[e],
                    tuple(sorted((d.vertex_order[g.origin[e]],
                                  d.vertex_order[g.terminus[e]]))),
                    g.origin[e] == g.terminus[e],
                )
                for e in g.orientation_reps()
            )
        )
        return vs, es

    def walk(d, t):
        trivial = trivial_tree_half_edges(d, t)
        if not trivial:
            results.setdefault(key(d), d)
            return
        for e in trivial:
            nd, nt, _ = contract_edge(d, t, e)
            walk(nd, nt)

    walk(gog, tree)
    return list(results.values())


# --- strategies -----------------------------------------------------------------

@st.composite
def small_gogs(draw, max_vertices: int = 4, max_base: int = 12,
               max_extra_edges: int = 2):
    """Valid connected data with small orders (lcm bounded by the base)."""
    base = draw(st.integers(1, max_base))
    divs = [d for d in range(1, base + 1) if base % d == 0]
    nv = draw(st.integers(1, max_vertices))
    vorders = {
        f"v{i}": draw(st.sampled_from(divs)) for i in range(1, nv + 1)
    }
    specs = []
    for i in range(2, nv + 1):
        u = f"v{draw(st.integers(1, i - 1))}"
        v = f"v{i}"
        g = math.gcd(vorders[u], vorders[v])
        s = draw(st.sampled_from([d for d in divs if g % d == 0]))
        specs.append((f"e{len(specs) + 1}", u, v, s))
    names = sorted(vorders)
    for _ in range(draw(st.integers(0, max_extra_edges))):
        u = draw(st.sampled_from(names))
        v = draw(st.sampled_from(names))
        g = math.gcd(vorders[u], vorders[v])
        s = draw(st.sampled_from([d for d in divs if g % d == 0]))
        specs.append((f"e{len(specs) + 1}", u, v, s))
    return build_gog(vorders, specs)


def seeded_random_data(seed: int, count: int, **kwargs):
    rng = random.Random(seed)
    return [random_gog(rng, **kwargs) for _ in range(count)]

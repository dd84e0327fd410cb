"""Property suites shared by `vfree verify` and the acceptance criteria.

Each suite is a generator fn(seed, bound) yielding (property, ok, detail),
one triple per property; `bound` sizes the suite (data, terms or index).
The checks re-derive each property from the counting series and the brute
force oracles; the ode suite tests g's term ratio, read off the orders,
against theta, built from T(j), and builds no g. theta, g and f depend
on a datum only through its type (m, c), so the ode and growth suites
walk the rows of their shape corpus, key each row by the type read off
its orders, check each type once on the counting kernels of the type,
and count each row by its type's verdict; they build no corpus datum.
The growth suite reads the rank off the type and checks rank-2 types
only, and it finds its one exception by comparing types with that of
C2*C2*C2, so no suite normalizes. They never call a predictor (the library's
`growth_check`, the tests' `predicted_parity`), so a check never
compares a helper with itself. Each suite imports the layers
it checks, so importing SUITES, which every CLI run does, stays cheap.
"""

from __future__ import annotations

import math
import random
from itertools import chain

from .gog import build_gog
from .graph import spanning_tree


def _bouquet(r: int):
    """The row (vertex_orders, edge_specs) of the free group of rank r."""
    return ({"v": 1}, [(e, "v", "v", 1) for e in "pqr"[:r]])


def _row_key(vertex_orders, edge_specs):
    """The type (m, c) of build_gog(vertex_orders, edge_specs), read off the
    orders without building it, as one flat tuple (m, d, c_d, ...),
    ascending in d. A flat tuple, not a nested one of (d, c_d) pairs,
    because the nested keys raised the peak RSS of `verify all`."""
    from .invariants import _net

    c = _net(vertex_orders.values(), [spec[3] for spec in edge_specs])
    return (math.lcm(*vertex_orders.values()), *chain.from_iterable(sorted(c.items())))


def _key_type(key):
    """The type (m, c) of a row key."""
    return key[0], dict(zip(key[1::2], key[2::2]))


def _per_type(rows, check):
    """(rows seen, rows whose type failed), in one walk over rows
    (vertex_orders, edge_specs). check(m, c) runs once per type key, on the
    type alone, so no datum is built; a row whose type's verdict is None is
    not seen."""
    verdicts: dict = {}
    seen = bad = 0
    for row in rows:
        key = _row_key(*row)
        if key not in verdicts:
            verdicts[key] = check(*_key_type(key))
        seen += verdicts[key] is not None
        bad += verdicts[key] is False
    return seen, bad


def suite_convolution(seed: int, bound: int):
    from . import counting, invariants, oracle

    rng = random.Random(seed)
    n_data = bound
    depth = 12
    bad = 0
    for _ in range(n_data):
        gog = oracle.random_gog(rng)
        m, net = invariants._net_orders(gog)
        _, terms = counting._g(m, net, depth)
        f = counting.f_series(gog, depth)
        # the identity times D > 0, in ints: a_u = g_u * D = U_u * D / Q_u
        D = math.lcm(*(Q for _, Q, _ in terms))
        a = [U * (D // Q) for _, Q, U in terms]
        for lam in range(1, depth + 1):
            lhs = sum(a[u] * f[lam - u - 1] for u in range(lam))
            if lhs != m * lam * a[lam]:
                bad += 1
                break
    yield (
        f"convolution-identity ({n_data} random data, depth {depth}, seed {seed})",
        bad == 0,
        f"{bad} failures",
    )


def suite_ode(seed: int, bound: int):
    from . import counting, oracle

    dihedral = ({"a": 2, "b": 2}, [("s", "a", "b", 1)])
    terms = 30

    def check(m, c):
        # _ode over `terms` ratios reads theta_0..theta_{terms-1} only
        return counting._ode(m, c, counting._theta(m, c, terms), terms)

    rows = chain(oracle._shape_data(min(bound, 8)), (dihedral, _bouquet(2)))
    seen, bad = _per_type(rows, check)
    yield (f"ode-recurrence ({seen} data, {terms} terms)", bad == 0, f"{bad} failures")
    th = counting.theta_coeffs(build_gog(*dihedral))
    yield ("ode-dihedral-coefficients (1, 2)", th == (1, 2), f"got {th}")


def suite_parity(seed: int, bound: int):
    from . import counting

    n = bound
    # odd exactly where lambda + 1 is a power of two
    alternating = [((lam + 1) & lam) == 0 for lam in range(1, n + 1)]
    even = [False] * n
    cases = [
        ("iii-{2,3}-odd-S", {"a": 2, "b": 3}, [("s", "a", "b", 1)], alternating),
        ("iii-{2,4}-odd-S", {"a": 2, "b": 4}, [("s", "a", "b", 1)], alternating),
        ("ii-constant", {"v": 2}, [("p", "v", "v", 2), ("q", "v", "v", 2)], even),
        ("i-constant", {"v": 2}, [("p", "v", "v", 1)], even),
    ]
    for name, vertices, edges, expected in cases:
        f = counting.f_series(build_gog(vertices, edges), n)
        actual = [x % 2 == 1 for x in f]
        yield (f"parity-{name} ({n} terms)", actual == expected, "profile mismatch")


def suite_growth(seed: int, bound: int):
    from . import counting, invariants, oracle

    # f depends only on the type, so the exception is a type, not a shape
    triple_c2 = _key_type(
        _row_key({"a": 2, "b": 2, "c": 2}, [("s", "a", "b", 1), ("t", "b", "c", 1)])
    )
    n = bound
    exceptional = []

    def check(m, c):
        if invariants._rank(m, c) != 2:
            return None
        f = counting._f(m, c, n + 1)
        holds = [
            f[lam] - f[lam - 1] >= m * math.factorial(lam + 1)
            for lam in range(1, n + 1)
        ]
        if (m, c) == triple_c2:
            exceptional.append(m)
            # the bound genuinely fails at lambda = 1 for this type only
            return not holds[0] and all(holds[1:])
        return all(holds)

    seen, bad = _per_type(oracle._shape_data(8), check)
    yield (
        f"growth-bound ({seen} rank-2 data, lambda <= {n})",
        bad == 0 and len(exceptional) == 1,
        f"{bad} failures; {len(exceptional)} triple-C2 exceptional cases, want 1",
    )


def suite_oracle(seed: int, bound: int):
    from . import counting, oracle

    for r, n in ((2, min(bound, 5)), (3, min(bound, 4))):
        expected = oracle.free_group_subgroup_counts(r, n)
        got = counting.f_series(build_gog(*_bouquet(r)), n)
        yield (
            f"oracle-free-rank-{r} (index <= {n})",
            expected == got,
            f"{expected} vs {got}",
        )

    rng = random.Random(seed)
    trees = 200
    bad = 0
    for _ in range(trees):
        graph = oracle.random_tree_graph(rng)
        tree = spanning_tree(graph, graph.vertices[0])
        v0 = rng.choice(graph.vertices)
        if not oracle.orientation_uniqueness(tree, v0):
            bad += 1
    yield (
        f"oracle-orientation-uniqueness ({trees} trees, seed {seed})",
        bad == 0,
        f"{bad} failures",
    )


SUITES = {
    "convolution": (suite_convolution, 100),
    "ode": (suite_ode, 8),
    "parity": (suite_parity, 64),
    "growth": (suite_growth, 25),
    "oracle": (suite_oracle, 5),
}

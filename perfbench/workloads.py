"""Workload definitions: the ops of one pass and the expected result of each.

An op is one `vfree` invocation. Its expectation is one of

* ``Exact``: exit code and stdout bytes, either spelled out or given by a
  SHA-256 digest from ``expected/digests.json`` (fixed inputs whose output
  is too large to commit);
* ``TypedError``: a nonzero documented exit code, empty stdout and a
  one-line ``Code: detail`` message on stderr.

The two 1000-vertex graphs of ``graph-normalize`` are generated here from
the workload seed, and their expected outputs are derived from the
generator's own knowledge of their shape (which edges contract, and in
what order), not from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

GRAPH_VERTICES = 1000
GRAPH2_EXTRA_EDGES = 20

TYPED_ERROR_LINE = re.compile(r"[A-Z][A-Za-z]*: \S[^\n]*\n")


@dataclass(frozen=True)
class Exact:
    rc: int
    stdout: bytes | None = None
    sha256: str | None = None

    def check(self, rc: int, out: bytes, err: bytes) -> bool:
        if rc != self.rc:
            return False
        if self.stdout is not None:
            return out == self.stdout
        return hashlib.sha256(out).hexdigest() == self.sha256


@dataclass(frozen=True)
class TypedError:
    def check(self, rc: int, out: bytes, err: bytes) -> bool:
        return (
            rc in (1, 2)
            and out == b""
            and TYPED_ERROR_LINE.fullmatch(err.decode("utf-8", "replace"))
            is not None
        )


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    expect: Exact | TypedError


# --- generated graphs --------------------------------------------------------

@dataclass(frozen=True)
class Datum:
    vertex_order: dict[str, int]
    edges: tuple[tuple[str, str, str, int], ...]  # (id, origin, terminus, order)


def serialize(d: Datum) -> str:
    """The CLI's canonical text: sorted vertices, then edges sorted by id."""
    lines = [f"vertex {v} {d.vertex_order[v]}" for v in sorted(d.vertex_order)]
    lines += [f"edge {e} {o} {t} {s}" for e, o, t, s in sorted(d.edges)]
    return "\n".join(lines) + "\n"


def contracting_path(rng: random.Random, n: int) -> tuple[Datum, str]:
    """Path v0-v1-...-v(n-1) whose even-numbered edges are trivial.

    Edge e_i joins v_i to v_(i+1). For even i it has the order k of
    v_(i+1), and v_i has order 2k, so the edge is onto at v_(i+1) only and
    contracts into v_i. Odd edges have order 1 < both endpoint orders and
    survive. Normalization therefore contracts e_0, e_2, ... in that order
    (the smallest trivial id first), and nothing new turns trivial.
    Returns the datum and the expected `normalize --steps` output.
    """
    vid = [f"v{i:04d}" for i in range(n)]
    eid = [f"e{i:04d}" for i in range(n - 1)]
    order: dict[str, int] = {}
    for i in range(0, n, 2):
        k = rng.choice((2, 3))
        order[vid[i]] = 2 * k
        if i + 1 < n:
            order[vid[i + 1]] = k
    edges = tuple(
        (eid[i], vid[i], vid[i + 1], order[vid[i + 1]] if i % 2 == 0 else 1)
        for i in range(n - 1)
    )
    datum = Datum(order, edges)

    steps = [
        f"# step contract={eid[i]} removed={vid[i + 1]} surviving={vid[i]}\n"
        for i in range(0, n - 1, 2)
    ]
    survivors = {v: order[v] for i, v in enumerate(vid) if i % 2 == 0}
    kept = tuple(
        (eid[i], vid[i - 1], vid[i + 1], 1) for i in range(1, n - 1, 2)
    )
    return datum, "".join(steps) + serialize(Datum(survivors, kept))


def rigid_tree(rng: random.Random, n: int, extra: int) -> Datum:
    """Random tree plus `extra` random edges where nothing can contract.

    Every edge order is a divisor of the endpoint gcd that is smaller than
    both endpoint orders, so no half-edge is onto and normalization only
    scans.
    """
    vid = [f"v{i:04d}" for i in range(n)]
    order = {v: rng.choice((2, 3, 4, 6)) for v in vid}
    pairs = [(vid[rng.randrange(i)], vid[i]) for i in range(1, n)]
    pairs += [tuple(rng.sample(vid, 2)) for _ in range(extra)]

    def proper_order(u: str, v: str) -> int:
        g = math.gcd(order[u], order[v])
        low = min(order[u], order[v])
        return rng.choice([d for d in range(1, g + 1) if g % d == 0 and d < low])

    edges = tuple(
        (f"e{i:04d}", u, v, proper_order(u, v)) for i, (u, v) in enumerate(pairs)
    )
    return Datum(order, edges)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def invariants_text(d: Datum, normalized_geometric_edges: int) -> tuple[str, int, int]:
    """Expected `invariants` output, with m and mu for the classify line."""
    vorders = list(d.vertex_order.values())
    eorders = [s for *_, s in d.edges]
    m = math.lcm(*vorders)
    chi = sum(Fraction(1, n) for n in vorders) - sum(Fraction(1, s) for s in eorders)
    mu = 1 - m * chi
    assert mu.denominator == 1
    mu = int(mu)
    lines = [f"m={m}", f"chi={chi.numerator}/{chi.denominator}"]
    for k in _divisors(m):
        zeta = sum(k % s == 0 for s in eorders) - sum(k % n == 0 for n in vorders)
        lines.append(f"zeta_{k}={zeta}")
    lines.append(f"mu={mu}")
    half = 2 * normalized_geometric_edges
    verdict = "ok" if half <= 2 * mu else "VIOLATED"
    lines.append(f"edge_bound={verdict} ({half} <= {2 * mu})")
    return "\n".join(lines) + "\n", m, mu


def graph_ops(work: Path, root: Path, seed: int) -> list[Op]:
    """Write the two seeded graphs under `work` and return their ops."""
    rng = random.Random(seed)
    path, path_normal = contracting_path(rng, GRAPH_VERTICES)
    tree = rigid_tree(rng, GRAPH_VERTICES, GRAPH2_EXTRA_EDGES)
    ops = []
    for tag, datum, normal_text, normal_edges in (
        ("path", path, path_normal, (GRAPH_VERTICES - 1) // 2),
        ("tree", tree, None, len(tree.edges)),
    ):
        text = serialize(datum)
        f = work / f"{tag}.gog"
        f.write_text(text)
        rel = str(f.relative_to(root))
        inv, m, mu = invariants_text(datum, normal_edges)
        assert mu >= 3, "generated graphs must classify as HIGHER"
        ops += [
            Op(f"normalize-{tag}", ("normalize", rel, "--steps"),
               Exact(0, (normal_text or text).encode())),
            Op(f"invariants-{tag}", ("invariants", rel), Exact(0, inv.encode())),
            Op(f"classify-{tag}", ("classify", rel),
               Exact(0, f"rank={mu} class=HIGHER m={m}\n".encode())),
        ]
    return ops


# --- fixed inputs ------------------------------------------------------------

def _rel(root: Path, name: str) -> str:
    return str((INPUTS / name).relative_to(root))


# count-series ops: subcommand, input file, flags
COUNT_OPS = {
    "count-f2": ("count", "f2.gog", "--terms", "200"),
    "count-c2c3-g": ("count", "c2c3.gog", "--terms", "200", "--g"),
    "count-c2c4": ("count", "c2c4.gog", "--terms", "200"),
    "count-c2c2c2": ("count", "c2c2c2.gog", "--terms", "200"),
    "count-am64": ("count", "am64.gog", "--terms", "200"),
    "count-big": ("count", "big.gog", "--terms", "100"),
    "largeness-big": ("largeness", "big.gog", "--prefix", "60"),
}


def count_argvs(root: Path) -> dict[str, tuple[str, ...]]:
    """The count-series argvs; their expected stdout is in digests.json."""
    return {
        name: (cmd, _rel(root, f), *flags)
        for name, (cmd, f, *flags) in COUNT_OPS.items()
    }


def setup_op(root: Path) -> Op:
    """The op timed for setup_s: a fresh interpreter validating a tiny file."""
    return Op("validate-c2c3", ("validate", _rel(root, "c2c3.gog")), Exact(0, b"ok\n"))


def verify_expected(seed: int) -> bytes:
    template = (EXPECTED / "verify_all.txt").read_text()
    return template.replace("{seed}", str(seed)).encode()


def ops_for(workload: str, root: Path, work: Path, seed: int) -> list[Op]:
    if workload == "verify-corpus":
        return [Op("verify-all", ("verify", "all", "--seed", str(seed)),
                   Exact(0, verify_expected(seed)))]
    if workload == "count-series":
        digests = json.loads((EXPECTED / "digests.json").read_text())
        return [
            Op(name, argv, Exact(digests[name]["rc"], sha256=digests[name]["sha256"]))
            for name, argv in count_argvs(root).items()
        ]
    if workload == "graph-normalize":
        return graph_ops(work, root, seed) + [
            Op("validate-bad-utf8", ("validate", _rel(root, "bad_utf8.gog")),
               TypedError())
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-corpus", "count-series", "graph-normalize")

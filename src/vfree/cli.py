"""Command-line interface over the GOG text format.

Subcommands: validate, normalize, invariants, count, classify, largeness,
verify. Output is deterministic (identical invocations are byte-identical).
Every subcommand's errors leave through ``main``, which prints one
``Code: message`` line on stderr and nothing more on stdout, e.g.
``DivisibilityViolation: edge s: order 4 does not divide order 6 at
vertex b``. Exit codes: 0 success, 1 validation error, 2 usage error,
3 property failure, 130 interrupted (Ctrl-C, one `Interrupted:` line, no
traceback). Each subcommand imports the modules it runs, so start-up pays
only for those.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import GogSyntaxError, VfreeError
from .gog import parse_gog, serialize_gog
from .properties import SUITES

MAX_TERMS = 200


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            # one whole-file read, so exc.start is the offset in the file
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GogSyntaxError(
                f"file is not valid UTF-8 at byte {exc.start}"
            ) from None


def cmd_validate(args) -> int:
    parse_gog(_read(args.file))
    print("ok")
    return 0


def cmd_normalize(args) -> int:
    from .normalize import normalize

    gog = parse_gog(_read(args.file))
    ngog, steps = normalize(gog)
    if args.steps:
        for s in steps:
            print(
                f"# step contract={s.contracted_edge} "
                f"removed={s.removed_vertex} surviving={s.surviving_vertex}"
            )
    sys.stdout.write(serialize_gog(ngog.gog))
    return 0


def cmd_invariants(args) -> int:
    from . import invariants
    from .normalize import normalize

    gog = parse_gog(_read(args.file))
    tv = invariants.type_vector(gog)
    mu = invariants.free_rank(gog)
    # chi = (1 - mu)/m in lowest terms; gcd(0, m) = m gives 0/1
    g = math.gcd(1 - mu, tv.m)
    print(f"m={tv.m}")
    print(f"chi={(1 - mu) // g}/{tv.m // g}")
    for k in sorted(tv.zeta):
        print(f"zeta_{k}={tv.zeta[k]}")
    print(f"mu={mu}")
    ngog, _ = normalize(gog)
    # on normalized data the half-edges number at most 2*mu; VIOLATED is a bug
    half = len(ngog.gog.graph.half_edges)
    print(f"edge_bound={'ok' if half <= 2 * mu else 'VIOLATED'} ({half} <= {2 * mu})")
    return 0


def cmd_count(args) -> int:
    from . import counting

    gog = parse_gog(_read(args.file))
    n = args.terms
    g = counting.g_series(gog, n) if args.g else None
    f = counting.f_series(gog, n)
    for lam in range(1, n + 1):
        tail = f" {g[lam].numerator}/{g[lam].denominator}" if g else ""
        print(f"{lam} {f[lam - 1]}{tail}")
    return 0


def cmd_classify(args) -> int:
    from .classify import classify
    from .normalize import normalize

    gog = parse_gog(_read(args.file))
    ngog, _ = normalize(gog)
    rep = classify(ngog)
    print(rep.label.line.format(**rep.params))
    if rep.witness:
        print("witness=" + ",".join(rep.witness))
    return 0


def cmd_largeness(args) -> int:
    from .classify import largeness_report
    from .normalize import normalize

    gog = parse_gog(_read(args.file))
    ngog, _ = normalize(gog)
    rep = largeness_report(ngog, args.prefix)
    flag = lambda b: "true" if b else "false"  # noqa: E731
    print(f"chi_negative={flag(rep.chi_negative)}")
    print(f"rank_ge_2={flag(rep.rank_ge_2)}")
    print(f"structural={flag(rep.structural_vii)}")
    print(
        f"f_strictly_increasing={flag(rep.f_strictly_increasing_prefix)} "
        f"(prefix {args.prefix})"
    )
    print("ends=implied-equivalent (not computed)")
    print("pride_preorder=implied-equivalent (not computed)")
    print("fast_subgroup_growth=implied-equivalent (not computed)")
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        fn, default_bound = SUITES[name]
        bound = args.bound if args.bound is not None else default_bound
        for prop, ok, detail in fn(args.seed, bound):
            if ok:
                print(f"PASS {prop}")
            else:
                print(f"FAIL {prop}: {detail}")
                failed = True
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfree",
        description="Exact invariants and subgroup counting for graphs of finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a GOG file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("normalize", help="contract trivial tree edges")
    p.add_argument("file")
    p.add_argument("--steps", action="store_true", help="log contraction steps")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("invariants", help="m, chi, type, rank, edge bound")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("count", help="free-subgroup counting series")
    p.add_argument("file")
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--g", action="store_true", help="include g series as p/q")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("classify", help="classify the normalized datum")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("largeness", help="largeness criteria report")
    p.add_argument("file")
    p.add_argument("--prefix", type=int, default=15)
    p.set_defaults(func=cmd_largeness)

    p = sub.add_parser("verify", help="run a built-in property suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "count" and not 1 <= args.terms <= MAX_TERMS:
        parser.error(f"--terms must be in 1..{MAX_TERMS}")
    if args.command == "largeness" and not 2 <= args.prefix <= MAX_TERMS:
        parser.error(f"--prefix must be in 2..{MAX_TERMS}")
    if args.command == "verify" and args.bound is not None and not (
        1 <= args.bound <= MAX_TERMS
    ):
        parser.error(f"--bound must be in 1..{MAX_TERMS}")
    # counts outgrow CPython's default 4300-digit int-to-str limit (f_50 of
    # a 24-point datum already does). The limit is absent before 3.10.7 and
    # is restored on return, so in-process callers keep their own.
    saved = None
    if hasattr(sys, "set_int_max_str_digits"):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 2
    except VfreeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("Interrupted: stopped by SIGINT", file=sys.stderr)
        return 130
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())

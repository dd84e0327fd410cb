"""Run one `vfree` invocation with its layer functions wrapped in spans.

    PYTHONPATH=src python3 perfbench/shim.py <trace-out.json> <op-id> <vfree args...>

Imports `vfree.cli`, wraps the public functions of every layer in the module
that defines them and in every vfree module that imported them by name, then
calls `vfree.cli.main(argv)` exactly as `python -m vfree.cli` would. Spans
(name, start, end, parent index, op id) stay in memory and are written to
the trace file at exit, together with counters. Counters that need extra
work (bit sizes, type vectors, validated-datum identity) are computed
outside the timed spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# `vfree.normalize` and `vfree.classify` name functions in the package
# namespace, so modules are fetched by their dotted names
cli = importlib.import_module("vfree.cli")
graph = importlib.import_module("vfree.graph")
invariants = importlib.import_module("vfree.invariants")

# module -> spanned functions; a span is named "<module>.<function>"
SPANNED = {
    "gog": ("parse_gog", "check_valid", "serialize_gog"),
    "graph": ("is_connected", "spanning_tree"),
    "normalize": ("normalize", "find_trivial_edge", "contract_edge"),
    "invariants": ("type_vector", "free_rank"),
    "counting": ("g_series", "f_series", "theta_coeffs", "ode_check", "growth_check"),
    "classify": ("classify", "largeness_report"),
    "oracle": (
        "free_group_subgroup_counts",
        "orientation_uniqueness",
        "exhaustive_rank2_shapes",
        "random_gog",
        "random_tree_graph",
    ),
}


class Tracer:
    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.validated: dict[int, object] = {}  # id -> datum, kept alive
        self.types_seen: set = set()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), n)

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span. The counter hooks `before(*args)` and
        `after(before's result, args, result)` run outside the span."""

        def wrapper(*args, **kwargs):
            state = before(*args) if before else None
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            if after:
                after(state, args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"op": self.op_id, "spans": self.spans, "counts": self.counts}, fh)


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def install(tr: Tracer) -> None:
    type_vector = invariants.type_vector

    def check_valid_before(datum):
        tr.count("gog.check_valid.calls")
        tr.count("gog.check_valid.redundant", id(datum) in tr.validated)
        return datum

    def check_valid_after(datum, args, result):
        tr.validated[id(datum)] = datum

    def g_before(datum, *rest):
        tv = type_vector(datum)
        key = (tv.m, tuple(sorted(tv.zeta.items())))
        tr.count("counting.g_series.calls")
        tr.count("counting.g_series.repeat_type", key in tr.types_seen)
        tr.types_seen.add(key)

    def g_after(state, args, result):
        tr.count("counting.g_series.terms", len(result))
        tr.peak("counting.g_series.max_bits", max(map(_bits, result), default=0))

    def f_after(state, args, result):
        tr.count("counting.f_series.terms", len(result))
        tr.peak("counting.f_series.max_bits", max((x.bit_length() for x in result), default=0))

    hooks = {
        "gog.check_valid": (check_valid_before, check_valid_after),
        "counting.g_series": (g_before, g_after),
        "counting.f_series": (None, f_after),
        "normalize.contract_edge": (
            lambda *a: tr.count("normalize.contract_edge.calls"), None),
        "invariants.free_rank": (lambda *a: tr.count("invariants.free_rank.calls"), None),
    }

    replacement = {}
    for short, names in SPANNED.items():
        module = importlib.import_module(f"vfree.{short}")
        for name in names:
            original = getattr(module, name)
            span_name = f"{short}.{name}"
            replacement[id(original)] = tr.span(
                span_name, original, *hooks.get(span_name, (None, None))
            )
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "vfree" and not mod_name.startswith("vfree."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, attr, replacement[id(value)])

    cli.SUITES = {
        suite: (tr.span(f"cli.verify.{suite}", lambda s, b, fn=fn: list(fn(s, b))), bound)
        for suite, (fn, bound) in cli.SUITES.items()
    }

    out_edges = graph.Graph.out_edges

    def counted_out_edges(self, v):
        tr.count("graph.out_edges.calls")
        tr.count("graph.out_edges.half_edges_scanned", len(self.half_edges))
        return out_edges(self, v)

    graph.Graph.out_edges = counted_out_edges


def main() -> int:
    trace_path, op_id, *argv = sys.argv[1:]
    tr = Tracer(op_id)
    install(tr)
    try:
        return tr.span("cli.main", cli.main)(argv)
    finally:
        tr.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())

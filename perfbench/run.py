"""vfree benchmark: drive the CLI one invocation at a time and time it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; the program is taken from its
`src/` directory. Each op is a fresh `python -m vfree.cli ...` process; a
pass is the workload's fixed op sequence, run in a closed loop with one
client and no concurrency. Passes repeat until `--seconds` would be
exceeded (at least one runs). Every op's exit code and output are checked.

--trace 0 reports the end-to-end metrics (medians over passes).
--trace 1 runs each op twice in a row: untraced, then through shim.py,
which records spans around each layer's functions. It reports per-layer
metrics (medians over traced passes) and the tracing overhead; the
end-to-end figures of the untraced runs are printed too.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. `correct` is false when an op fails in any way other
than a defect listed in known_defects.json; `failed` counts every failed
pass op, known defects included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Op, ops_for, setup_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS_FIRST = 6
SETUP_REPS_PER_PASS = 3
OP_TIMEOUT_S = 60.0
HARD_LIMIT_S = 165.0  # the whole run ends well inside 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_cmd_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
)

# spans whose summed self time is reported as <name>.self_s
SELF_TIMED = (
    "gog.parse_gog",
    "gog.check_valid",
    "gog.serialize_gog",
    "graph.is_connected",
    "graph.spanning_tree",
    "normalize.normalize",
    "normalize.find_trivial_edge",
    "normalize.contract_edge",
    "invariants.type_vector",
    "counting.g_series",
    "counting.f_series",
    "counting.theta_coeffs",
    "counting.ode_check",
    "counting.growth_check",
    "classify.classify",
    "classify.largeness_report",
)
VERIFY_SUITES = ("convolution", "ode", "parity", "growth", "oracle")
# counters summed over a pass (max_bits: the largest over the pass)
COUNTED = (
    ("gog.check_valid.calls", "count"),
    ("graph.out_edges.calls", "count"),
    ("graph.out_edges.half_edges_scanned", "count"),
    ("normalize.contract_edge.calls", "count"),
    ("invariants.free_rank.calls", "count"),
    ("counting.g_series.calls", "count"),
    ("counting.g_series.terms", "count"),
    ("counting.g_series.max_bits", "bits"),
    ("counting.f_series.terms", "count"),
    ("counting.f_series.max_bits", "bits"),
)
# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "gog.check_valid.redundant_ratio": ("gog.check_valid.redundant", "gog.check_valid.calls"),
    "counting.g_series.repeat_type_ratio": (
        "counting.g_series.repeat_type", "counting.g_series.calls"),
}

PER_LAYER = (
    [("cli.self_s", "s"), ("cli.stdout_bytes", "bytes")]
    + [(f"cli.verify.{s}_s", "s") for s in VERIFY_SUITES]
    + [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [("oracle.self_s", "s")]
    + list(COUNTED)
    + [(name, "ratio") for name in RATIOS]
    + [("trace.overhead_s", "s")]
)


@dataclass
class Result:
    rc: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_kb: int


@dataclass
class Pass:
    op_walls: list[float] = field(default_factory=list)
    maxrss_kb: list[int] = field(default_factory=list)
    ok: int = 0

    def add(self, r: Result, ok: bool) -> None:
        self.op_walls.append(r.wall_s)
        self.maxrss_kb.append(r.maxrss_kb)
        self.ok += ok

    @property
    def wall_s(self) -> float:
        """Time for the pass: its ops back to back, without the checks."""
        return sum(self.op_walls)


class Runner:
    """Spawns ops in the checkout and checks their results."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.known = {d["op"]: d for d in json.loads((HERE / "known_defects.json").read_text())}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.pairs = 0

    def spawn(self, cmd: list[str]) -> Result:
        """Run cmd to completion through spawn.py, which times it and
        reads its peak RSS."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        report = self.work / "report"
        report.unlink(missing_ok=True)
        limit = int(max(1.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic())))
        helper = [sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(report), str(limit)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(helper + cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                proc.wait()
            except BaseException:
                proc.terminate()  # the helper kills and reaps the op
                proc.wait()
                raise
        rc, wall_s, maxrss_kb = report.read_text().split()
        return Result(int(rc), out_path.read_bytes(), err_path.read_bytes(),
                      float(wall_s), int(maxrss_kb))

    def check(self, op: Op, r: Result, counted: bool = True) -> bool:
        ok = op.expect.check(r.rc, r.out, r.err)
        if counted:
            self.attempted += 1
            self.failed += not ok
        if not ok and not self._known_failure(op, r):
            tail = r.err.decode("utf-8", "replace").strip().splitlines()[-1:]
            self.unexpected.append(f"{op.name}: rc={r.rc} {tail}")
        return ok

    def _known_failure(self, op: Op, r: Result) -> bool:
        d = self.known.get(op.name)
        err = r.err.decode("utf-8", "replace")
        return d is not None and r.rc == d["rc"] and all(s in err for s in d["stderr_contains"])

    def untraced(self, op: Op) -> Result:
        return self.spawn([sys.executable, "-m", "vfree.cli", *op.argv])

    def traced(self, op: Op) -> tuple[Result, dict]:
        trace = self.work / "trace.json"
        r = self.spawn([sys.executable, str(HERE / "shim.py"), str(trace), op.name, *op.argv])
        data = json.loads(trace.read_text()) if trace.exists() else {"spans": [], "counts": {}}
        trace.unlink(missing_ok=True)
        return r, data

    def run_pass(self, ops: list[Op], traced: bool) -> tuple[Pass, Pass, list[dict]]:
        """One untraced pass; with `traced`, each op also runs traced right
        before or after its untraced run (alternately, so that neither side
        always runs second), and the pair sees the same host load."""
        plain, shimmed, traces = Pass(), Pass(), []
        for op in ops:
            self.pairs += traced
            if traced and self.pairs % 2:
                self._traced_into(op, shimmed, traces)
            r = self.untraced(op)
            plain.add(r, self.check(op, r))
            if traced and not self.pairs % 2:
                self._traced_into(op, shimmed, traces)
        return plain, shimmed, traces

    def _traced_into(self, op: Op, shimmed: Pass, traces: list[dict]) -> None:
        r, data = self.traced(op)
        shimmed.add(r, self.check(op, r))
        data["stdout_bytes"] = len(r.out)
        traces.append(data)


def end_to_end(setup: list[float], passes: list[Pass]) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setup),
        "wall_s": med(p.wall_s for p in passes),
        # the op whose median time is longest: a max taken inside each pass
        # would pick up whichever op the host happened to slow down
        "slowest_cmd_s": max(map(med, zip(*(p.op_walls for p in passes)))),
        "peak_rss_mb": med(max(p.maxrss_kb) / 1024 for p in passes),
        "ops_ok_ratio": sum(p.ok for p in passes) / sum(len(p.op_walls) for p in passes),
    }


def per_layer(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Spans nest, so a span's self time is its duration minus the durations
    of its direct children.
    """
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for data in traces:
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), c in zip(spans, child):
            self_s[name] = self_s.get(name, 0.0) + end - start - c
            total_s[name] = total_s.get(name, 0.0) + end - start
        for key, n in data["counts"].items():
            merge = max if key.endswith(".max_bits") else int.__add__
            counts[key] = merge(counts.get(key, 0), n)

    m = {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.stdout_bytes": sum(data["stdout_bytes"] for data in traces),
        "oracle.self_s": sum((v for k, v in self_s.items() if k.startswith("oracle.")), 0.0),
    }
    m.update({f"cli.verify.{s}_s": total_s.get(f"cli.verify.{s}", 0.0) for s in VERIFY_SUITES})
    m.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED})
    m.update({key: counts.get(key, 0) for key, _ in COUNTED})
    for name, (num, den) in RATIOS.items():
        m[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    return m


def report(title: str, values: dict, units: dict, note: str = "") -> None:
    print(f"# {title}{note}")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    started = time.monotonic()
    runner = Runner(work, started + HARD_LIMIT_S)
    ops = ops_for(workload, ROOT, work, seed)
    probe = setup_op(ROOT)

    setup: list[float] = []

    def time_setup(reps: int) -> None:
        for _ in range(reps):
            r = runner.untraced(probe)
            runner.check(probe, r, counted=False)
            setup.append(r.wall_s)

    time_setup(SETUP_REPS_FIRST)
    plain: list[Pass] = []
    traced_metrics: list[dict] = []
    overheads: list[float] = []
    window = time.monotonic()
    while True:
        # spread the set-up samples over the run, so host load that drifts
        # during the run weighs on setup_s as it does on the passes
        time_setup(SETUP_REPS_PER_PASS)
        p, t, traces = runner.run_pass(ops, trace)
        plain.append(p)
        if trace:
            traced_metrics.append(per_layer(traces))
            overheads.append(t.wall_s - p.wall_s)
        elapsed = time.monotonic() - window
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break

    e2e = end_to_end(setup, plain)
    tried = len(ops) * len(plain)
    failed = tried - sum(p.ok for p in plain)
    print(f"workload={workload} seed={seed} passes={len(plain)} ops/pass={len(ops)} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()}")
    report("end to end (untraced passes, medians)", e2e, dict(END_TO_END),
           f"; ops_failed_ratio={failed}/{tried}={failed / tried:.4f}")
    for msg in runner.unexpected:
        print(f"  UNEXPECTED FAILURE {msg}")

    if trace:
        # median_low: each figure is one traced pass's own value
        layer = {k: statistics.median_low(m[k] for m in traced_metrics)
                 for k in traced_metrics[0]}
        layer["trace.overhead_s"] = statistics.median_low(overheads)
        report(f"per layer (traced passes: {len(traced_metrics)}, medians)",
               layer, dict(PER_LAYER))
        metrics, units = layer, dict(PER_LAYER)
    else:
        metrics, units = e2e, dict(END_TO_END)
    return {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running op is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "vfree" / "cli.py").is_file():
        print(f"error: no vfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

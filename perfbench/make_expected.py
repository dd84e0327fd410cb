"""Regenerate the committed expected outputs of the fixed-input ops.

    PYTHONPATH=src python3 perfbench/make_expected.py

Runs each count-series op and `verify all` in this process, with CPython's
int-to-str digit limit lifted, so that the expected output is the whole
answer even where the CLI itself trips that limit. Before writing, every
rank-2 count is cross-checked against its class recurrence
(`f_series_rank2`) and the F2 counts of small index against the brute-force
permutation oracle. Writes expected/digests.json and expected/verify_all.txt.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from workloads import EXPECTED, count_argvs

from vfree import cli
from vfree.counting import f_series_rank2
from vfree.oracle import free_group_subgroup_counts

ROOT = Path(__file__).resolve().parent.parent
VERIFY_SEED = 0

# recurrence class and parameters of every rank-2 count op
RANK2 = {
    "count-f2": ("ii", {"m": 1}),
    "count-c2c3-g": ("iii", {"m": 6, "S": 1}),
    "count-c2c4": ("iii", {"m": 4, "S": 1}),
    "count-c2c2c2": ("v", {"m": 2}),
    "count-am64": ("iii", {"m": 12, "S": 2}),
}
ORACLE_F2_INDEX = 5


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def f_column(text: str) -> list[int]:
    return [int(line.split()[1]) for line in text.splitlines()]


def main() -> None:
    sys.set_int_max_str_digits(0)
    os.chdir(ROOT)  # the argvs name inputs relative to the checkout root
    digests = {}
    for name, argv in count_argvs(ROOT).items():
        rc, text = run_cli(list(argv))
        if name in RANK2:
            f = f_column(text)
            label, params = RANK2[name]
            if f != f_series_rank2(label, params, len(f)):
                raise SystemExit(f"{name}: disagrees with f_series_rank2({label})")
            if name == "count-f2" and f[:ORACLE_F2_INDEX] != free_group_subgroup_counts(
                2, ORACLE_F2_INDEX
            ):
                raise SystemExit("count-f2: disagrees with the permutation oracle")
        data = text.encode()
        digests[name] = {
            "rc": rc,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "lines": text.count("\n"),
        }
    (EXPECTED / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")

    rc, text = run_cli(["verify", "all", "--seed", str(VERIFY_SEED)])
    if rc != 0 or "FAIL" in text:
        raise SystemExit(f"verify all --seed {VERIFY_SEED} does not pass:\n{text}")
    template = text.replace(f"seed {VERIFY_SEED})", "seed {seed})")
    (EXPECTED / "verify_all.txt").write_text(template)


if __name__ == "__main__":
    main()

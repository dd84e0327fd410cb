"""The CLI's exact bytes on every benchmark input file.

Each subcommand that reads a file runs in-process on each
``perfbench/inputs/*.gog``, and its exit code, stdout and stderr must equal
the entry in ``cli_bytes.json``. Regenerate that file only for an intended
output change:

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from vfree.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).with_name("cli_bytes.json")
INPUTS = sorted(p.name for p in (ROOT / "perfbench" / "inputs").glob("*.gog"))
COMMANDS = [
    ["validate"],
    ["normalize"],
    ["normalize", "--steps"],
    ["invariants"],
    ["classify"],
    ["largeness"],
    ["count", "--terms", "30", "--g"],
]
CASES = [(cmd, name) for name in INPUTS for cmd in COMMANDS]


def case_id(cmd, name):
    return " ".join(cmd + [name])


def run(cmd, name):
    """(exit code, stdout, stderr) of ``vfree <cmd> perfbench/inputs/<name>``,
    run from the checkout root."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(cmd + [f"perfbench/inputs/{name}"])
    return {"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("cmd, name", CASES, ids=[case_id(*c) for c in CASES])
def test_cli_bytes(cmd, name, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert run(cmd, name) == expected[case_id(cmd, name)]


def test_every_case_is_pinned():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(case_id(*c) for c in CASES)


if __name__ == "__main__":
    os.chdir(ROOT)
    table = {case_id(*c): run(*c) for c in CASES}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

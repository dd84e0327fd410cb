"""What a fresh interpreter loads, and the public API of the lazy package.

Each check runs in its own subprocess, because this test session has
already imported every vfree module.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
C2C3 = str(ROOT / "perfbench" / "inputs" / "c2c3.gog")
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
)


def python(*args: str) -> str:
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


LOADED = """
import json, sys
from vfree.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("vfree"))]))
watched = ("dataclasses", "inspect", "fractions", "decimal")
print(json.dumps(sorted(m for m in watched if m in sys.modules)))
"""
BASE = ["vfree", "vfree.cli", "vfree.errors", "vfree.gog", "vfree.graph", "vfree.properties"]


# the subcommands that print chi or g, the only users of `fractions` (which
# imports `decimal`); f is an int series and builds no Fraction
FRACTIONS = {"invariants", "count --g"}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("validate", []),
        ("normalize", ["vfree.normalize"]),
        ("invariants", ["vfree.invariants", "vfree.normalize"]),
        ("classify", ["vfree.classify", "vfree.invariants", "vfree.normalize"]),
        ("count", ["vfree.counting", "vfree.invariants"]),
        ("count --g", ["vfree.counting", "vfree.invariants"]),
        ("largeness", ["vfree.classify", "vfree.counting", "vfree.invariants",
                       "vfree.normalize"]),
    ],
)
def test_subcommand_loads_only_what_it_runs(command, extra):
    # -S: modules that `site` imports are not the program's doing
    argv = [*command.split(), C2C3]
    *_, loaded, watched = python("-S", "-c", LOADED, *argv).splitlines()
    assert json.loads(loaded) == [0, sorted(BASE + extra)]
    # no record needs `dataclasses`, which imports `inspect`
    assert json.loads(watched) == (["decimal", "fractions"] if command in FRACTIONS else [])


def test_verify_loads_no_fractions():
    # every suite checks on ints alone: no Fraction for g, theta or f
    *_, loaded, watched = python("-S", "-c", LOADED, "verify", "all").splitlines()
    assert json.loads(loaded)[0] == 0
    assert json.loads(watched) == []


API = """
import json, sys
import vfree.cli, vfree.normalize, vfree.classify, vfree.counting
import vfree
from vfree import classify, normalize

homes = {name: getattr(vfree, name).__module__ for name in vfree.__all__}
try:
    vfree.no_such_name
    unknown = "no error"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "homes": homes,
    "same": [getattr(vfree, n) is getattr(sys.modules[homes[n]], n) for n in vfree.__all__],
    "functions": [type(f).__name__ for f in (classify, normalize)],
    "dir": sorted(set(vfree.__all__) - set(dir(vfree))),
    "unknown": unknown,
}))
"""


def test_exports_are_the_home_module_objects():
    # submodules named like exported functions are imported first, which
    # would rebind those names on an unguarded package
    got = json.loads(python("-c", API))
    assert all(home.startswith("vfree.") for home in got["homes"].values())
    assert all(got["same"]) and len(got["same"]) == len(got["homes"])
    assert got["functions"] == ["function", "function"]
    assert got["dir"] == []
    assert got["unknown"] == "AttributeError"


def test_dir_lists_every_export():
    import vfree

    assert set(vfree.__all__) <= set(vfree.__dir__())
    assert len(vfree.__all__) == 19


def test_readme_library_snippets_run():
    readme = (ROOT / "README.md").read_text()
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    snippets = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(snippets) >= 2
    assert python("-c", "\n".join(snippets)) == "Label.R2_III_1\n"


@pytest.mark.parametrize(
    "argv, spans",
    [
        (["classify", C2C3], {"normalize.normalize", "classify.classify"}),
        (["largeness", "--prefix", "5", C2C3],
         {"normalize.normalize", "classify.largeness_report", "counting.f_series"}),
    ],
    ids=["classify", "largeness"],
)
def test_benchmark_trace_sees_lazily_imported_layers(tmp_path, argv, spans):
    # a function-level import must fetch the function the shim wrapped
    trace = tmp_path / "trace.json"
    python(str(ROOT / "perfbench" / "shim.py"), str(trace), "op", *argv)
    names = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert spans <= names

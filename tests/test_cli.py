import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import free_bouquet
from vfree import counting, oracle
from vfree.cli import main
from vfree.gog import serialize_gog

DIHEDRAL = "vertex a 2\nvertex b 2\nedge s a b 1\n"
F2 = "vertex v 1\nedge p v v 1\nedge q v v 1\n"
C2C3 = "vertex a 2\nvertex b 3\nedge s a b 1\n"
COLLAPSIBLE = "vertex a 4\nvertex b 2\nedge s a b 2\n"
# m = mu = 10^18 = 2^18 * 5^18: its 361 divisors come from one factorization
HUGE_LOOP = "vertex a 1000000000000000000\nedge l a a 1\n"
# m = 2^6 * 3^4 * 5^2 * 7 * 11 * 13 * 17 * 19 * 23 (6,720 divisors), 5,000 loops
COMPOSITE_LOOPS = "vertex v 963761198400\n" + "".join(
    f"edge l{i} v v 1\n" for i in range(5000)
)
BAD_DIVISIBILITY = "vertex a 2\nvertex b 3\nedge s a b 2\n"
DIVISIBILITY_ERROR = "edge order 2 does not divide order 3 at vertex b"
LONG_ID = "x" * 5000
LONG_VERTEX = f"vertex {LONG_ID} 3\nvertex b 2\nedge s b {LONG_ID} 2\n"
# m = 24, mu = 34: f_50 is the first count past 4300 decimal digits
BIG = (
    "vertex a 12\nvertex b 8\nvertex c 6\n"
    "edge x a b 4\nedge y b c 2\nedge z a c 1\n"
)

# the benchmark's count-series argvs and the SHA-256 of each stdout
ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)
COUNT_ARGVS = workloads.count_argvs(ROOT)
COUNT_DIGESTS = json.loads((workloads.EXPECTED / "digests.json").read_text())


@pytest.fixture
def gog_file(tmp_path):
    def write(text, name="input.gog"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, gog_file, capsys):
        assert run(capsys, "validate", gog_file(DIHEDRAL)) == (0, "ok\n", "")

    def test_divisibility_error(self, gog_file, capsys):
        assert run(capsys, "validate", gog_file(BAD_DIVISIBILITY)) == (
            1, "", f"error DivisibilityViolation at s: {DIVISIBILITY_ERROR}\n"
        )

    @pytest.mark.parametrize(
        "text, err",
        [
            ("vertex a 2\nvertex b 3\n", "error NotConnected: graph is not connected\n"),
            ("# only a comment\n", "error Empty: graph has no vertices\n"),
        ],
        ids=["not-connected", "empty"],
    )
    def test_error_without_offender(self, gog_file, capsys, text, err):
        assert run(capsys, "validate", gog_file(text)) == (1, "", err)

    def test_syntax_error_exit_code(self, gog_file, capsys):
        code, out, err = run(capsys, "validate", gog_file("vertex a\n"))
        assert code == 1
        assert "SyntaxError" in err

    def test_order_past_the_digit_cap(self, gog_file, capsys):
        # one short line, not the 5000 digits echoed back
        code, out, err = run(capsys, "validate", gog_file("vertex a " + "7" * 5000 + "\n"))
        assert (code, out) == (1, "")
        assert err == "TooLarge: line 1: order has 5000 digits, more than 4300\n"

    # validate names the half-edge at fault; every command names the vertex
    @pytest.mark.parametrize(
        "command, text",
        [
            ("validate", LONG_VERTEX),
            ("validate", f"vertex a 2\nvertex b 3\nedge {LONG_ID} a b 2\n"),
            ("invariants", LONG_VERTEX),
            ("normalize", LONG_VERTEX),
        ],
        ids=["validate-vertex", "validate-edge", "invariants-vertex", "normalize-vertex"],
    )
    def test_long_ids_are_cut(self, gog_file, capsys, command, text):
        code, out, err = run(capsys, command, gog_file(text))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert "DivisibilityViolation" in err and "... (5000 characters)" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, out, err = run(capsys, "validate", "/nonexistent/x.gog")
        assert code == 2

    def test_non_utf8_is_typed_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.gog"
        path.write_bytes("# ordre \u00e9gal\n".encode("latin-1") + DIHEDRAL.encode())
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err == "SyntaxError: file is not valid UTF-8 at byte 8\n"


class TestCount:
    def test_free_group_counts(self, gog_file, capsys):
        code, out, _ = run(capsys, "count", "--terms", "5", gog_file(F2))
        assert code == 0
        assert out.splitlines() == ["1 1", "2 3", "3 13", "4 71", "5 461"]

    def test_g_column(self, gog_file, capsys):
        code, out, _ = run(capsys, "count", "--terms", "3", "--g", gog_file(DIHEDRAL))
        assert code == 0
        assert out.splitlines() == ["1 1 1/2", "2 1 3/8", "3 1 5/16"]

    def test_g_column_builds_g_once(self, gog_file, capsys, monkeypatch):
        calls = []
        g_series = counting.g_series

        def counted(gog, N):
            calls.append(N)
            return g_series(gog, N)

        monkeypatch.setattr(counting, "g_series", counted)
        code, out, _ = run(capsys, "count", "--terms", "3", "--g", gog_file(DIHEDRAL))
        assert (code, out.splitlines()) == (0, ["1 1 1/2", "2 1 3/8", "3 1 5/16"])
        assert calls == [3]

    def test_counts_past_digit_limit(self, gog_file, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run(capsys, "count", "--terms", "60", gog_file(BIG))
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == [str(i) for i in range(1, 61)]
        assert len(lines[49].split()[1]) > 4300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_interrupt_ends_in_one_line(self, gog_file, capsys, monkeypatch):
        import vfree.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        monkeypatch.setattr(cli, "cmd_count", interrupted)
        code, out, err = run(capsys, "count", gog_file(DIHEDRAL))
        assert (code, out) == (130, "")
        assert len(err.splitlines()) == 1 and err.startswith("Interrupted: ")
        assert "Traceback" not in err
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n  # indented\n"])
    def test_empty_file_is_typed_error(self, gog_file, capsys, text):
        code, out, err = run(capsys, "count", gog_file(text))
        assert (code, out, err) == (1, "", "Empty: graph has no vertices\n")

    def test_invalid_datum_is_typed_error(self, gog_file, capsys):
        assert run(capsys, "count", gog_file(BAD_DIVISIBILITY)) == (
            1, "", f"DivisibilityViolation: {DIVISIBILITY_ERROR}\n"
        )

    def test_terms_cap(self, gog_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--terms", "201", gog_file(DIHEDRAL)])
        assert exc.value.code == 2


class TestInvariants:
    def test_dihedral(self, gog_file, capsys):
        code, out, _ = run(capsys, "invariants", gog_file(DIHEDRAL))
        assert code == 0
        assert out.splitlines() == [
            "m=2",
            "chi=0/1",
            "zeta_1=1",
            "zeta_2=-1",
            "mu=1",
            "edge_bound=ok (2 <= 2)",
        ]

    def test_c2c3(self, gog_file, capsys):
        code, out, _ = run(capsys, "invariants", gog_file(C2C3))
        assert code == 0
        lines = out.splitlines()
        assert "m=6" in lines
        assert "chi=-1/6" in lines
        assert "mu=2" in lines


    def test_huge_order(self, gog_file, capsys):
        code, out, _ = run(capsys, "invariants", gog_file(HUGE_LOOP))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m=1000000000000000000"
        assert sum(line.startswith("zeta_") for line in lines) == 361
        assert "mu=1000000000000000000" in lines

    def test_highly_composite_m_with_many_loops(self, gog_file, capsys):
        # c = {1: 5000, m: -1}, so zeta_k = 5000 for k < m and mu = 5000*m
        code, out, _ = run(capsys, "invariants", gog_file(COMPOSITE_LOOPS))
        assert code == 0
        lines = out.splitlines()
        zeta = [line for line in lines if line.startswith("zeta_")]
        assert len(zeta) == 6720
        assert zeta[:2] == ["zeta_1=5000", "zeta_2=5000"]
        assert zeta[-1] == "zeta_963761198400=4999"
        assert "mu=4818805992000000" in lines


    def run_invariants(self, gog_file, text):
        # a subprocess, whose timeout fails the test instead of hanging the
        # suite if the input does not end
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "vfree.cli", "invariants", gog_file(text)],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_prime_order_is_proven_prime(self, gog_file):
        # m = 2^61 - 1: trial division to its square root would not end
        result = self.run_invariants(
            gog_file, "vertex a 2305843009213693951\nedge l a a 1\n"
        )
        assert (result.returncode, result.stderr) == (0, "")
        lines = result.stdout.splitlines()
        assert lines[0] == "m=2305843009213693951"
        assert [line for line in lines if line.startswith(("zeta_", "mu="))] == [
            "zeta_1=1", "zeta_2305843009213693951=0", "mu=2305843009213693951"
        ]

    def test_semiprime_order_is_split(self, gog_file):
        # m = 998244353 * 1000000007: Pollard rho splits the cofactor
        result = self.run_invariants(
            gog_file, "vertex a 998244359987710471\nedge l a a 1\n"
        )
        assert (result.returncode, result.stderr) == (0, "")
        lines = result.stdout.splitlines()
        assert lines[0] == "m=998244359987710471"
        assert [line for line in lines if line.startswith(("zeta_", "mu="))] == [
            "zeta_1=1", "zeta_998244353=1", "zeta_1000000007=1",
            "zeta_998244359987710471=0", "mu=998244359987710471",
        ]

    def test_large_cofactor_ends_within_the_rho_work_budget(self, gog_file):
        # m = (2^2203 - 1)(2^2281 - 1), a 4,484-bit product of two Mersenne
        # primes: rho gets 2^27 // 4484 steps on it, not 2^20
        m = (2**2203 - 1) * (2**2281 - 1)
        result = self.run_invariants(gog_file, f"vertex a {m}\nedge l a a 1\n")
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "TooLarge: a 1350-digit cofactor did not split in 29932 Pollard rho steps\n"
        )

    def test_large_prime_ends_after_one_miller_rabin_round(self, gog_file):
        # m = 2^4423 - 1, a 1,332-digit Mersenne prime: past the limit of the
        # deterministic bases only base 2 runs, then primality is unproven
        m = 2**4423 - 1
        result = self.run_invariants(gog_file, f"vertex a {m}\nedge l a a 1\n")
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "TooLarge: a 1332-digit cofactor cannot be proven prime\n"

    @staticmethod
    def prime_path(n):
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:n]
        return "".join(f"vertex v{i} {p}\n" for i, p in enumerate(primes)) + "".join(
            f"edge e{i} v{i} v{i + 1} 1\n" for i in range(n - 1)
        )

    def test_too_many_divisors_prints_nothing(self, gog_file):
        # m is the product of the first 40 primes: 2^40 divisors
        result = self.run_invariants(gog_file, self.prime_path(40))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("TooLarge: ")
        assert len(result.stderr.splitlines()) == 1

    def test_prime_path_below_the_divisor_cap(self, gog_file):
        result = self.run_invariants(gog_file, self.prime_path(12))
        assert (result.returncode, result.stderr) == (0, "")
        zeta = [line for line in result.stdout.splitlines() if line.startswith("zeta_")]
        assert len(zeta) == 4096


class TestNormalize:
    def test_collapses_and_logs_steps(self, gog_file, capsys):
        code, out, _ = run(capsys, "normalize", "--steps", gog_file(COLLAPSIBLE))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# step contract=s removed=b surviving=a")
        assert lines[1] == "vertex a 4"

    def test_output_is_fixed_point(self, gog_file, capsys, tmp_path):
        code, out, _ = run(capsys, "normalize", gog_file(COLLAPSIBLE))
        assert code == 0
        path2 = tmp_path / "second.gog"
        path2.write_text(out)
        code2, out2, _ = run(capsys, "normalize", "--steps", str(path2))
        assert code2 == 0
        assert out2 == out  # no steps logged, identical serialization


class TestClassify:
    def test_c2c3_line(self, gog_file, capsys):
        code, out, _ = run(capsys, "classify", gog_file(C2C3))
        assert code == 0
        assert out.splitlines()[0] == "rank=2 class=III_1 a=(2,3) |S|=1"

    def test_dihedral(self, gog_file, capsys):
        code, out, _ = run(capsys, "classify", gog_file(DIHEDRAL))
        assert out.splitlines()[0] == "rank=1 class=II m=2 |S|=1"

    def test_higher(self, gog_file, capsys):
        text = serialize_gog(free_bouquet(3))
        code, out, _ = run(capsys, "classify", gog_file(text))
        assert out.splitlines()[0] == "rank=3 class=HIGHER m=1"

    def test_huge_order(self, gog_file, capsys):
        assert run(capsys, "classify", gog_file(HUGE_LOOP)) == (
            0, "rank=1000000000000000000 class=HIGHER m=1000000000000000000\n", ""
        )

    def test_prime_order_is_not_factorized(self, gog_file):
        # m = 2^61 - 1: trial division to its square root would not end, so
        # this runs in a subprocess whose timeout fails the test instead of
        # hanging the suite
        path = gog_file("vertex a 2305843009213693951\nedge l a a 1\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "vfree.cli", "classify", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            0, "rank=2305843009213693951 class=HIGHER m=2305843009213693951\n", ""
        )

    def test_highly_composite_m_with_many_loops(self, gog_file, capsys):
        assert run(capsys, "classify", gog_file(COMPOSITE_LOOPS)) == (
            0, "rank=4818805992000000 class=HIGHER m=963761198400\n", ""
        )

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("vertex v 7\n", "rank=0 class=FINITE m=7\nwitness=v\n"),
            (
                "vertex v 4\nedge e v v 4\n",
                "rank=1 class=I m=4\nwitness=v,e\n",
            ),
            (
                "vertex v 4\nedge e v v 2\n",
                "rank=2 class=I m=4 |S|=2 index=2\nwitness=v,e\n",
            ),
            (
                "vertex a 4\nvertex b 4\nedge e1 a b 2\nedge e2 a b 4\n",
                "rank=2 class=I m=4 |S|=2 index=2\nwitness=a,e1,b,e2\n",
            ),
            (
                "vertex v 2\nedge p v v 2\nedge q v v 2\n",
                "rank=2 class=II m=2\nwitness=v,p,q\n",
            ),
            (
                "vertex a 3\nvertex b 3\nedge s a b 1\n",
                "rank=2 class=III_2 a=(3,3) |S|=1\nwitness=a,s,b\n",
            ),
            (
                "vertex a 2\nvertex b 4\nedge s a b 1\n",
                "rank=2 class=III_3 a=(2,4) |S|=1\nwitness=a,s,b\n",
            ),
            (
                "vertex a 2\nvertex b 2\nedge e1 a b 1\nedge e2 b b 2\n",
                "rank=2 class=IV m=2 |S1|=1 |S2|=2\nwitness=a,e1,b,e2\n",
            ),
            (
                "vertex a 4\nvertex b 4\nvertex c 4\n"
                "edge e a b 2\nedge f b c 2\n",
                "rank=2 class=V m=4 |S1|=2 |S2|=2\nwitness=a,e,b,f,c\n",
            ),
        ],
        ids=["finite", "r1-i", "r2-i-loop", "r2-i-double-edge", "r2-ii",
             "r2-iii-2", "r2-iii-3", "r2-iv", "r2-v"],
    )
    def test_class_lines(self, gog_file, capsys, text, expected):
        code, out, _ = run(capsys, "classify", gog_file(text))
        assert code == 0
        assert out == expected


class TestLargeness:
    def test_dihedral(self, gog_file, capsys):
        code, out, _ = run(capsys, "largeness", gog_file(DIHEDRAL))
        assert code == 0
        lines = out.splitlines()
        assert "chi_negative=false" in lines
        assert "rank_ge_2=false" in lines
        assert "structural=false" in lines
        assert any(line.startswith("f_strictly_increasing=false") for line in lines)
        assert "ends=implied-equivalent (not computed)" in lines

    def test_c2c3_with_prefix(self, gog_file, capsys):
        code, out, _ = run(capsys, "largeness", "--prefix", "6", gog_file(C2C3))
        assert "f_strictly_increasing=true (prefix 6)" in out.splitlines()

    def test_prefix_cap(self, gog_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["largeness", "--prefix", "201", gog_file(DIHEDRAL)])
        assert exc.value.code == 2


def first_count_plus_one(f_series):
    def rigged(*args):
        f = f_series(*args)
        return [f[0] + 1] + f[1:]

    return rigged


def one_ratio_doubled(g_ratios):
    def rigged(*args):
        (p, q), *rest = g_ratios(*args)
        return [(2 * p, q), *rest]

    return rigged


def first_theta_plus_one(theta_coeffs):
    def rigged(*args):
        first, *rest = theta_coeffs(*args)
        return (first + 1, *rest)

    return rigged


VERIFY_USAGE = (
    "usage: vfree verify [-h] [--seed SEED] [--bound BOUND]\n"
    "                    {convolution,growth,ode,oracle,parity,all}\n"
)


class TestVerify:
    def test_parity_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "parity", "--bound", "16")
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--bound", "4")
        assert code == 0
        assert "FAIL" not in out

    def test_all_at_bound_1(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--seed", "3", "--bound", "1")
        assert code == 0
        assert out.splitlines() == [
            "PASS convolution-identity (1 random data, depth 12, seed 3)",
            "PASS ode-recurrence (5 data, 30 terms)",
            "PASS ode-dihedral-coefficients (1, 2)",
            "PASS parity-iii-{2,3}-odd-S (1 terms)",
            "PASS parity-iii-{2,4}-odd-S (1 terms)",
            "PASS parity-ii-constant (1 terms)",
            "PASS parity-i-constant (1 terms)",
            "PASS growth-bound (30 rank-2 data, lambda <= 1)",
            "PASS oracle-free-rank-2 (index <= 1)",
            "PASS oracle-free-rank-3 (index <= 1)",
            "PASS oracle-orientation-uniqueness (200 trees, seed 3)",
        ]

    @pytest.mark.parametrize("bound", ["0", "-1", "201"])
    def test_bound_cap(self, capsys, bound):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "growth", "--bound", bound])
        assert exc.value.code == 2
        assert "--bound must be in 1..200" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", VERIFY_USAGE + (
            "vfree verify: error: argument suite: invalid choice: 'bogus' (choose from "
            "'convolution', 'growth', 'ode', 'oracle', 'parity', 'all')\n"
        ))

    def test_help_lists_the_suites(self, capsys, monkeypatch):
        # the choices come from properties.SUITES, in sorted order, then "all"
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (VERIFY_USAGE + (
            "\n"
            "positional arguments:\n"
            "  {convolution,growth,ode,oracle,parity,all}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --seed SEED\n"
            "  --bound BOUND\n"
        ), "")

    def test_property_failure_exits_3(self, capsys, monkeypatch):
        import vfree.cli as cli

        def failing_suite(seed, bound):
            yield ("rigged-check", False, "forced failure")

        monkeypatch.setitem(cli.SUITES, "parity", (failing_suite, 1))
        code, out, _ = run(capsys, "verify", "parity")
        assert code == 3
        assert "FAIL rigged-check: forced failure" in out

    # each suite fails once the function it checks is perturbed
    @pytest.mark.parametrize(
        "suite, module, name, rig, failing",
        [
            ("convolution", counting, "_f", first_count_plus_one,
             "convolution-identity"),
            ("parity", counting, "f_series", first_count_plus_one, "parity-"),
            ("growth", counting, "f_series", first_count_plus_one, "growth-bound"),
            ("oracle", counting, "f_series", first_count_plus_one,
             "oracle-free-rank-"),
            ("ode", counting, "_g_ratios", one_ratio_doubled, "ode-recurrence"),
            ("ode", counting, "theta_coeffs", first_theta_plus_one, "ode-recurrence"),
            ("oracle", oracle, "orientation_uniqueness", lambda fn: lambda *a: False,
             "oracle-orientation-uniqueness"),
        ],
        ids=[
            "convolution", "parity", "growth", "oracle-counts", "ode", "ode-theta",
            "oracle-trees",
        ],
    )
    def test_perturbed_property_fails(
        self, capsys, monkeypatch, suite, module, name, rig, failing
    ):
        monkeypatch.setattr(module, name, rig(getattr(module, name)))
        code, out, _ = run(capsys, "verify", suite, "--bound", "3")
        assert code == 3
        assert any(line.startswith(f"FAIL {failing}") for line in out.splitlines())


class TestDeterminism:
    def test_byte_identical_reruns(self, gog_file, capsys):
        path = gog_file(C2C3)
        results = []
        for _ in range(2):
            code, out, err = run(capsys, "invariants", path)
            results.append((code, out, err))
        assert results[0] == results[1]

    @pytest.mark.parametrize("name", sorted(COUNT_ARGVS))
    def test_benchmark_count_outputs(self, capsys, monkeypatch, name):
        # the argvs name their inputs relative to the checkout root
        monkeypatch.chdir(ROOT)
        code, out, err = run(capsys, *COUNT_ARGVS[name])
        assert code == COUNT_DIGESTS[name]["rc"]
        assert hashlib.sha256(out.encode()).hexdigest() == COUNT_DIGESTS[name]["sha256"]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_benchmark_verify_all_output(self, capsys, seed):
        # every suite at its default bound, as the verify-corpus op runs it
        code, out, _ = run(capsys, "verify", "all", "--seed", str(seed))
        assert code == 0
        assert out.encode() == workloads.verify_expected(seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_benchmark_graph_outputs(self, tmp_path, capsys, monkeypatch, seed):
        # the generator derives each expected output from the shape it built
        # (which tree edges contract, and in what order), not from vfree
        ops = workloads.graph_ops(tmp_path, tmp_path, seed)
        monkeypatch.chdir(tmp_path)
        assert len(ops) == 6
        for op in ops:
            code, out, _ = run(capsys, *op.argv)
            assert op.expect.check(code, out.encode(), b""), op.name


class TestBenchmarkContract:
    def test_spanned_functions_exist(self):
        # the traced benchmark wraps each name listed in the shim's SPANNED
        # by attribute lookup, so deleting one would crash a traced run
        tree = ast.parse((ROOT / "perfbench" / "shim.py").read_text())
        spanned = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "SPANNED" for t in node.targets)
        )
        missing = [
            f"{module}.{name}"
            for module, names in spanned.items()
            for name in names
            if not callable(getattr(importlib.import_module(f"vfree.{module}"), name, None))
        ]
        assert spanned and missing == []

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quadratize.cli import main
from quadratize.polynomials import MAX_COEFFICIENT_DIGITS, MAX_EXPONENT

from conftest import allen_cahn_text


# Each bad --benchmark argument and the error it gives.
BAD_BENCHMARKS = {
    "nope:3": "unknown benchmark 'nope'",
    "rf:3": "rf does not take a size",
    "cubic_cycle": "cubic_cycle needs a size n > 1",
    "cubic_cycle:1": "cubic_cycle needs a size n > 1",
    "cubic_cycle:x": "benchmark size must be an integer, not 'x'",
    "cubic_cycle:": "benchmark size must be an integer, not ''",
    "scalar_power": "scalar_power needs an exponent n >= 1",
    # the parser's error, raised through benchmark_system
    f"scalar_power:{MAX_EXPONENT + 1}":
        f"line 1, column 6: term has more than {MAX_EXPONENT + 1} divisors",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInputs:
    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("x' = x^5\n")
        code, out, _ = run_cli(capsys, str(path))
        assert code == 0
        assert "z1 = x^4" in out
        assert "x' = x*z1" in out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x' = x^5\n"))
        code, out, _ = run_cli(capsys, "-")
        assert code == 0
        assert "z1 = x^4" in out

    def test_file_with_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("x' = x^5\n", encoding="utf-8-sig")
        code, out, err = run_cli(capsys, str(path))
        assert (code, err) == (0, "")
        assert "z1 = x^4" in out

    def test_stdin_with_byte_order_mark(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeffx' = x^5\n"))
        code, out, err = run_cli(capsys, "-")
        assert (code, err) == (0, "")
        assert "z1 = x^4" in out

    def test_stdin_when_no_path(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x' = x^2\n"))
        code, out, _ = run_cli(capsys)
        assert code == 0
        assert "already quadratic" in out

    def test_benchmark(self, capsys):
        code, out, _ = run_cli(capsys, "--benchmark", "cubic_cycle:3")
        assert code == 0
        assert "order 6" in out

    def test_benchmark_rf(self, capsys):
        code, out, _ = run_cli(capsys, "--benchmark", "rf", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["parameters"] == ["a", "b"]
        assert len(payload["new_variables"]) == 3


class TestExitCodes:
    def test_parse_error_is_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("x' = x^\n")
        code, _, err = run_cli(capsys, str(path))
        assert code == 1
        assert "line 1" in err

    def test_non_utf8_file_is_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("x' = \xe9*x^3\n".encode("latin-1"))
        code, out, err = run_cli(capsys, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("quadratize: error: ")

    def test_missing_file_is_1(self, capsys):
        code, _, err = run_cli(capsys, "/nonexistent/system.txt")
        assert code == 1
        assert "error" in err

    def test_unknown_flag_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "--frobnicate")
        assert code == 2

    def test_input_and_benchmark_conflict_is_2(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("x' = x^5\n")
        code, _, _ = run_cli(capsys, str(path), "--benchmark", "rf")
        assert code == 2

    @pytest.mark.parametrize("argument", list(BAD_BENCHMARKS))
    def test_bad_benchmark_is_2(self, capsys, argument):
        code, out, err = run_cli(capsys, "--benchmark", argument)
        assert code == 2
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("quadratize: error: ")]
        assert errors == [f"quadratize: error: {BAD_BENCHMARKS[argument]}"]
        assert "invalid literal" not in err

    # The ids keep the names these cases had when flag1 and flag2 were the
    # since-removed --no-prune-quadratic and --no-prune-c4 cases.
    @pytest.mark.parametrize("flag", [pytest.param(["--max-order", "3"], id="flag0"),
                                      pytest.param(["--stats"], id="flag3")])
    def test_search_option_with_laurent_is_2(self, capsys, flag):
        code, out, err = run_cli(capsys, "--benchmark", "rf", "--laurent", *flag)
        assert code == 2
        assert out == ""
        assert "--laurent takes none of the search options" in err

    def test_negative_max_order_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "--benchmark", "rf", "--max-order", "-1")
        assert code == 2

    @pytest.mark.parametrize("args", [["--benchmark", "cubic_cycle:3", "--stats"],
                                      ["--benchmark", "rf", "--laurent"]], ids=" ".join)
    def test_closed_stdout_is_141_without_a_traceback(self, args):
        # As in `quadratize ... | head -1` once head has exited: the read end
        # of the pipe is closed before anything is written.
        read_end, write_end = os.pipe()
        os.close(read_end)
        root = Path(__file__).resolve().parent.parent
        try:
            proc = subprocess.run([sys.executable, "-m", "quadratize", *args], stdout=write_end,
                                  stderr=subprocess.PIPE, cwd=root, timeout=60,
                                  env=dict(os.environ, PYTHONPATH=str(root / "src")))
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestOutputs:
    def test_structured_format(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x' = x^5\n"))
        code, out, _ = run_cli(capsys, "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["variables"] == ["x"]
        assert payload["new_variables"] == [
            {"name": "z1", "exponents": [4], "monomial": "x^4"}
        ]
        assert payload["equations"]["x"] == [{"coeff": "1", "factors": ["x", "z1"]}]
        assert payload["optimal"] is True
        assert payload["stats"]["optimal_order"] == 1

    def test_structured_output_is_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "--benchmark", "rf", "--format", "structured")
        _, out2, _ = run_cli(capsys, "--benchmark", "rf", "--format", "structured")
        assert out1 == out2

    def test_stats_block(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x' = x^5\n"))
        code, out, _ = run_cli(capsys, "--stats")
        assert code == 0
        assert "nodes_visited: 2" in out
        assert "  pruned_by_packing: 0\n" in out
        assert "  pruned_by_symmetry: 0\n" in out
        _, out, _ = run_cli(capsys, "--benchmark", "cubic_cycle:6", "--stats")
        assert "  pruned_by_symmetry: 19\n" in out

    def test_laurent_flag(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x1' = x2^4\nx2' = x1^2\n"))
        code, out, _ = run_cli(capsys, "--laurent")
        assert code == 0
        assert "x1^-1*x2^4" in out
        assert "not certified optimal" in out

    def test_max_order_below_optimum_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(allen_cahn_text(10)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--max-order", "5")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err == ("quadratize: error: no monomial quadratization with at most 5 "
                       "new variables; every one has at least 10\n")

    def test_new_names_avoid_every_input_name(self, capsys, monkeypatch):
        text = "z1' = z1^3\nw1' = 0\nu1' = 0\nq1' = 0\nzz1' = 0\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys)
        assert code == 0
        assert "zzz1 = z1^2" in out
        assert "  zz1' = 0\n" in out


class TestCoefficientBound:
    @pytest.mark.parametrize("text", ["x' = 7^30000000*x^3\n", "x' = 10^5000*x^3\n"])
    def test_over_large_coefficient_is_a_one_line_error(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        start = time.perf_counter()
        code, out, err = run_cli(capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == (f"quadratize: error: line 1, column 6: coefficient has more than "
                       f"{MAX_COEFFICIENT_DIGITS} digits\n")

    def test_largest_coefficient_renders_through_a_derivative(self, capsys, monkeypatch):
        largest = 10 ** MAX_COEFFICIENT_DIGITS - 1
        for fmt in ("text", "structured"):
            monkeypatch.setattr("sys.stdin", io.StringIO(f"x' = {largest}*x^3\n"))
            code, out, _ = run_cli(capsys, "--format", fmt)
            assert code == 0
            # z1 = x^2 and z1' = 2*x*x' = 2*largest*z1^2, one digit longer.
            assert str(2 * largest) in out

    def test_derivative_coefficient_longer_than_str_renders(self, capsys, monkeypatch):
        # z1 = x*y has z1' = (1/Q1 + 1/Q2)*z1^2, whose denominator Q1*Q2 has
        # about 8,000 digits, more than str() renders of an int.
        q1, q2 = 10 ** 3998 + 1, 10 ** 3998 + 3
        text = f"x' = 1/{q1}*x^2*y\ny' = 1/{q2}*x*y^2\n"
        # (Q1 + Q2)/(Q1*Q2) = (2*10^3998 + 4)/(10^7996 + 4*10^3998 + 3)
        zeros = "0" * 3997
        coeff = f"2{zeros}4/1{zeros}4{zeros}3"
        for options in ((), ("--format", "structured"), ("--laurent",)):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, err = run_cli(capsys, *options)
            assert (code, err) == (0, "")
            assert coeff in out


class TestExponentBound:
    @staticmethod
    def error(column):
        return (f"quadratize: error: line 1, column {column}: term has more than "
                f"{MAX_EXPONENT + 1} divisors\n")

    def test_huge_exponent_is_a_one_line_error(self, capsys, monkeypatch):
        # One above the bound, and one of 200 digits.
        for exponent in (MAX_EXPONENT + 1, 10 ** 200 - 1):
            monkeypatch.setattr("sys.stdin", io.StringIO(f"x' = x^{exponent}\n"))
            start = time.perf_counter()
            code, out, err = run_cli(capsys)
            assert time.perf_counter() - start < 1.0
            assert (code, out, err) == (1, "", self.error(6))

    # Each of the first four used to end in a traceback: Python could not
    # print the exponent, or the coefficient a derivative multiplies by it.
    # x^100*y^100*z^100 has 101^3 divisors: its search did not finish in 120 s.
    @pytest.mark.parametrize("text,column,options", [
        (f"x' = (x^{'9' * 3000})^{'9' * 3000}", 7, ()),
        (f"x' = (x^{'9' * 3000})^{'9' * 3000}", 7, ("--laurent",)),
        (f"x' = x^2 + (a^{'9' * 3000})^{'9' * 3000}", 13, ()),
        (f"x' = {'9' * 3999}*x^{'9' * 1000}", 4006, ("--laurent",)),
        ("x' = x^100*y^100*z^100\ny' = y\nz' = z", 18, ()),
        ("x' = x^100*y^100*z^100\ny' = y\nz' = z", 18, ("--laurent",)),
        (f"x' = x^2 + a^{MAX_EXPONENT + 1}", 12, ()),
        (f"x' = x^2 + a^{MAX_EXPONENT + 1}", 12, ("--laurent",)),
        ("x' = (x^1000)^1001", 6, ()),
    ])
    def test_over_long_exponent_is_a_one_line_error(self, capsys, monkeypatch,
                                                    text, column, options):
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *options)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", self.error(column))

    def test_largest_exponent_and_coefficient_render_under_laurent(self, capsys, monkeypatch):
        # z1 = x^(E-1) and z1' = (E-1)*C*z1^2, one exponent times the
        # largest coefficient.
        e, c = MAX_EXPONENT, 10 ** MAX_COEFFICIENT_DIGITS - 1
        for fmt in ("text", "structured"):
            monkeypatch.setattr("sys.stdin", io.StringIO(f"x' = {c}*x^{e}\n"))
            code, out, err = run_cli(capsys, "--laurent", "--format", fmt)
            assert (code, err) == (0, "")
            assert str((e - 1) * c) in out


"""The command line front end: verdicts, exit codes, report formats,
and byte-stable JSON output."""

import json
import math
import re
import sys
import time

import pytest

from lrhopf.cli import main
from lrhopf.dsl import MAX_EXPONENT, MAX_NESTING, MAX_TERMS, MAX_WORD_LENGTH

from conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes_on_good_file(capsys):
    code, out, err = run(capsys, "check", fixture_path("euler.lra"))
    assert code == 0
    assert "check: PASS" in out
    assert err == ""


def test_check_fails_on_broken_table(capsys):
    code, out, _ = run(capsys, "check", fixture_path("broken_jacobi.lra"))
    assert code == 1
    assert "jacobi-basis" in out
    assert "FAIL" in out


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "check", fixture_path("no_such.lra"))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_parse_error_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.lra"
    bad.write_text("algebra A { gens: y primitive }\nlie g { basis a; }\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error:" in err


def test_dual_commands_require_dual_block(capsys):
    code, _, err = run(capsys, "bialgebroid", fixture_path("euler.lra"))
    assert code == 2
    assert "dual block" in err
    code, _, err = run(capsys, "probe-conjecture", fixture_path("euler.lra"))
    assert code == 2
    assert "dual block" in err


def test_value_commands(capsys):
    code, out, _ = run(capsys, "nf", fixture_path("aff2.lra"), "x2*x1")
    assert code == 0
    assert out.strip() == "x1*x2 - x2"
    code, out, _ = run(capsys, "antipode", fixture_path("euler.lra"), "y*x")
    assert code == 0
    assert out.strip() == "y*x + y"
    code, out, _ = run(capsys, "counit", fixture_path("euler.lra"), "y*x + 1/2")
    assert code == 0
    assert out.strip() == "1/2"
    code, out, _ = run(capsys, "coproduct", fixture_path("euler.lra"), "x")
    assert code == 0
    assert out.strip() == "x (x) 1 + 1 (x) x"


def test_bad_expression_is_an_input_error(capsys):
    code, _, err = run(capsys, "nf", fixture_path("euler.lra"), "x*")
    assert code == 2
    assert "error:" in err


def test_json_report_schema(capsys):
    code, out, _ = run(
        capsys, "check", fixture_path("euler.lra"), "--json", "--seed", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["seed"] == 4
    assert payload["elapsed_ms"] == 0
    assert all(c["verdict"] == "pass" for c in payload["checks"])
    for c in payload["checks"]:
        assert set(c) <= {"name", "verdict", "witness"}


def test_json_value_schema(capsys):
    code, out, _ = run(capsys, "nf", fixture_path("aff2.lra"), "x2*x1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "x1*x2 - x2"
    assert payload["checks"] == []


def test_json_output_is_byte_stable(capsys):
    args = ("pbw", fixture_path("aff2.lra"), "--json", "--seed", "7",
            "--samples", "40")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_failing_json_report_carries_witnesses(capsys):
    code, out, _ = run(
        capsys, "check-bi", fixture_path("translation.lra"), "--json"
    )
    assert code == 1
    payload = json.loads(out)
    failing = {c["name"]: c.get("witness", "") for c in payload["checks"]
               if c["verdict"] == "fail"}
    assert "counit-annihilates-action" in failing
    assert "comultiplication-equivariance" in failing


def test_samples_flag_changes_work_not_output_shape(capsys):
    code, out, _ = run(
        capsys, "check", fixture_path("euler.lra"), "--samples", "5", "--json"
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "jacobi-random" in names


def test_probe_command_reports_all_axes(capsys):
    code, out, _ = run(
        capsys, "probe-conjecture", fixture_path("euler_dual.lra"), "--json"
    )
    assert code == 0
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert {"perturbation-constructed", "perturbed-multiplicative",
            "perturbed-coassociative", "perturbed-counital"} <= names


@pytest.mark.parametrize("argv", [
    ("check-hopf", "aff2.lra", "--samples", "-5"),
    ("check", "aff2.lra", "--samples", "0"),
    ("pbw", "aff2.lra", "--max-word", "-1"),
    ("check-bi", "aff2.lra", "--max-degree", "-1"),
    ("gerstenhaber", "aff2.lra", "--max-grade", "-2"),
])
def test_count_flags_below_their_floor_are_input_errors(capsys, argv):
    cmd, name, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([cmd, fixture_path(name), *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err


def test_division_by_zero_is_an_input_error(capsys):
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), "1/0")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: line 1:3: division by zero"


@pytest.mark.parametrize("expr, col", [("x1^3000", 4), ("y^99999999999", 3)])
def test_exponent_above_the_limit_is_an_input_error(capsys, expr, col):
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), expr)
    assert code == 2
    assert out == ""
    assert err.strip() == (
        f"error: line 1:{col}: exponent above the limit of {MAX_EXPONENT}"
    )


def test_power_at_the_exponent_limit_normalizes(capsys):
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), f"x1^{MAX_EXPONENT}")
    assert code == 0
    assert out.strip() == f"x1^{MAX_EXPONENT}"
    assert err == ""


@pytest.mark.parametrize("expr, col, length", [
    ("(x1^100)^100", 9, 10000),
    ("(x2*x1)^100", 8, 200),
    (f"x1^100*x1^{MAX_WORD_LENGTH - 99}", 7, MAX_WORD_LENGTH + 1),
])
def test_nested_powers_above_the_word_length_limit_are_input_errors(capsys, expr, col, length):
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), expr)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.strip() == (
        f"error: line 1:{col}: a word of length {length} is above the limit of "
        f"{MAX_WORD_LENGTH}"
    )


def test_product_at_the_word_length_limit_normalizes(capsys):
    expr = f"x1^100*x1^{MAX_WORD_LENGTH - 100}"
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), expr)
    assert code == 0
    assert out.strip() == f"x1^{MAX_WORD_LENGTH}"
    assert err == ""


@pytest.mark.parametrize("expr, col", [
    ("(E11+E12+E21+E22+y1)^40", 21),
    ("(E11+E12+E21+E22)^6*(E11+E12+E21+E22)^6", 20),
])
def test_products_above_the_term_limit_are_input_errors(capsys, expr, col):
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", fixture_path("gl2.lra"), expr)
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert out == ""
    match = re.fullmatch(
        rf"error: line 1:{col}: a product of (\d+) pairs of terms is above the "
        rf"limit of {MAX_TERMS}\n", err
    )
    assert match and int(match.group(1)) > MAX_TERMS


@pytest.mark.parametrize("fixture, letter, n", [("euler.lra", "x", 20), ("aff2.lra", "x1", 18)])
def test_long_word_times_a_coefficient_normalizes_quickly(capsys, fixture, letter, n):
    # letter(y) = y, so letter^n * y = y * (letter + 1)^n
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", fixture_path(fixture), f"{letter}^{n}*y")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert err == ""
    pieces = []
    for k in range(n, -1, -1):
        coeff = "y" if math.comb(n, k) == 1 else f"{math.comb(n, k)}*y"
        word = "" if k == 0 else letter if k == 1 else f"{letter}^{k}"
        pieces.append(f"{coeff}*{word}" if word else coeff)
    assert out.strip() == " + ".join(pieces)


def test_power_of_a_sum_with_a_coefficient_hits_the_term_limit_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), "(x1+x2+y)^30")
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    match = re.fullmatch(
        rf"error: line 1:10: a product of (\d+) pairs of terms is above the "
        rf"limit of {MAX_TERMS}\n", err
    )
    assert match and int(match.group(1)) > MAX_TERMS


@pytest.mark.parametrize("expr, code, out, err", [
    ("(" * 1200 + "x1" + ")" * 1200, 2, "",
     f"error: line 1:{MAX_NESTING + 1}: parentheses nested deeper than the limit of "
     f"{MAX_NESTING}\n"),
    ("x1" + "+x1" * 3000, 0, "3001*x1\n", ""),
    ("x1+" + "-" * 3000 + "x1", 0, "2*x1\n", ""),
    ("x1" + "*y" * 1500, 0, "y^1500*x1 + 1500*y^1500\n", ""),
], ids=["nested-parentheses", "long-sum", "run-of-minus-signs", "long-product"])
def test_deep_or_long_expressions_end_with_a_value_or_an_input_error(capsys, expr, code,
                                                                     out, err):
    # each used to exhaust the stack and exit 3 (an internal error)
    start = time.perf_counter()
    got = run(capsys, "nf", fixture_path("aff2.lra"), expr)
    assert time.perf_counter() - start < 5.0
    assert got == (code, out, err)


def test_nesting_at_the_limit_normalizes(capsys):
    expr = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert run(capsys, "nf", fixture_path("aff2.lra"), expr) == (0, "x1\n", "")


@pytest.mark.parametrize("target, argv, exc, line", [
    # a message over two lines is printed on one
    ("check_lr_axioms", ("check", "euler.lra"), RuntimeError("broken\nbattery"),
     "error: internal error: RuntimeError: broken battery"),
    ("coproduct", ("coproduct", "aff2.lra", "x1*x2"), RecursionError("too deep"),
     "error: internal error: RecursionError: too deep"),
], ids=["battery", "value"])
def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch, target, argv,
                                                      exc, line):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(f"lrhopf.cli.{target}", fail)
    command, fixture, *rest = argv
    code, out, err = run(capsys, command, fixture_path(fixture), *rest)
    assert code == 3
    assert out == ""
    assert err == line + "\n"
    assert "Traceback" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts decimal literals of any length")
@pytest.mark.parametrize("prefix", ["", "x1 + 1/"], ids=["literal", "denominator"])
def test_an_overlong_integer_literal_is_an_input_error_at_its_column(capsys, prefix):
    digits = "7" * (sys.get_int_max_str_digits() + 700)
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), prefix + digits)
    assert (code, out) == (2, "")
    column = len(prefix) + 1
    assert err == f"error: line 1:{column}: integer literal of {len(digits)} digits is too long\n"


def test_an_expression_starting_with_a_minus_goes_after_a_double_dash(capsys):
    assert run(capsys, "nf", fixture_path("aff2.lra"), "--", "-x1") == (0, "-x1\n", "")

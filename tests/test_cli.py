"""The command line front end: verdicts, exit codes, report formats,
and byte-stable JSON output."""

import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

from lrhopf.cli import MAX_SAMPLES, MAX_WORD_PAIRS, _refuse_huge, build_parser, main
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


def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.lra"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


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


def test_the_factors_of_a_power_share_the_term_limit(capsys):
    # each factor of (x1+x2)^100 is below the limit on its own until the
    # 72nd; their sum crosses it long before
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), "(x1+x2)^100")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    match = re.fullmatch(
        rf"error: line 1:8: a product of (\d+) pairs of terms is above the "
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


def _python(*args, **kwargs):
    """Run a Python subprocess that imports this checkout's lrhopf."""
    import lrhopf

    src = os.path.dirname(os.path.dirname(os.path.abspath(lrhopf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both cost start-up time on every command; compare with what a bare
    # interpreter (site and all) has already loaded
    code = ("import sys; before = set(sys.modules); import lrhopf.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    added = _python("-c", code, check=True).stdout.split()
    assert "lrhopf.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


@pytest.mark.parametrize("argv, flag", [
    (("check-hopf", "aff2.lra", "--max-word", "40"), "--max-word 40"),
    (("pbw", "aff2.lra", "--max-word", "60"), "--max-word 60"),
    (("probe-conjecture", "heis_dual.lra", "--max-word", "400"), "--max-word 400"),
    (("check", "aff2.lra", "--samples", "100000000"), "--samples 100000000"),
    (("gerstenhaber", "gl2.lra", "--samples", str(MAX_SAMPLES + 1)), "--samples 10001"),
])
def test_a_battery_above_its_ceiling_is_refused_at_once(argv, flag):
    cmd, name, *flags = argv
    # without the ceilings, the first, second and fourth were still running after 20 s
    done = _python("-m", "lrhopf.cli", cmd, fixture_path(name), *flags, "--json", timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith(f"error: {flag}")
    assert "ceiling" in done.stderr


def _gl3():
    from lrhopf.dsl import parse_structure_file

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "fixtures_large", "gl3.lra"), encoding="utf-8") as fh:
        return parse_structure_file(fh.read()).build()[0]


def test_the_ceilings_admit_the_largest_requests_in_use():
    assert math.comb(9 + 3, 3) ** 2 <= MAX_WORD_PAIRS < math.comb(9 + 4, 4) ** 2
    gl3 = _gl3()
    _refuse_huge(build_parser().parse_args(["check-hopf", "gl3.lra", "--max-word", "3"]), gl3)
    _refuse_huge(build_parser().parse_args(["pbw", "gl3.lra", "--samples", str(MAX_SAMPLES)]), gl3)
    with pytest.raises(ValueError):
        _refuse_huge(build_parser().parse_args(["check-hopf", "gl3.lra", "--max-word", "4"]), gl3)


@pytest.mark.parametrize("command, expression, want", [
    ("nf", "t^-2*x", "t^-2*x"),
    ("nf", "x*t^-1", "t^-1*x - t^-1"),
    ("coproduct", "t^-1*x", "t^-1*x (x) t^-1 + t^-1 (x) t^-1*x"),
    ("counit", "t^-1 + x", "1"),
    ("antipode", "t^-1*x", "-t*x - t"),
])
def test_expressions_take_negative_powers_of_units(capsys, command, expression, want):
    code, out, err = run(capsys, command, fixture_path("torus.lra"), expression)
    assert (code, out.strip(), err) == (0, want, "")


@pytest.mark.parametrize("fixture, expression", [
    ("aff2.lra", "y^-1"), ("torus.lra", "x^-1"), ("torus.lra", "(t*x)^-1")])
def test_negative_powers_of_non_units_are_refused(capsys, fixture, expression):
    code, out, err = run(capsys, "nf", fixture_path(fixture), expression)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

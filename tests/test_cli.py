"""The command line front end: verdicts, exit codes, report formats,
and byte-stable JSON output."""

import hashlib
import json
import math
import os
import re
import sys
import time

import pytest

from lrhopf.cli import (MAX_ANTIPODE_INVERSIONS, MAX_COPRODUCT_DEGREE, MAX_COPRODUCT_TERMS,
                        MAX_DEGREE, MAX_PBW_LAYER_WORDS, MAX_SAMPLES, MAX_WORD_PAIRS,
                        PBW_LAYERS, _refuse_huge, _refuse_huge_antipode,
                        _refuse_huge_coproduct, build_parser, main)
from lrhopf.dsl import MAX_EXPONENT, MAX_INVERSIONS, MAX_NESTING, MAX_TERMS, MAX_WORD_LENGTH

from conftest import fixture_path, run_python


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


def test_check_bi_refuses_a_broken_table_through_its_tensor_square(capsys):
    # check_bi_lr refuses the tensor square when its one pass of the axioms
    # fails a basis law, as the validating constructor does, and the
    # broken Jacobi identity is reported as an input error
    code, out, err = run(capsys, "check-bi", fixture_path("broken_jacobi.lra"))
    assert code == 2
    assert out == ""
    assert err == ("error: not a Lie-Rinehart structure: jacobi-basis: "
                   "basis triple ('x1', 'x2', 'x3') gives x3\n")


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


def test_a_digit_that_int_does_not_read_is_an_unexpected_character(capsys):
    # a superscript two is a digit to str.isdigit, but int() refuses it
    code, out, err = run(capsys, "nf", fixture_path("euler.lra"), "x^\u00b2")
    assert (code, out) == (2, "")
    assert err == "error: line 1:3: unexpected character '\u00b2'\n"
    # a decimal digit of another script is an integer literal, as int() reads it
    assert run(capsys, "nf", fixture_path("euler.lra"), "\u0663*x") == (0, "3*x\n", "")


def test_an_expression_starting_with_a_minus_goes_after_a_double_dash(capsys):
    assert run(capsys, "nf", fixture_path("aff2.lra"), "--", "-x1") == (0, "-x1\n", "")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both cost start-up time on every command; compare with what a bare
    # interpreter (site and all) has already loaded
    code = ("import sys; before = set(sys.modules); import lrhopf.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    added = run_python("-c", code, check=True).stdout.split()
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
    done = run_python("-m", "lrhopf.cli", cmd, fixture_path(name), *flags, "--json", timeout=10)
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
    _refuse_huge(build_parser().parse_args(["check-hopf", "gl3.lra", "--max-degree", "2"]), gl3)


def test_pbw_is_bounded_by_its_layer_law_not_by_word_pairs(tmp_path):
    # pbw runs no word x word law: the word-pair ceiling, which refused it
    # at its defaults from gl4 on, bounds check-hopf and probe-conjecture
    # alone; pbw's own ceiling counts the words its layer law multiplies out
    from lrhopf.dsl import parse_structure_file
    from make_gln import gln_text

    parse = build_parser().parse_args
    gl4 = parse_structure_file(gln_text(4)).build()[0]
    assert math.comb(16 + PBW_LAYERS, 16) - 1 <= MAX_PBW_LAYER_WORDS
    _refuse_huge(parse(["pbw", "gl4.lra"]), gl4)
    _refuse_huge(parse(["pbw", "gl3.lra"]), _gl3())
    for command in ("check-hopf", "probe-conjecture"):
        with pytest.raises(ValueError, match="pairs of normal words"):
            _refuse_huge(parse([command, "gl4.lra", "--max-word", "3"]), gl4)
    # gl6: 749,397 words, refused before the battery starts, in one line
    path = tmp_path / "gl6.lra"
    path.write_text(gln_text(6), encoding="utf-8")
    done = run_python("-m", "lrhopf.cli", "pbw", str(path), timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("error: pbw's layer law would multiply out 749397 normal words on "
                           f"this structure (rank 36), above the ceiling of "
                           f"{MAX_PBW_LAYER_WORDS}\n")


def _parsed(name, expr):
    from lrhopf.dsl import parse_env_element, parse_structure_file

    with open(fixture_path(name), encoding="utf-8") as fh:
        S = parse_structure_file(fh.read()).build()[0]
    return parse_env_element(expr, S)


@pytest.mark.parametrize("name, expr", [
    # the largest coproduct of the benchmark's CLI requests (102 monomials)
    ("gl2.lra", "E22*E21*E12*E11*y1"),
    # the golden value commands take the square of the sum of the basis
    ("gl2.lra", "(E11 + E12 + E21 + E22)^2"),
    ("sl2.lra", "(e + f + h)^2"),
    # the packaged console script's coproducts in CI
    ("aff2.lra", "y^2*x1^2"),
    ("torus.lra", "t^-1*x"),
    # at the ceilings: 200 * 100 monomials, and a monomial of degree 200
    ("aff2.lra", "y^100*y^99*x1^99"),
    ("gl2.lra", "y1^100*y2^100"),
])
def test_the_coproduct_ceilings_admit_the_arguments_in_use(name, expr):
    _refuse_huge_coproduct(_parsed(name, expr))


@pytest.mark.parametrize("name, expr, message", [
    # coproduct_A(y^10000): the command was still running after 150 s
    ("aff2.lra", "(y^100)^100",
     f"a coefficient of degree 10000 is above the coproduct's ceiling of {MAX_COPRODUCT_DEGREE}"),
    # 33^4 splits of one word of length 128: still running after 30 s
    ("gl2.lra", "E11^32*E12^32*E21^32*E22^32",
     f"a coproduct of up to {33 ** 4} terms is above the ceiling of {MAX_COPRODUCT_TERMS}"),
    ("aff2.lra", "y^100*y^100*x1^99",
     f"a coproduct of up to {201 * 100} terms is above the ceiling of {MAX_COPRODUCT_TERMS}"),
])
def test_a_coproduct_above_its_ceiling_is_refused_at_once(capsys, name, expr, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "coproduct", fixture_path(name), expr)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_max_degree_above_its_ceiling_is_refused_at_once(capsys):
    # without the ceiling, check-hopf on aff2 was still running after 20 s
    start = time.perf_counter()
    code, out, err = run(capsys, "check-hopf", fixture_path("aff2.lra"), "--max-degree", "100000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: --max-degree 100000 is above the ceiling of {MAX_DEGREE}\n"


@pytest.mark.parametrize("name, expr, col, pairs", [
    # each ran for seconds to minutes before the limit: 4.8 s, killed at
    # 20 s, 0.74 s and 50 s
    ("gl2.lra", "E22^16*E21^16*E12^16*E11^16", 14, 6_528),
    ("gl2.lra", "E22^32*E21^32*E12^32*E11^32", 14, 50_688),
    ("gl2.lra", "E22^10*E21^10*E12^10*E11^10", 21, 48_150),
    ("sl2.lra", "h^40*f^40*e^40", 10, 98_400),
    # just above the limit: 101 letters of the left words above 50
    ("aff2.lra", "(x2^60 + x2^40 + x2)*x1^50", 21, MAX_INVERSIONS + 50),
])
def test_products_above_the_inversion_limit_are_input_errors(capsys, name, expr, col, pairs):
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", fixture_path(name), expr)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: line 1:{col}: a product with {pairs} pairs of letters to reorder "
                   f"is above the limit of {MAX_INVERSIONS}\n")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_a_product_at_the_inversion_limit_normalizes(capsys):
    # 100 letters of the left words above 50 of the right word: exactly the
    # limit, admitted with the value it had before the limit
    code, out, err = run(capsys, "nf", fixture_path("aff2.lra"), "(x2^60 + x2^40)*x1^50")
    assert (code, err, _digest(out)) == (0, "", "1858716aa4b2137a")


@pytest.mark.parametrize("name, expr, inversions", [
    # 12.9 s, 52 s and 5.7 s before the ceiling
    ("gl2.lra", "E11^16*E12^16*E21^16*E22^16", 1536),
    ("gl2.lra", "E11^20*E12^20*E21^20*E22^20", 2400),
    ("aff2.lra", "x1^64*x2^64", 4096),
    ("gl2.lra", "E11^32*E12^32*E21^32*E22^32", 6144),
    # each monomial of a costs a product S(w) S_A(y^e): 19 s before
    ("gl2.lra", "(1+y1)^60*E11^10*E12^10*E21^10*E22^10", 61 * 600),
    ("sl2.lra", "e^20*f^40 + e*f", MAX_ANTIPODE_INVERSIONS + 1),
])
def test_an_antipode_above_its_ceiling_is_refused_at_once(capsys, name, expr, inversions):
    start = time.perf_counter()
    code, out, err = run(capsys, "antipode", fixture_path(name), expr)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: an antipode with {inversions} letter pairs to reorder is above "
                   f"the ceiling of {MAX_ANTIPODE_INVERSIONS}\n")


def test_an_antipode_at_its_ceiling_is_computed(capsys):
    # 20 * 40 pairs of e and f out of order: exactly the ceiling, admitted
    # with the value it had before the ceiling
    code, out, err = run(capsys, "antipode", fixture_path("sl2.lra"), "e^20*f^40")
    assert (code, err, _digest(out)) == (0, "", "ce9fcbf3c932c2d1")


def _value_inputs():
    """(fixture, expression) of every value command the goldens, the
    benchmark and CI run."""
    here = os.path.dirname(os.path.abspath(__file__))
    inputs = []
    for name in sorted(os.listdir(os.path.join(here, "goldens"))):
        with open(os.path.join(here, "goldens", name), encoding="utf-8") as fh:
            record = json.load(fh)
        inputs += [(record[cmd]["argv"][1], record[cmd]["argv"][2])
                   for cmd in ("nf", "coproduct", "counit", "antipode")]
    # read-only: no bytecode is written next to the benchmark
    bench = os.path.join(os.path.dirname(here), "perfbench")
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, bench)
    try:
        from workloads import EXPRESSIONS
    finally:
        sys.path.remove(bench)
        sys.dont_write_bytecode = dont_write
    inputs += [(f"{name}.lra", expr) for name, expr in EXPRESSIONS.items()]
    inputs += [("aff2.lra", "x2*x1"), ("torus.lra", "t^-1*x"), ("torus.lra", "x^2*t^-1"),
               ("aff2.lra", "y^2*x1^2")]
    return inputs


def test_the_inversion_ceilings_admit_every_value_request_in_use():
    inputs = _value_inputs()
    assert len(inputs) == 4 * 11 + 11 + 4
    for name, expr in inputs:
        # parsing applies the expression limits
        _refuse_huge_antipode(_parsed(name, expr))


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

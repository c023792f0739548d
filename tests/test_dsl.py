"""The declaration language: tokens, expressions, blocks, and the
equivalence of parsed structures with programmatically built ones."""

from fractions import Fraction

import pytest

from lrhopf import EnvElement, ParseError, parse_env_element, parse_structure_file
from lrhopf.dsl import parse_expression, tokenize

from conftest import build_aff2, build_euler, build_gl2, read_fixture


def test_tokenizer_idents_primes_comments():
    toks = tokenize("y'' + x1 # trailing words\n* 3/2")
    kinds = [(t.kind, t.text) for t in toks]
    assert kinds == [
        ("ident", "y''"),
        ("+", "+"),
        ("ident", "x1"),
        ("*", "*"),
        ("int", "3"),
        ("/", "/"),
        ("int", "2"),
        ("end", ""),
    ]


def test_tokenizer_rejects_stray_characters():
    with pytest.raises(ParseError, match="line 2"):
        tokenize("x\n  @")


def test_expression_precedence():
    # 1 + 2 * 3 ^ 2 parses as 1 + (2 * (3 ^ 2))
    ast = parse_expression("1 + 2 * 3 ^ 2")
    assert ast[0] == "add"
    assert ast[2][0] == "mul"
    assert ast[2][2][0] == "pow"


def test_expression_unary_minus_binds_looser_than_power():
    from lrhopf.dsl import eval_ast
    value = eval_ast(parse_expression("-2^2"), {}, constant=Fraction)
    assert value == Fraction(-4)


def test_expression_rationals_and_division():
    from lrhopf.dsl import eval_ast
    assert eval_ast(parse_expression("3/2"), {}, constant=Fraction) == Fraction(3, 2)
    assert eval_ast(parse_expression("(1 + 1/3)/2"), {}, constant=Fraction) == Fraction(2, 3)


def test_parsed_structures_match_programmatic():
    for name, builder in (
        ("euler.lra", build_euler),
        ("aff2.lra", build_aff2),
        ("gl2.lra", build_gl2),
    ):
        decl = parse_structure_file(read_fixture(name))
        S, dual = decl.build()
        assert dual is None
        assert S == builder(), name


def test_bracket_orientation_is_normalized():
    text = """
    algebra A { gens: }
    lie g {
        basis: a, b;
        bracket [b, a] = -b;
    }
    """
    S, _ = parse_structure_file(text).build()
    ref, _ = parse_structure_file(
        "algebra A { gens: }\nlie g { basis: a, b; bracket [a, b] = b; }"
    ).build()
    assert S == ref


def test_dual_block_round_trip():
    decl = parse_structure_file(read_fixture("heis_dual.lra"))
    S, dual = decl.build()
    assert dual is not None
    assert list(dual.basis_names) == ["d1", "d2", "d3"]
    assert dual.algebra == S.algebra


def test_build_leaves_validation_to_batteries():
    # a broken table still builds; the check batteries judge it
    decl = parse_structure_file(read_fixture("broken_jacobi.lra"))
    S, _ = decl.build()
    from lrhopf import check_lr_axioms
    assert not check_lr_axioms(S, seed=0, samples=5).ok


def test_build_validation_flag():
    decl = parse_structure_file(read_fixture("broken_jacobi.lra"))
    with pytest.raises(ValueError):
        decl.build(validate=True)


def test_parse_errors_name_their_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_structure_file("algebra A { gens: y primitive } lie g { bracket [a,a] = 0; }")
    with pytest.raises(ParseError, match="missing algebra block"):
        parse_structure_file("lie g { basis: a; }")


def test_build_errors_report_bad_statements():
    def build(text):
        return parse_structure_file(text).build()

    with pytest.raises(ParseError, match="unknown basis element"):
        build("algebra A { gens: }\nlie g { basis: a; bracket [a, c] = 0; }")
    with pytest.raises(ParseError, match="unknown algebra generator"):
        build("algebra A { gens: }\nlie g { basis: a; }\naction { a(q) = 1; }")
    with pytest.raises(ParseError, match="given twice"):
        build(
            "algebra A { gens: }\n"
            "lie g { basis: a, b; bracket [a, b] = b; bracket [b, a] = a; }"
        )
    with pytest.raises(ParseError, match="linear"):
        build("algebra A { gens: }\nlie g { basis: a, b; bracket [a, b] = a*b; }")
    with pytest.raises(ParseError, match="itself"):
        build("algebra A { gens: }\nlie g { basis: a; bracket [a, a] = 0; }")


def test_marker_errors_are_parse_errors():
    with pytest.raises(ParseError, match="group_like"):
        parse_structure_file("algebra A { gens: t group_like }\nlie g { basis: x; }")


def test_env_expression_evaluation():
    S = build_aff2()
    u = parse_env_element("x2*x1", S)
    assert str(u) == "x1*x2 - x2"
    v = parse_env_element("(x1 + y)^2 - x1^2 - y^2 - 2*y*x1", S)
    assert v == EnvElement.from_poly(S, S.algebra.gen(0))
    w = parse_env_element("y*x1/2 + y*x1/2", S)
    assert str(w) == "y*x1"


def test_env_expression_order_matters():
    S = build_aff2()
    assert parse_env_element("x1*x2", S) != parse_env_element("x2*x1", S)


def test_env_expression_unknown_name():
    S = build_euler()
    with pytest.raises(ParseError, match="unknown name"):
        parse_env_element("x*q", S)


def test_env_expression_rejects_negative_word_power():
    S = build_euler()
    with pytest.raises(ParseError):
        parse_env_element("x^-1", S)
    T = parse_structure_file(read_fixture("torus.lra")).build()[0]
    for text in ("x^-1", "(t*x)^-1", "(t + x)^-1"):
        with pytest.raises(ParseError):
            parse_env_element(text, T)


def test_env_expression_takes_negative_powers_of_units():
    # a pure coefficient is raised in A, where a unit has negative powers
    S = parse_structure_file(read_fixture("torus.lra")).build()[0]
    t = S.algebra.gen(0)
    x = EnvElement.generator(S, 0)
    assert parse_env_element("t^-2*x", S).terms == {(0,): t ** -2}
    # x t^-1 = t^-1 x + x(t^-1) = t^-1 x - t^-1
    assert parse_env_element("x*t^-1", S) == EnvElement(S, {(0,): t ** -1, (): -(t ** -1)})
    assert parse_env_element("(2*t)^-1*x", S) == (t ** -1 * Fraction(1, 2)) * x
    assert parse_env_element("t^-1*t", S) == EnvElement.one(S)
    for text in ("(t + 1)^-1", "0^-1"):
        with pytest.raises(ParseError, match="not a unit"):
            parse_env_element(text, S)


def test_long_sum_in_a_structure_file_evaluates(tmp_path, capsys):
    # structure files share eval_ast: 3000 summands do not recurse
    from lrhopf.cli import main
    text = read_fixture("euler.lra").replace("x(y) = y;", "x(y) = y" + " + y" * 2999 + ";")
    S, _ = parse_structure_file(text).build()
    y = S.algebra.gen(0)
    assert S.anchor[0](y) == y * 3000
    path = tmp_path / "long_sum.lra"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    assert "check: PASS" in capsys.readouterr().out

"""A fuzz of the declaration language and the CLI that reads it.

Hostile or malformed input must end with an input error: the parsers may
raise only ParseError or ValueError, and the CLI must exit 0, 1 or 2
(never 3, an internal error) within a time bound.  Inputs are spliced from
the language's own tokens, or generated from the expression grammar, so
most of them get past the tokenizer and many reach evaluation.  Every
case this fuzz finds becomes a regression test in test_cli.py."""

import contextlib
import io
import os
import tempfile
import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from lrhopf.cli import main  # noqa: E402
from lrhopf.dsl import (  # noqa: E402
    ParseError,
    parse_env_element,
    parse_expression,
    parse_structure_file,
    tokenize,
)

from conftest import FIXTURES, fixture_path, read_fixture  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
CLI_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
SECONDS = 5.0

TEXTS = {
    name: read_fixture(name)
    for name in sorted(os.listdir(FIXTURES)) if name.endswith(".lra")
}
AFF2 = parse_structure_file(TEXTS["aff2.lra"]).build()[0]

PIECES = (
    list("{}()[],;:=+-*^/#'@\n\t ")
    + ["x1", "x2", "y", "t", "z", "0", "1", "2", "3", "12", "100", "101", "007"]
    + ["algebra", "lie", "action", "dual", "basis", "bracket", "anchor", "gens",
       "primitive", "group_like", "invertible", "[x1, x2] =", "x1(y) =", "A {"]
)
snippets = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)
texts = st.one_of(snippets, st.text(max_size=24))


def expressions(names):
    """Well-formed expressions over `names`: sums, products, negations,
    powers (negative ones included) and divisions, zero among them."""
    return st.recursive(
        st.sampled_from(list(names) + ["0", "1", "2"]),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
            inner.map("({})".format),
            inner.map("-{}".format),
            st.tuples(inner, st.sampled_from(("^-2", "^0", "^3", "^12"))).map(
                lambda t: f"({t[0]}){t[1]}"),
            st.tuples(inner, st.sampled_from(("/0", "/3"))).map("".join),
        ),
        max_leaves=12,
    )


aff2_texts = st.one_of(texts, expressions(("x1", "x2", "y")))


@st.composite
def spliced_files(draw):
    """A fixture with a run of its text replaced by a snippet."""
    text = TEXTS[draw(st.sampled_from(sorted(TEXTS)))]
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 12)))
    return text[:i] + draw(texts) + text[j:]


def only_input_errors(parse, text):
    try:
        parse(text)
    except (ParseError, ValueError):
        pass


def run_cli(argv):
    """The exit code of main() and the seconds it took, output discarded."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, time.perf_counter() - start


@SETTINGS
@given(text=texts)
def test_tokenize_and_parse_expression_raise_only_input_errors(text):
    only_input_errors(tokenize, text)
    only_input_errors(parse_expression, text)


@SETTINGS
@given(text=aff2_texts)
def test_parse_env_element_raises_only_input_errors(text):
    start = time.perf_counter()
    only_input_errors(lambda t: parse_env_element(t, AFF2), text)
    assert time.perf_counter() - start < SECONDS


@SETTINGS
@given(text=spliced_files())
def test_parse_structure_file_raises_only_input_errors(text):
    only_input_errors(lambda t: parse_structure_file(t).build(), text)


@CLI_SETTINGS
@given(command=st.sampled_from(("nf", "coproduct", "counit", "antipode")), expr=aff2_texts)
def test_cli_value_commands_exit_with_a_value_or_an_input_error(command, expr):
    # "--" lets an expression start with a minus sign
    code, seconds = run_cli([command, fixture_path("aff2.lra"), "--", expr])
    assert code in (0, 2)
    assert seconds < SECONDS


@CLI_SETTINGS
@given(text=spliced_files())
def test_cli_check_on_spliced_files_exits_with_a_verdict_or_an_input_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spliced.lra")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, seconds = run_cli(["check", path, "--samples", "2"])
    assert code in (0, 1, 2)
    assert seconds < SECONDS

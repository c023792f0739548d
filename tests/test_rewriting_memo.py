"""The per-structure memos of the rewriting (coefficient push and letter
swap) and of the antipode against their letter-by-letter oracles
(tests/rewriting_oracle.py), term for term, and on words longer than the
default recursion limit."""

import itertools
import os
import sys

import pytest

from lrhopf import (
    CommutativeAlgebra,
    Derivation,
    EnvElement,
    GeneratorDecl,
    LieRinehartAlgebra,
    antipode,
)
from lrhopf.dsl import parse_structure_file
from lrhopf.sampling import make_rng, random_env_element, random_poly

from conftest import FIXTURES, build_a_valued, read_fixture
import rewriting_oracle as oracle

_NAMES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".lra")) + ["a-valued"]


def _fresh(name):
    """A newly built structure, so every memo starts empty."""
    if name == "a-valued":
        return build_a_valued()
    return parse_structure_file(read_fixture(name)).build()[0]


def _words(S, max_len=4):
    return [w for p in range(max_len + 1)
            for w in itertools.combinations_with_replacement(range(S.rank), p)]


@pytest.mark.parametrize("name", _NAMES)
def test_word_times_poly_matches_the_recursive_oracle(name):
    # the coefficient push, through the public product word * b; shortest
    # words first reuse the memo of their prefixes, longest first walk down
    # through prefixes the memo does not hold yet
    for longest_first in (False, True):
        S = _fresh(name)
        A = S.algebra
        rng = make_rng(41)
        coefficients = list(A.monomials_up_to(2))
        coefficients += [random_poly(rng, A, 3, terms=3) for _ in range(12)]
        words = _words(S)
        if longest_first:
            words.reverse()
        for w in words:
            for b in coefficients:
                product = EnvElement(S, {w: 1}) * EnvElement.from_poly(S, b)
                assert product.terms == oracle.word_times_poly(S, w, b), (
                    f"{name}: {w} times {b}")


@pytest.mark.parametrize("name", _NAMES)
def test_word_times_gen_matches_the_recursive_oracle(name):
    # the letter swap, through the public product word * e_i; longest
    # words first walk down through prefixes the cache does not hold yet,
    # shortest first find every prefix filled
    for longest_first in (False, True):
        S = _fresh(name)
        words = _words(S)
        if longest_first:
            words.reverse()
        for w in words:
            for i in range(S.rank):
                product = EnvElement(S, {w: 1}) * EnvElement.generator(S, i)
                assert product.terms == oracle.word_times_gen(S, w, i), (
                    f"{name}: {w} times letter {i}")


@pytest.mark.parametrize("name", _NAMES)
def test_antipode_matches_the_letter_by_letter_oracle(name):
    S = _fresh(name)
    A = S.algebra
    rng = make_rng(43)
    inputs = [EnvElement(S, {w: A.one()}) for w in _words(S)]
    inputs += [random_env_element(rng, S, max_word=4, max_degree=2, terms=3)
               for _ in range(40)]
    inputs.append(sum(inputs[:6], EnvElement.zero(S)) ** 2)
    for u in inputs:
        assert antipode(u).terms == oracle.antipode(u).terms, f"{name}: antipode of {u}"


def test_a_product_by_one_and_the_antipode_of_a_unit_word_copy_nothing():
    S = _fresh("gl2.lra")
    one = EnvElement.one(S)
    u = random_env_element(make_rng(47), S, max_word=3, max_degree=2, terms=3)
    assert u * one is u
    assert one * u is u
    # S(w) * S_A(1) is the memoized S(w) itself
    w = EnvElement(S, {(0, 1, 3): S.algebra.one()})
    assert antipode(w) is antipode(w)
    assert antipode(w).terms == oracle.antipode(w).terms


def test_words_longer_than_the_recursion_limit():
    # x(y) = 1 over Q[y]: the derived coefficient is a constant after one
    # step, so x^L y = y x^L + L x^(L-1)
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    S = LieRinehartAlgebra(A, ["x"], {}, [Derivation(A, [A.one()])])
    y = A.gen(0)
    L = sys.getrecursionlimit() + 100
    w = (0,) * L
    with pytest.raises(RecursionError):
        oracle.word_times_poly(S, w, y)
    expected = {w: y, w[:-1]: A.const(L)}
    assert (EnvElement(S, {w: A.one()}) * EnvElement.from_poly(S, y)).terms == expected
    # S(y x^L) = S(x^L) S_A(y) = (-1)^L x^L (-y) = (-1)^(L+1) (y x^L + L x^(L-1))
    sign = -1 if L % 2 == 0 else 1
    assert antipode(EnvElement(S, {w: y})).terms == {v: c * sign for v, c in expected.items()}


@pytest.mark.parametrize("name, left, right, expected", [
    # [x1, x2] = x2, so x2 x1 = x1 x2 - x2 and x2^L x1 = x1 x2^L - L x2^L
    ("aff2.lra", 1, 0, lambda L, A: {(0,) + (1,) * L: A.one(), (1,) * L: A.const(-L)}),
    # [E11, E22] = 0, so E22^L E11 = E11 E22^L
    ("gl2.lra", 3, 0, lambda L, A: {(0,) + (3,) * L: A.one()}),
], ids=["aff2", "gl2"])
def test_letter_swap_past_words_longer_than_the_recursion_limit(name, left, right, expected):
    S = _fresh(name)
    L = sys.getrecursionlimit() + 100
    w = (left,) * L
    with pytest.raises(RecursionError):
        oracle.word_times_gen(S, w, right)
    product = EnvElement(S, {w: S.algebra.one()}) * EnvElement.generator(S, right)
    assert product.terms == expected(L, S.algebra)

"""The per-structure memos of the rewriting (coefficient push, letter
swap and word times word) and of the antipode against their
letter-by-letter oracles (tests/rewriting_oracle.py), term for term, and
on words longer than the default recursion limit."""

import gc
import itertools
import math
import os
import sys
import weakref
from fractions import Fraction

import pytest

from lrhopf import (
    CommutativeAlgebra,
    Derivation,
    EnvElement,
    GeneratorDecl,
    LieRinehartAlgebra,
    antipode,
    check_hopf_lr,
)
from lrhopf import hopf
from lrhopf.dsl import parse_structure_file
from lrhopf.enveloping import _packing, _word_times_word
from lrhopf.sampling import make_rng, random_env_element, random_poly

from conftest import FIXTURES, FRACTIONAL, build_a_valued, read_fixture
import rewriting_oracle as oracle

_NAMES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".lra")) + ["a-valued", "fractional"]


def _fresh(name):
    """A newly built structure, so every memo starts empty."""
    if name == "a-valued":
        return build_a_valued()
    text = FRACTIONAL if name == "fractional" else read_fixture(name)
    return parse_structure_file(text).build()[0]


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


def _descents(S, max_len=4):
    """The pairs of normal words (u, v) whose product needs rewriting:
    the last letter of u above the first letter of v."""
    words = _words(S, max_len)
    return [(u, v) for u in words for v in words if u and v and u[-1] > v[0]]


def _flat(terms: dict) -> dict:
    """word -> LaurentPoly as (word, exponents) -> rational."""
    return {(w, e): x for w, c in terms.items() for e, x in c.terms.items()}


@pytest.mark.parametrize("name", _NAMES)
def test_word_times_word_matches_the_letter_by_letter_oracle(name):
    S = _fresh(name)
    one = S.algebra.one()
    unpack = _packing(S.algebra).unpack
    for u, v in _descents(S):
        got: dict = {}
        for w, p, x in _word_times_word(S, u, v):
            e = unpack[p]
            assert (w, e) not in got, f"{name}: {u} times {v} repeats {(w, e)}"
            got[(w, e)] = x
        want = oracle.product(EnvElement(S, {u: one}), EnvElement(S, {v: one}))
        assert got == _flat(want.terms), f"{name}: {u} times {v}"
    # a one-letter right word reads the letter-swap cache instead
    assert all(len(v) > 1 for _, v in S._word_cache)


@pytest.mark.parametrize("name", _NAMES)
def test_word_times_coefficient_times_word_matches_the_oracle(name):
    # (a u) * (b v): each term y^g w of u * b is followed by the memoized
    # w * v with its exponents shifted by g, and each monomial of a shifts
    # them again as the term is summed
    S = _fresh(name)
    A = S.algebra
    rng = make_rng(53)
    coefficients = [A.gen(g) for g in range(A.ngens)]
    coefficients += [random_poly(rng, A, 2, terms=3) for _ in range(2)]
    # every monomial of degree 2 or less (Laurent on a unit), rationals
    # 1/2, -2/3, 3/4, ...
    a = sum((m * Fraction((-1) ** k * (k + 1), k + 2)
             for k, m in enumerate(A.monomials_up_to(2))), A.zero())
    assert A.ngens == 0 or len(a.terms) > 2
    for u, v in _descents(S, 3):
        for c in (A.one(), a):
            for b in coefficients:
                left, right = EnvElement(S, {u: c}), EnvElement(S, {v: b})
                assert (left * right).terms == oracle.product(left, right).terms, (
                    f"{name}: {c} {u} times {b} {v}")


@pytest.mark.parametrize("name", _NAMES)
def test_word_memo_entries_are_flat_canonical_and_interned(name):
    S = _fresh(name)
    rng = make_rng(59)
    operands = [random_env_element(rng, S, max_word=4, max_degree=2, terms=3)
                for _ in range(10)]
    operands.append(EnvElement(S, {w: Fraction(1, 6) for w in _words(S, 3)}))
    for a in operands:
        antipode(a)
        for b in operands:
            a * b
    memo = S._word_cache
    assert memo or S.rank == 1
    n = S.algebra.ngens
    pack = _packing(S.algebra)
    interned: dict = {}
    for (u, v), entry in memo.items():
        assert len(v) > 1 and u[-1] > v[0]
        assert type(entry) is tuple and len(entry) % 3 == 0
        triples = list(zip(*[iter(entry)] * 3))
        assert len({(w, p) for w, p, _ in triples}) == len(triples)
        for w, p, x in triples:
            assert type(w) is tuple and w == tuple(sorted(w))
            # a packed exponent vector: an int whose unpacked tuple packs back to it
            e = pack.unpack[p]
            assert type(p) is int and type(e) is tuple and len(e) == n and pack[e] == p
            assert (type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)
            # equal words (and packed exponents) anywhere in the memo are one object
            assert interned.setdefault(w, w) is w and interned.setdefault(p, p) is p


def test_a_long_word_times_a_letter_stays_out_of_the_word_memo():
    # h^L e on sl2 swaps e left through h^L by the letter-swap cache alone
    S = _fresh("sl2.lra")
    e, h = (S.basis_names.index(name) for name in ("e", "h"))
    product = EnvElement(S, {(h,) * 40: S.algebra.one()}) * EnvElement.generator(S, e)
    assert product.terms
    assert not S._word_cache


def test_a_structures_memos_die_with_it():
    # every memo hangs off the structure; none is module-level
    S = _fresh("gl2.lra")
    ref = weakref.ref(S)
    u = random_env_element(make_rng(61), S, max_word=3, max_degree=2, terms=3)
    assert (u * u).terms
    assert check_hopf_lr(S, max_word=1).ok
    assert S._word_cache and S._nf_cache and S._poly_cache and S._tensor_cache
    assert len(S._tensor_cache["antipode"]) > 1
    del S, u
    gc.collect()
    assert ref() is None


def _monomials(u):
    """Each monomial c y^e w of u as an element of its own."""
    return [EnvElement._trusted(u.structure, {w: a.algebra.monomial(e, c)})
            for w, a in u.terms.items() for e, c in a.terms.items()]


@pytest.mark.parametrize("name", _NAMES)
def test_antipode_matches_the_letter_by_letter_oracle(name):
    S = _fresh(name)
    A = S.algebra
    rng = make_rng(43)
    inputs = [EnvElement(S, {w: A.one()}) for w in _words(S)]
    inputs += [random_env_element(rng, S, max_word=4, max_degree=2, terms=3)
               for _ in range(40)]
    inputs.append(sum(inputs[:6], EnvElement.zero(S)) ** 2)
    # degree 3 coefficients, Laurent exponents on torus; then monomials
    # alone, most with a coefficient other than 1
    cubic = [random_env_element(rng, S, max_word=3, max_degree=3, terms=3) for _ in range(30)]
    inputs += cubic + [m for u in cubic[:10] for m in _monomials(u)]
    for u in inputs:
        assert antipode(u).terms == oracle.antipode(u).terms, f"{name}: antipode of {u}"


@pytest.mark.parametrize("name", _NAMES)
def test_every_antipode_memo_entry_is_the_antipode_of_its_monomial(name):
    # the entry (w, e) is S(y^e w), whether e is 0 or not
    S = _fresh(name)
    A = S.algebra
    rng = make_rng(71)
    for _ in range(30):
        antipode(random_env_element(rng, S, max_word=3, max_degree=3, terms=3))
    memo = S._tensor_cache["antipode"]
    assert any(any(e) for _, e in memo) or A.ngens == 0
    unpack = _packing(A).unpack
    for (w, e), entry in memo.items():
        # (word, packed exponents, rational) triples, unpacked per word
        got: dict = {}
        for v, p, x in entry:
            got.setdefault(v, {})[unpack[p]] = x
        monomial = EnvElement(S, {w: A.monomial(e)})
        want = {v: c.terms for v, c in oracle.antipode(monomial).terms.items()}
        assert got == want, f"{name}: entry {(w, e)}"


def test_the_antipode_refuses_a_generator_without_a_hopf_marker():
    # y carries no marker, so A has no antipode, even where the word part
    # would not need it; the unit word comes twice, as a refused call
    # must leave no memo behind
    text = "algebra A { gens: y }\nlie g { basis: x; }\naction { x(y) = y; }\n"
    S = parse_structure_file(text).build()[0]
    A = S.algebra
    for u in (EnvElement.generator(S, 0), EnvElement.one(S), EnvElement.zero(S),
              EnvElement.from_poly(S, A.gen(0)), EnvElement.generator(S, 0)):
        with pytest.raises(ValueError, match="no Hopf structure declared for generator"):
            antipode(u)


def test_a_product_by_one_and_the_antipode_of_a_unit_word_copy_nothing(monkeypatch):
    S = _fresh("gl2.lra")
    one = EnvElement.one(S)
    u = random_env_element(make_rng(47), S, max_word=3, max_degree=2, terms=3)
    assert u * one is u
    assert one * u is u
    # a second antipode of w reads S(w) from the memo: no entry is added and
    # nothing is multiplied
    w = EnvElement(S, {(0, 1, 3): S.algebra.one()})
    first = antipode(w)
    memo = dict(S._tensor_cache["antipode"])
    calls = []
    kernel = hopf._word_poly_word
    monkeypatch.setattr(hopf, "_word_poly_word",
                        lambda *args, **kw: calls.append(args) or kernel(*args, **kw))
    assert antipode(w).terms == first.terms == oracle.antipode(w).terms
    assert S._tensor_cache["antipode"] == memo and not calls


def _line():
    # x(y) = 1 over Q[y]: the derived coefficient is a constant after one step
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    return LieRinehartAlgebra(A, ["x"], {}, [Derivation(A, [A.one()])])


def _line_push(A, L, e):
    """x^L y = y x^L + L x^(L-1) on `_line`, for e = (1,)."""
    return {(0,) * L: A.monomial(e), (0,) * (L - 1): A.const(L)}


def _eigen_push(A, L, e):
    """x^L y^e = sum over k of C(L, k) n^k y^e x^(L-k), for e = (n,) and
    x(y) = y, so that x(y^n) = n y^n."""
    n, = e
    return {(0,) * (L - k): A.monomial(e, math.comb(L, k) * n ** k) for k in range(L + 1)}


# each case: the structure, e, x^L y^e by hand, and S_A(y^e) = sign y^f
@pytest.mark.parametrize("build, e, push, sign, f", [
    (_line, (1,), _line_push, -1, (1,)),
    # y primitive: S_A(y^3) = -y^3
    (lambda: _fresh("euler.lra"), (3,), _eigen_push, -1, (3,)),
    # t group-like: S_A(t^-5) = t^5
    (lambda: _fresh("torus.lra"), (-5,), _eigen_push, 1, (5,)),
], ids=["line", "euler", "torus"])
def test_words_longer_than_the_recursion_limit(build, e, push, sign, f):
    S = build()
    A = S.algebra
    y = A.monomial(e)
    L = sys.getrecursionlimit() + 100
    w = (0,) * L
    with pytest.raises(RecursionError):
        oracle.word_times_poly(S, w, y)
    assert (EnvElement(S, {w: A.one()}) * EnvElement.from_poly(S, y)).terms == push(A, L, e)
    # the push by runs fills the one entry it was asked for, no prefix of w
    assert list(S._poly_cache) == [(w, e)]
    # S(y^e x^L) = S(x^L) S_A(y^e) = (-1)^L sign x^L y^f
    sign *= (-1) ** L
    assert antipode(EnvElement(S, {w: y})).terms == {
        u: c * sign for u, c in push(A, L, f).items()}


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

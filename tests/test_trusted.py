"""Arithmetic builds LaurentPoly, EnvElement, TensorEnvElement and
MultiVector results without re-validating them.  Every such result must be
exactly what the validating public constructors make of the same terms: no
zero or non-canonical coefficient (an int when integral, otherwise a
Fraction with denominator > 1), no malformed exponent tuple, word or index
tuple."""

import itertools
import os
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from lrhopf import (  # noqa: E402
    EnvElement,
    MultiVector,
    TensorEnvElement,
    antipode,
    ce_differential,
    check_hopf_lr,
    coproduct,
    dual_differential,
    schouten_bracket,
    tensor_pair,
)
from lrhopf.algebra import (  # noqa: E402
    LaurentPoly,
    _canon,
    antipode_morphism,
    comultiplication,
    counit_morphism,
    multiplication_morphism,
    on_leg,
    spread_copies,
    tensor_embed,
)
from lrhopf.dsl import parse_env_element, parse_structure_file  # noqa: E402
from lrhopf.hopf import antipode_convolution, counit_collapse, standard_coproduct  # noqa: E402
from lrhopf.sampling import make_rng, random_env_element  # noqa: E402

from conftest import FIXTURES, build_a_valued, read_fixture  # noqa: E402
from flat_oracle import flat_apply_to_leg, flat_product, from_flat, to_flat  # noqa: E402
import rewriting_oracle  # noqa: E402

NAMES = ("euler", "aff2", "torus")
STRUCTURES = {
    name: parse_structure_file(read_fixture(f"{name}.lra")).build()[0]
    for name in NAMES
}
# every fixture, with its dual block (None when it declares none)
FIXTURE_PAIRS = {
    name[:-4]: parse_structure_file(read_fixture(name)).build()
    for name in sorted(os.listdir(FIXTURES)) if name.endswith(".lra")
}
# each structure's coefficients and their tensor square (the algebra the
# coproduct lands in)
ALGEBRAS = [S.algebra for S in STRUCTURES.values()] + [
    S.algebra.tensor_power(2) for S in STRUCTURES.values()
]

SETTINGS = settings(max_examples=40, deadline=None)

fractions = st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3))
)


def polys(alg, max_terms=3):
    """Sums of a few monomials of degree <= 2 per slot, Laurent slots
    included; terms may collide and cancel."""
    exps = st.tuples(
        *(st.integers(-2 if g.invertible else 0, 2) for g in alg.gens)
    )
    return st.lists(st.tuples(exps, fractions), max_size=max_terms).map(
        lambda terms: sum(
            (alg.monomial(e, c) for e, c in terms), alg.zero()
        )
    )


def env_elements(S, max_terms=3):
    words = st.lists(st.integers(0, S.rank - 1), max_size=2).map(
        lambda w: tuple(sorted(w))
    )
    return st.lists(st.tuples(words, polys(S.algebra, 2)), max_size=max_terms).map(
        lambda terms: sum(
            (EnvElement(S, {w: c}) for w, c in terms), EnvElement.zero(S)
        )
    )


def assert_valid_poly(p):
    """p is a result of arithmetic: equal, term for term, to what the
    validating constructor makes of its terms, with only nonzero canonical
    coefficients."""
    assert isinstance(p, LaurentPoly)
    rebuilt = LaurentPoly(p.algebra, p.terms)
    assert rebuilt == p
    assert rebuilt.terms == p.terms
    for c in p.terms.values():
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


def assert_valid_env(u):
    assert isinstance(u, EnvElement)
    rebuilt = EnvElement(u.structure, u.terms)
    assert rebuilt == u
    assert rebuilt.terms == u.terms
    for c in u.terms.values():
        assert c.algebra == u.structure.algebra
        assert not c.is_zero()
        assert_valid_poly(c)


def assert_valid_tensor(t):
    assert isinstance(t, TensorEnvElement)
    rebuilt = TensorEnvElement(t.structure, t.terms, t.legs)
    assert rebuilt == t
    assert rebuilt.terms == t.terms
    for c in t.terms.values():
        assert c.algebra == t.algebra
        assert not c.is_zero()
        assert_valid_poly(c)


def multivectors(S, grade, max_terms=3):
    indices = st.sampled_from(list(itertools.combinations(range(S.rank), grade)))
    return st.lists(st.tuples(indices, polys(S.algebra, 2)), max_size=max_terms).map(
        lambda terms: sum(
            (MultiVector(S, grade, {i: c}) for i, c in terms), MultiVector.zero(S, grade)
        )
    )


def assert_valid_multivector(m):
    assert isinstance(m, MultiVector)
    rebuilt = MultiVector(m.structure, m.grade, m.terms)
    assert rebuilt == m
    assert rebuilt.terms == m.terms
    for idx, c in m.terms.items():
        assert len(idx) == m.grade
        assert all(i < j for i, j in zip(idx, idx[1:]))
        assert c.algebra == m.structure.algebra
        assert not c.is_zero()
        assert_valid_poly(c)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_poly_arithmetic_matches_the_validating_constructor(alg, data):
    p = data.draw(polys(alg))
    q = data.draw(polys(alg))
    for r in (p, q, p + q, p - q, -p, p * q, p * Fraction(-2, 3), p * 0,
              p + 1, 3 - p, p ** 2):
        assert_valid_poly(r)
    assert p - p == alg.zero()
    assert (p - p).terms == {}
    if p.is_unit():
        assert_valid_poly(p ** -2)


def term_by_term(p, q) -> dict:
    """The terms of p * q, every pair of terms multiplied and summed."""
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


@pytest.mark.parametrize("alg", ALGEBRAS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_products_by_constants_match_the_term_by_term_product(alg, data):
    # a constant factor, on either side, scales the other one; a single
    # non-constant monomial must not be taken for a constant
    p = data.draw(polys(alg))
    scalar = data.draw(st.one_of(st.sampled_from((1, -1)), st.integers(-5, 5), fractions))
    monomial = data.draw(polys(alg, max_terms=1))
    for m in (alg.const(scalar), monomial):
        for a, b in ((p, m), (m, p)):
            r = a * b
            assert r.terms == term_by_term(a, b), f"{a} times {b}"
            assert_valid_poly(r)


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_morphisms_and_spread_copies_match_the_validating_constructor(name, data):
    A = STRUCTURES[name].algebra
    A2, A3 = A.tensor_power(2), A.tensor_power(3)
    p = data.draw(polys(A))
    pp = data.draw(polys(A2))
    delta = comultiplication(A)
    assert_valid_poly(delta(p))
    assert_valid_poly(antipode_morphism(A)(p))
    assert_valid_poly(multiplication_morphism(A)(pp))
    # an antipode image summed with its argument cancels on primitives
    assert_valid_poly(antipode_morphism(A)(p) + p)
    for copies in ((0, 1), (1, 2), (2, 0), (1, 1)):
        assert_valid_poly(spread_copies(pp, A, copies, A3))
    # both legs onto one copy: every term cancels against its mirror
    mirror = tensor_embed(p, 0, A2) - tensor_embed(p, 1, A2)
    folded = spread_copies(mirror, A, (1, 1), A3)
    assert_valid_poly(folded)
    assert folded.terms == {}


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_tensor_results_match_the_validating_constructor(name, data):
    S = STRUCTURES[name]
    u = data.draw(env_elements(S))
    v = data.draw(env_elements(S))
    du, dv = coproduct(u), coproduct(v)
    for t in (du, du + dv, du - dv, -du, du - du, du * 2, du * Fraction(1, 3),
              du * 0, du * dv, tensor_pair(u, v), from_flat(S, to_flat(du))):
        assert_valid_tensor(t)
    assert (du - du).terms == {}


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_env_products_match_the_validating_constructor(name, data):
    S = STRUCTURES[name]
    u = data.draw(env_elements(S))
    v = data.draw(env_elements(S))
    x = EnvElement.generator(S, S.rank - 1)
    # x * x appends in order, u * x and x * u rewrite, u * (-u) may cancel
    for r in (u * v, v * u, u * x, x * u, x * x, u * (-u), u * (v - v),
              u * v * u, (u + v) * (u - v)):
        assert_valid_env(r)
    assert (u * EnvElement.zero(S)).terms == {}


@pytest.mark.parametrize("name", FIXTURE_PAIRS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_env_products_match_the_letter_by_letter_oracle(name, data):
    # raw coefficient sums, wrapped once, against LaurentPoly sums built as
    # they come; Laurent exponents included (torus)
    S = FIXTURE_PAIRS[name][0]
    u, v, w = (data.draw(env_elements(S)) for _ in range(3))
    for a, b in ((u, v), (v, u), (u, u), (u * v, w), (u + v, u - v)):
        r = a * b
        assert r.terms == rewriting_oracle.product(a, b).terms, f"{a} times {b}"
        assert_valid_env(r)


def test_cancelling_words_leave_no_zero_coefficient():
    S = FIXTURE_PAIRS["abelian2"][0]
    u, v = parse_env_element("x1+x2", S), parse_env_element("x1-x2", S)
    # x1 x2 and x2 x1 cancel inside the product
    r = u * v
    assert r.terms == rewriting_oracle.product(u, v).terms
    assert r.terms == parse_env_element("x1^2 - x2^2", S).terms
    assert_valid_env(r)
    assert (r - parse_env_element("x1*x1 - x2*x2", S)).terms == {}
    assert parse_env_element("(x1+x2)*(x1-x2) - (x1*x1 - x2*x2)", S).terms == {}


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_legwise_tensor_products_match_the_validating_constructor(name, data):
    S = STRUCTURES[name]
    A2 = S.algebra.tensor_power(2)
    u, v, w = (data.draw(env_elements(S)) for _ in range(3))
    c = data.draw(polys(A2))
    # tensor_pair coefficients differ between the legs; coproducts of words
    # have constant ones
    s, t = tensor_pair(u, v), tensor_pair(v, w)
    d = coproduct(u)
    for r in (s * t, t * s, s * d, d * s, d * d, s * (-s), s * (t - t),
              s * c, d * c, (s + d) * (s - d)):
        assert_valid_tensor(r)
    assert (s * c * 0).terms == {}


@pytest.mark.parametrize("name", FIXTURE_PAIRS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_multivector_results_match_the_validating_constructor(name, data):
    S, dual = FIXTURE_PAIRS[name]
    top = min(2, S.rank)
    p, q = data.draw(st.integers(0, top)), data.draw(st.integers(0, top))
    P, Q, R = (data.draw(multivectors(S, g)) for g in (p, q, p))
    c = data.draw(polys(S.algebra))
    results = [P + R, P - R, -P, P - P, P * 2, Fraction(-1, 3) * P, c * P, P * 0,
               P + MultiVector.zero(S, q), MultiVector.zero(S, q) + P, P.wedge(Q),
               schouten_bracket(P, Q), ce_differential(S, P), dual_differential(P, S)]
    if dual is not None:
        results.append(dual_differential(P, dual))
    for m in results:
        assert_valid_multivector(m)
    assert (P - P).terms == {}


def test_public_constructors_still_reject_bad_terms():
    A = STRUCTURES["aff2"].algebra
    with pytest.raises(ValueError):
        LaurentPoly(A, {(1, 2): 1})
    with pytest.raises(ValueError):
        LaurentPoly(A, {(-1,): 1})
    S = STRUCTURES["aff2"]
    with pytest.raises(ValueError):
        TensorEnvElement(S, {((1, 0), ()): 1})
    with pytest.raises(ValueError):
        TensorEnvElement(S, {((), (2,)): 1})
    with pytest.raises(ValueError):
        TensorEnvElement(S, {((), ()): A.one()})
    with pytest.raises(ValueError):
        TensorEnvElement(S, {((), (), ()): 1})


def units(alg):
    """A nonzero rational times a monomial on the invertible slots."""
    exps = st.tuples(*(st.integers(-2, 2) if g.invertible else st.just(0)
                       for g in alg.gens))
    nonzero = fractions.filter(bool)
    return st.builds(alg.monomial, exps, nonzero)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_no_result_stores_a_float_a_bool_or_an_integral_fraction(name, data):
    # the assert_valid_* checks require every coefficient in canonical form,
    # which no float, bool or integral Fraction has; integral Fractions go
    # in through the constructors (fractions with denominator 1) and come
    # out of sums and products such as 1/2 * 2
    S = STRUCTURES[name]
    A, A2 = S.algebra, S.algebra.tensor_power(2)
    p, q = data.draw(polys(A)), data.draw(polys(A))
    pp = data.draw(polys(A2))
    unit = data.draw(units(A))
    k = data.draw(st.integers(-3, 3))
    c = data.draw(st.one_of(st.integers(-4, 4), fractions, st.booleans()))
    results = [p + q, p - q, -p, p * q, p * c, c * p, p + c, c - p, p ** 2, p ** 0,
               unit ** k, unit.inverse(), unit * unit.inverse()]
    for f in (comultiplication(A), counit_morphism(A), antipode_morphism(A)):
        results += [f(p), on_leg(f, 0)(pp), on_leg(f, 1)(pp)]
    # derivations sum raw too: the anchor on A and one lifted to a copy of A2
    results += [d(p) for d in S.anchor] + [S.anchor[-1].tensor_lift(1, A2)(pp)]
    u, v = data.draw(env_elements(S)), data.draw(env_elements(S))
    du = coproduct(u)
    results += [u * v, u * c, u - v, du, du * coproduct(v), du * c, antipode(u),
                antipode(u * v), counit_collapse(du, 0), counit_collapse(du, 1)]
    valid = {LaurentPoly: assert_valid_poly, EnvElement: assert_valid_env,
             TensorEnvElement: assert_valid_tensor}
    for r in results:
        valid[type(r)](r)


# -- the legwise product on cleared denominators -------------------------------

# fractional structure constants: the leg products hold Fractions
FRACTIONAL = """\
algebra A { gens: y primitive }
lie g {
    basis: x1, x2;
    bracket [x1, x2] = 1/2*x2;
}
action {
    x1(y) = 1/3*y;
}
"""
KERNEL_STRUCTURES = dict(
    {name: S for name, (S, _) in FIXTURE_PAIRS.items()},
    fractional=parse_structure_file(FRACTIONAL).build()[0],
)


def denominators(tensors) -> set:
    return {Fraction(x).denominator for t in tensors
            for c in t.terms.values() for x in c.terms.values()}


def denominator_operands(S, seed):
    """Two-leg tensors whose coefficients have denominators 2, 3 and 6, on
    both sides of a product, next to one with int coefficients only."""
    rng = make_rng(seed)
    rand = lambda: random_env_element(rng, S, max_word=2, max_degree=2)
    basis = sum((EnvElement.generator(S, i) for i in range(S.rank)), EnvElement.zero(S))
    out = [coproduct(basis ** 2), coproduct(basis) * Fraction(1, 2),
           tensor_pair(basis, basis + 1) * Fraction(-2, 3), coproduct(basis ** 2) * Fraction(5, 6)]
    out += [coproduct(rand()) * Fraction(1, 2), tensor_pair(rand(), rand()) * Fraction(1, 3)]
    # halves and thirds in one operand: its common denominator is 6
    out.append(coproduct(rand() + 1) * Fraction(1, 2)
               + tensor_pair(rand(), rand()) * Fraction(1, 3))
    return out


@pytest.mark.parametrize("name", KERNEL_STRUCTURES)
def test_legwise_products_with_denominators_match_the_flat_product(name):
    S = KERNEL_STRUCTURES[name]
    operands = denominator_operands(S, 53)
    assert {2, 3, 6} <= denominators(operands)
    for i, a in enumerate(operands):
        for b in operands[i % 2 :: 2]:
            r = a * b
            assert r.terms == flat_product(a, b).terms, f"{name}: {a} times {b}"
            assert_valid_tensor(r)


@pytest.mark.parametrize("name", KERNEL_STRUCTURES)
def test_three_leg_products_with_denominators_match_the_flat_oracle(name):
    S = KERNEL_STRUCTURES[name]
    dmap = standard_coproduct(S)
    operands = denominator_operands(S, 59)[1:5]
    triples = []
    for t in operands:
        for leg in (0, 1):
            got = dmap.apply_to_leg(t, leg)
            assert got.terms == flat_apply_to_leg(dmap, t, leg).terms, f"{name}: leg {leg} of {t}"
            assert_valid_tensor(got)
            triples.append(got)
    assert {2, 3} <= denominators(triples)
    for a, b in zip(triples, triples[1:] + [triples[0] * Fraction(1, 3)]):
        r = a * b
        assert r.terms == flat_product(a, b).terms, f"{name}: {a} times {b}"
        assert_valid_tensor(r)


def test_fractional_structure_constants_reach_the_leg_memo():
    S = parse_structure_file(FRACTIONAL).build()[0]
    assert check_hopf_lr(S, seed=0, max_word=2).ok
    memo = S._tensor_cache["legs"]
    assert any(type(x) is Fraction for entry in memo.values() for _, _, x in entry)


# -- the enveloping product's flat integer sums ---------------------------------

# the kernel structures and one whose bracket has a coefficient
ENV_KERNEL_STRUCTURES = dict(KERNEL_STRUCTURES, **{"a-valued": build_a_valued()})


def env_denominator_operands(S, seed):
    """Enveloping elements whose coefficients have denominators 2, 3 and 6,
    next to random ones; the random coefficients are not constant, and on
    torus they carry negative exponents."""
    rng = make_rng(seed)
    rand = lambda: random_env_element(rng, S, max_word=3, max_degree=2, terms=3)
    basis = sum((EnvElement.generator(S, i) for i in range(S.rank)), EnvElement.zero(S))
    return [rand(), rand(), basis * Fraction(1, 2) + rand(), (basis + 1) * Fraction(-2, 3),
            basis ** 2 * Fraction(5, 6) + rand() * Fraction(1, 2),
            # halves and thirds in one operand: its common denominator is 6
            rand() * Fraction(1, 2) + basis * Fraction(1, 3)]


def env_denominators(elements) -> set:
    return {Fraction(x).denominator for u in elements
            for c in u.terms.values() for x in c.terms.values()}


@pytest.mark.parametrize("name", ENV_KERNEL_STRUCTURES)
def test_env_products_with_denominators_match_the_letter_by_letter_oracle(name):
    S = ENV_KERNEL_STRUCTURES[name]
    operands = env_denominator_operands(S, 61)
    assert {2, 3, 6} <= env_denominators(operands)
    exponents = [e for u in operands for c in u.terms.values() for exps in c.terms for e in exps]
    assert (any(exponents) or not S.algebra.ngens) and (name != "torus" or min(exponents) < 0)
    for i, a in enumerate(operands):
        for b in operands[i:]:
            for x, y in ((a, b), (b, a)):
                r = x * y
                assert r.terms == rewriting_oracle.product(x, y).terms, f"{name}: {x} times {y}"
                assert_valid_env(r)


@pytest.mark.parametrize("name", ENV_KERNEL_STRUCTURES)
def test_antipode_sums_with_denominators_match_the_oracle(name):
    # antipode and antipode_convolution clear denominators too
    S = ENV_KERNEL_STRUCTURES[name]
    A, n = S.algebra, S.algebra.ngens
    dmap = standard_coproduct(S)
    for u in env_denominator_operands(S, 67):
        got = antipode(u)
        assert got.terms == rewriting_oracle.antipode(u).terms, f"{name}: antipode of {u}"
        assert_valid_env(got)
        t = dmap(u) + tensor_pair(u, u * Fraction(1, 3))
        for leg in (0, 1):
            want = EnvElement.zero(S)
            for (w1, w2), c in t.terms.items():
                for exps, q in c.terms.items():
                    left = EnvElement(S, {w1: A.monomial(exps[:n], q)})
                    right = EnvElement(S, {w2: A.monomial(exps[n:])})
                    if leg == 0:
                        left = rewriting_oracle.antipode(left)
                    else:
                        right = rewriting_oracle.antipode(right)
                    want = want + rewriting_oracle.product(left, right)
            got = antipode_convolution(t, leg)
            assert got.terms == want.terms, f"{name}: leg {leg} of {t}"
            assert_valid_env(got)


@pytest.mark.parametrize("name", ENV_KERNEL_STRUCTURES)
def test_rewriting_memos_hold_only_nonzero_canonical_triples(name):
    S = ENV_KERNEL_STRUCTURES[name]
    operands = env_denominator_operands(S, 71)
    for a in operands:
        for b in operands:
            a * b
    # the leg memo of the tensor layer keeps the same triples
    dmap = standard_coproduct(S)
    tensors = [dmap(a) for a in operands[2:5]]
    for t in tensors:
        for s in tensors:
            t * s
        dmap.apply_to_leg(t, 0)
        dmap.apply_to_leg(t, 1)
    n = S.algebra.ngens
    legs = S._tensor_cache["legs"]
    assert legs
    entries = list(S._nf_cache.values()) + list(S._poly_cache.values()) + list(legs.values())
    assert entries
    for entry in entries:
        assert type(entry) is tuple and entry
        assert len({(u, e) for u, e, _ in entry}) == len(entry)
        for u, e, x in entry:
            assert u == tuple(sorted(u)) and len(e) == n
            assert (type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)


SCALARS = (True, 3, Fraction(-1, 2))


@pytest.mark.parametrize("c", SCALARS, ids=lambda c: type(c).__name__)
def test_scalar_operands_pass_the_class_first_tests(c):
    # each operand test looks at the operand's class before the costlier
    # isinstance test; bool, int and Fraction scalars still take the
    # scalar path
    S = ENV_KERNEL_STRUCTURES["torus"]
    A = S.algebra
    k = A.const(c)
    p = A.gen(0) * Fraction(1, 3) + 2
    for r, want in ((p + c, p + k), (c + p, p + k), (p - c, p + (-k)), (c - p, k + (-p))):
        assert r == want
        assert_valid_poly(r)
    u = random_env_element(make_rng(73), S, max_word=2, max_degree=2, terms=3)
    scaled = EnvElement(S, {w: a * k for w, a in u.terms.items()})
    for r, want in ((u * c, scaled), (c * u, scaled), (u * k, scaled), (k * u, scaled),
                    (u + c, u + EnvElement.from_poly(S, k)),
                    (u - c, u - EnvElement.from_poly(S, k)),
                    (u * EnvElement.from_poly(S, k), scaled)):
        assert r.terms == want.terms
        assert_valid_env(r)
    assert (EnvElement.from_poly(S, k) == c) and (c == EnvElement.from_poly(S, k))
    t = coproduct(u)
    k2 = A.tensor_power(2).const(c)
    for r in (t * c, c * t, t * k2):
        assert r.terms == {key: a * k2 for key, a in t.terms.items()}
        assert_valid_tensor(r)
    m = MultiVector(S, 1, {(0,): p})
    assert (c * m).terms == {(0,): p * k}
    assert_valid_multivector(c * m)
    canon = _canon(c)
    assert canon == c and type(canon) is (int if Fraction(c).denominator == 1 else Fraction)

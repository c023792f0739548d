"""sympy as an independent oracle for coefficient arithmetic: LaurentPoly
sums, products and powers, and Derivation application, on small seeded
random inputs over a polynomial and a Laurent algebra."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from lrhopf import CommutativeAlgebra, Derivation, GeneratorDecl  # noqa: E402

ALGEBRAS = {
    "poly": CommutativeAlgebra(
        [GeneratorDecl("y", hopf_kind="primitive"),
         GeneratorDecl("z", hopf_kind="primitive")]
    ),
    "laurent": CommutativeAlgebra(
        [GeneratorDecl("y", hopf_kind="primitive"),
         GeneratorDecl("t", invertible=True, hopf_kind="group_like")]
    ),
}
CASES = 30


def random_poly(rng, alg, terms=3):
    """Up to `terms` monomials with exponents in [-2, 2] on invertible
    slots and [0, 2] elsewhere, built through the public constructor."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        exps = tuple(
            rng.randint(-2 if g.invertible else 0, 2) for g in alg.gens
        )
        out[exps] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
    return alg.from_terms(out)


def to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        mono = sympy.Integer(1)
        for s, e in zip(symbols, exps):
            mono *= s**e
        expr += sympy.Rational(c.numerator, c.denominator) * mono
    return expr


def same(p, expr, symbols):
    return sympy.expand(to_sympy(p, symbols) - expr) == 0


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_sum_product_and_power_agree_with_sympy(name):
    alg = ALGEBRAS[name]
    symbols = sympy.symbols([g.name for g in alg.gens])
    rng = random.Random(f"sympy-arith/{name}")
    for _ in range(CASES):
        p, q = random_poly(rng, alg), random_poly(rng, alg)
        P, Q = to_sympy(p, symbols), to_sympy(q, symbols)
        assert same(p + q, P + Q, symbols)
        assert same(p - q, P - Q, symbols)
        assert same(p * q, P * Q, symbols)
        n = rng.randint(0, 3)
        assert same(p**n, P**n, symbols)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_derivation_application_agrees_with_sympy(name):
    alg = ALGEBRAS[name]
    symbols = sympy.symbols([g.name for g in alg.gens])
    rng = random.Random(f"sympy-derivation/{name}")
    for _ in range(CASES):
        values = [random_poly(rng, alg, terms=2) for _ in alg.gens]
        D = Derivation(alg, values)
        p = random_poly(rng, alg)
        P = to_sympy(p, symbols)
        want = sum(
            (sympy.diff(P, s) * to_sympy(v, symbols) for s, v in zip(symbols, values)),
            sympy.Integer(0),
        )
        assert same(D(p), want, symbols)

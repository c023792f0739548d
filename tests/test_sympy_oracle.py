"""sympy as an independent oracle for coefficient arithmetic: LaurentPoly
sums, products and powers, and Derivation application, on small seeded
random inputs over a polynomial and a Laurent algebra; and for the
differential of every fixture structure on seeded random forms."""

import itertools
import os
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.combinatorics import Permutation  # noqa: E402

from lrhopf import (  # noqa: E402
    CommutativeAlgebra,
    Derivation,
    GeneratorDecl,
    MultiVector,
    ce_differential,
    parse_structure_file,
)

from conftest import FIXTURES, read_fixture  # noqa: E402

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


def _fixture_structures():
    """Every structure the fixture files declare, dual blocks included."""
    out = []
    for fname in sorted(f for f in os.listdir(FIXTURES) if f.endswith(".lra")):
        S, D = parse_structure_file(read_fixture(fname)).build()
        out.append((fname, S))
        if D is not None:
            out.append((fname + ":dual", D))
    return out


def oracle_differential(S, phi, symbols):
    """The differential written out with sympy arithmetic and sympy's
    derivatives and permutation signs, reading only the structure's raw
    bracket table and anchor values:

      d phi(x_0..x_p) = sum_r (-1)^r x_r(phi(.. no x_r ..))
        + sum_{r<s} (-1)^(r+s) phi([x_r, x_s], .. no x_r, x_s ..)

    Returns a dict from increasing (p+1)-tuples to sympy expressions."""
    p = phi.grade
    values = {idx: to_sympy(c, symbols) for idx, c in phi.terms.items()}
    anchors = [[to_sympy(v, symbols) for v in d.values] for d in S.anchor]
    brackets = {}
    for (i, j), coeffs in S.bracket_table.items():
        brackets[(i, j)] = [to_sympy(c, symbols) for c in coeffs]
        brackets[(j, i)] = [-to_sympy(c, symbols) for c in coeffs]

    def value(idx):
        if len(set(idx)) < len(idx):
            return sympy.Integer(0)
        key = tuple(sorted(idx))
        sign = Permutation([key.index(i) for i in idx]).signature() if idx else 1
        return sign * values.get(key, sympy.Integer(0))

    def act(i, f):
        return sum(
            (a * sympy.diff(f, y) for a, y in zip(anchors[i], symbols)), sympy.Integer(0)
        )

    out = {}
    for T in itertools.combinations(range(S.rank), p + 1):
        total = sympy.Integer(0)
        for r in range(p + 1):
            total += (-1) ** r * act(T[r], value(T[:r] + T[r + 1 :]))
        for r in range(p + 1):
            for s in range(r + 1, p + 1):
                rest = tuple(T[t] for t in range(p + 1) if t not in (r, s))
                for k, c in enumerate(brackets.get((T[r], T[s]), ())):
                    total += (-1) ** (r + s) * c * value((k,) + rest)
        out[T] = sympy.expand(total)
    return out


STRUCTURES = dict(_fixture_structures())


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_ce_differential_agrees_with_sympy(name):
    S = STRUCTURES[name]
    alg = S.algebra
    symbols = sympy.symbols([g.name for g in alg.gens]) if alg.gens else []
    rng = random.Random(f"sympy-ce/{name}")
    for grade in range(S.rank + 1):
        for _ in range(3):
            terms = {
                idx: random_poly(rng, alg, terms=2)
                for idx in itertools.combinations(range(S.rank), grade)
                if rng.random() < 0.7
            }
            phi = MultiVector(S, grade, terms)
            got = ce_differential(S, phi)
            assert got.grade == grade + 1
            want = oracle_differential(S, phi, symbols)
            for idx in want:
                c = got.terms.get(idx, alg.zero())
                assert same(c, want[idx], symbols), f"{name}: d of {phi} at {idx}"
            assert set(got.terms) <= set(want)

"""The Lie-Rinehart layer sums brackets, anchors and derivation arithmetic
into raw exponent -> rational dicts and builds its results trusted.  Each result must be term for term what the naive arithmetic of
`lr_oracle` makes of the same operands: the same exponents, the same
rationals, and the same canonical types (an int when integral, otherwise
a Fraction).

The structures are every fixture and its tensor square, the bracket with
a coefficient of `build_a_valued`, gl2 with its basis rescaled so that
its structure constants and anchors are Fractions, and gl3 (rank 9, from
tests/fixtures_large); torus brings Laurent exponents.  Random
coefficients have denominators 1, 2, 3 and 6.
"""

import itertools
import os
from fractions import Fraction

import pytest

from lrhopf import (
    LieRinehartAlgebra,
    check_lr_axioms,
    tensor_square,
)
from lrhopf.dsl import parse_structure_file
from lrhopf.sampling import make_rng, random_exponents

from conftest import FIXTURES, build_a_valued, read_fixture
import lr_oracle

DENOMINATORS = (1, 2, 3, 6)
SAMPLES = 12


def build_fractional(S):
    """S = gl2 on the basis lam_i E_i: [lam_i E_i, lam_j E_j] has the
    constants lam_i lam_j c^k_ij / lam_k, the anchors are lam_i rho_i."""
    lam = (Fraction(1, 2), Fraction(2, 3), 3, Fraction(-1, 6))
    table = {
        (i, j): [c * (Fraction(lam[i] * lam[j]) / lam[k]) for k, c in enumerate(row)]
        for (i, j), row in S.bracket_table.items()
    }
    anchor = [lam[i] * d for i, d in enumerate(S.anchor)]
    # validated by a test below (as the fixtures are not), so that a fault
    # in the code under test fails tests, not the collection of this module
    return LieRinehartAlgebra(S.algebra, S.basis_names, table, anchor, validate=False)


def _structures():
    out = {}
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".lra"):
            S = parse_structure_file(read_fixture(name)).build()[0]
            out[name[:-4]] = S
            out[name[:-4] + "^2"] = tensor_square(S, validate=False)
    out["a_valued"] = build_a_valued()
    out["fractional"] = build_fractional(out["gl2"])
    gl3 = read_fixture(os.path.join(os.pardir, "fixtures_large", "gl3.lra"))
    out["gl3"] = parse_structure_file(gl3).build()[0]
    return out


STRUCTURES = _structures()


def test_the_structures_cover_the_cases():
    assert len([n for n in STRUCTURES if not n.endswith("^2")]) == 14
    assert STRUCTURES["gl3"].rank == 9
    assert check_lr_axioms(STRUCTURES["fractional"], samples=0).ok
    assert any(isinstance(c, Fraction) for row in STRUCTURES["fractional"].bracket_table.values()
               for p in row for c in p.terms.values())
    assert any(g.invertible for g in STRUCTURES["torus"].algebra.gens)


# -- random operands ---------------------------------------------------------


def rand_poly(rng, A, max_degree=2):
    p = A.zero()
    for _ in range(1 + rng.randrange(3)):
        num = rng.choice((-3, -2, -1, 1, 2, 3, 5))
        p = p + A.monomial(random_exponents(rng, A, max_degree),
                           Fraction(num, rng.choice(DENOMINATORS)))
    return p


def rand_lr(rng, S):
    A = S.algebra
    return S.element([rand_poly(rng, A) if rng.random() < 0.6 else A.zero()
                      for _ in range(S.rank)])


def lr_operands(S, seed):
    """Every pair of basis elements, then random pairs."""
    rng = make_rng(seed)
    basis = [S.basis_element(i) for i in range(S.rank)]
    pairs = list(itertools.product(basis, basis))
    pairs += [(rand_lr(rng, S), rand_lr(rng, S)) for _ in range(SAMPLES)]
    return rng, pairs


# -- exact comparison --------------------------------------------------------


def same_poly(p, q):
    assert p.algebra == q.algebra
    assert p.terms == q.terms
    for e, x in p.terms.items():
        assert type(x) is type(q.terms[e]), (e, x, q.terms[e])
        assert x and (type(x) is int or x.denominator > 1), (e, x)


def same_lr(x, y):
    """The same sparse terms: the same basis indices, each with a nonzero
    canonical coefficient."""
    assert x.structure == y.structure
    assert x.terms.keys() == y.terms.keys()
    for i, a in x.terms.items():
        assert a, i
        same_poly(a, y.terms[i])


def same_derivation(d, e):
    assert d.algebra == e.algebra
    assert len(d.values) == len(e.values)
    for a, b in zip(d.values, e.values):
        same_poly(a, b)


# -- the module layer --------------------------------------------------------


@pytest.mark.parametrize("name", STRUCTURES)
def test_bracket_matches_the_naive_bracket(name):
    S = STRUCTURES[name]
    _, pairs = lr_operands(S, 1)
    for x, y in pairs:
        same_lr(x.bracket(y), lr_oracle.bracket(x, y))


@pytest.mark.parametrize("name", STRUCTURES)
def test_anchor_and_action_match_the_naive_ones(name):
    S = STRUCTURES[name]
    rng, pairs = lr_operands(S, 2)
    for x, _ in pairs:
        same_derivation(S.anchor_of(x), lr_oracle.anchor_of(S, x))
        p = rand_poly(rng, S.algebra)
        same_poly(x.act(p), lr_oracle.act(x, p))


@pytest.mark.parametrize("name", STRUCTURES)
def test_derivation_arithmetic_matches_the_naive_one(name):
    S = STRUCTURES[name]
    A = S.algebra
    rng, pairs = lr_operands(S, 3)
    for x, y in pairs:
        d, e = lr_oracle.anchor_of(S, x), lr_oracle.anchor_of(S, y)
        a, p = rand_poly(rng, A), rand_poly(rng, A)
        same_derivation(d + e, lr_oracle.add(d, e))
        same_derivation(d - e, lr_oracle.add(d, lr_oracle.scale(A.const(-1), e)))
        same_derivation(a * d, lr_oracle.scale(a, d))
        same_derivation(Fraction(2, 3) * d, lr_oracle.scale(A.const(Fraction(2, 3)), d))
        same_derivation(d.commutator(e), lr_oracle.commutator(d, e))
        same_poly(d(p), lr_oracle.apply(d, p))
        for rho in S.anchor:
            same_poly(rho(p), lr_oracle.apply(rho, p))


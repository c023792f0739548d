"""Seeded random element generators used by the property checks.

Every randomized battery in this package takes an explicit seed and
builds its generator here, so reports are reproducible run to run.

Draw contract: every integer is drawn as `_below(rng, n)` draws it, which
takes exactly the bits `rng.randrange(n)` takes (rejection sampling on
`rng.getrandbits(n.bit_length())`, CPython's algorithm in 3.10 to 3.13)
and returns the same value, without randrange's argument handling.  So
every sampler gives the values and leaves the generator state that its
randint/randrange/choice form gave, and a seed names the same cases on
every supported Python.  `tests/test_sampling.py` pins this against
those forms, kept verbatim in `tests/sampling_oracle.py`.

The samplers compose four draws, each written once: `_below` (an integer
below n), `_exponents` (a monomial's exponents), `_fraction` (a
coefficient at the default span 3, read from the table `_FRACTIONS` of
canonical values) and `_word` (a sorted word).  The last three take the
bound `rng.getrandbits` (and `rng.random`) and draw a whole term per call,
rejection loops inside.  A bound that leaves nothing to draw, on which a
loop would never end, is refused with `_empty`'s ValueError.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .algebra import LaurentPoly, _nonzero

# the denominators random_fraction draws from, 1 three times as likely
_DENOMINATORS = (1, 1, 1, 2, 3)
# random_fraction's values at the default span 3, by its two draws: the
# numerator's _below(rng, 7) picks the row, _below(rng, 5) the column
_FRACTIONS = tuple(
    tuple(num // den if num % den == 0 else Fraction(num, den) for den in _DENOMINATORS)
    for num in (-3, -2, -1, 1, 1, 2, 3)
)


# the classes and term helper the samplers build with, bound on first use:
# enveloping and calculus import this module, so it cannot import them first
_EnvElement = _add_term = _MultiVector = None


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def _empty(n: int) -> ValueError:
    """The error of a draw below n <= 0, which would otherwise never end."""
    return ValueError(f"empty range for a draw below {n}")


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n): a uniform integer in [0, n), from the same draws."""
    if n <= 0:
        raise _empty(n)
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _exponents(getrandbits, rand, gens, n: int) -> tuple:
    """random_exponents at max_degree n - 1: a total budget below n, then
    each generator's exponent up to what is left of it, negated with
    probability 0.3 when the generator is invertible."""
    if n <= 0:
        raise _empty(n)
    k = n.bit_length()
    budget = getrandbits(k)
    while budget >= n:
        budget = getrandbits(k)
    exps = []
    for g in gens:
        k = (budget + 1).bit_length()
        e = getrandbits(k)
        while e > budget:
            e = getrandbits(k)
        budget -= e
        if g.invertible and rand() < 0.3:
            e = -e
        exps.append(e)
    return tuple(exps)


def _fraction(getrandbits) -> int | Fraction:
    """random_fraction at span 3: a row of _FRACTIONS below 7, a column below 5."""
    r = getrandbits(3)
    while r >= 7:
        r = getrandbits(3)
    c = getrandbits(3)
    while c >= 5:
        c = getrandbits(3)
    return _FRACTIONS[r][c]


def _word(getrandbits, rank: int, n: int) -> tuple:
    """random_word at max_len n - 1: a length below n, then that many
    letters below rank, sorted.  The rank is checked only when a letter
    is drawn."""
    if n <= 0:
        raise _empty(n)
    k = n.bit_length()
    length = getrandbits(k)
    while length >= n:
        length = getrandbits(k)
    if length and rank <= 0:
        raise _empty(rank)
    k = rank.bit_length()
    letters = []
    for _ in range(length):
        r = getrandbits(k)
        while r >= rank:
            r = getrandbits(k)
        letters.append(r)
    return tuple(sorted(letters))


def random_fraction(rng: random.Random, span: int = 3) -> int | Fraction:
    """A small nonzero rational; denominators stay in {1, 2, 3}.  It is in
    the canonical coefficient form: an int when integral, otherwise a
    Fraction."""
    if span == 3:
        return _fraction(rng.getrandbits)
    num = _below(rng, 2 * span + 1) - span or 1
    den = _DENOMINATORS[_below(rng, 5)]
    return num // den if num % den == 0 else Fraction(num, den)


def random_exponents(rng: random.Random, alg, max_degree: int):
    return _exponents(rng.getrandbits, rng.random, alg.gens, max_degree + 1)


def random_poly(rng: random.Random, alg, max_degree: int = 2, terms: int = 2):
    """A random element with a few small-degree terms; may collide terms,
    never returns an element of a different algebra."""
    getrandbits, rand, gens = rng.getrandbits, rng.random, alg.gens
    acc: dict = {}
    for _ in range(1 + _below(rng, terms)):
        exps = _exponents(getrandbits, rand, gens, max_degree + 1)
        c = _fraction(getrandbits)
        acc[exps] = acc[exps] + c if exps in acc else c
    return LaurentPoly._trusted(alg, _nonzero(acc))


def random_lr_element(rng: random.Random, structure, max_degree: int = 2):
    """Random module element of a Lie-Rinehart structure."""
    rank, A = structure.rank, structure.algebra
    coeffs = [A.zero()] * rank
    for _ in range(1 + _below(rng, 2)):
        i = _below(rng, rank)
        coeffs[i] = coeffs[i] + random_poly(rng, A, max_degree, terms=1)
    return structure.element(coeffs)


def random_word(rng: random.Random, rank: int, max_len: int = 3):
    return _word(rng.getrandbits, rank, max_len + 1)


def random_env_element(rng: random.Random, structure, max_word: int = 3,
                       max_degree: int = 2, terms: int = 2):
    """Random element of the enveloping algebra in normal form.  Each term
    is a word and a random_poly(terms=1) coefficient, one monomial."""
    global _EnvElement, _add_term
    if _EnvElement is None:
        from .enveloping import EnvElement as _EnvElement, _add_term

    getrandbits, rand = rng.getrandbits, rng.random
    rank, A = structure.rank, structure.algebra
    gens = A.gens
    data: dict = {}
    for _ in range(1 + _below(rng, terms)):
        w = _word(getrandbits, rank, max_word + 1)
        _below(rng, 1)  # random_poly's term count, one bit redrawn while it is 1
        exps = _exponents(getrandbits, rand, gens, max_degree + 1)
        _add_term(data, w, LaurentPoly._trusted(A, {exps: _fraction(getrandbits)}))
    return _EnvElement._trusted(structure, data)


def random_multivector(rng: random.Random, structure, grade: int,
                       max_degree: int = 2, terms: int = 2):
    """Random multivector of the given grade."""
    global _MultiVector
    if _MultiVector is None:
        from .calculus import MultiVector as _MultiVector

    if grade > structure.rank:
        raise ValueError("grade exceeds the module rank")
    mv = _MultiVector.zero(structure, grade)
    rank = structure.rank
    for _ in range(1 + _below(rng, terms)):
        mv = mv + _MultiVector.single(
            structure, _combination(rank, grade, _below(rng, math.comb(rank, grade))),
            random_poly(rng, structure.algebra, max_degree, terms=1),
        )
    return mv


def _combination(n: int, k: int, r: int) -> tuple:
    """The r-th k-subset of range(n) in itertools.combinations order: each
    place takes the least index x whose block of comb(n - x - 1, places
    left) subsets still holds r, counting r down past the blocks skipped."""
    out = []
    x = 0
    for left in range(k - 1, -1, -1):
        block = math.comb(n - x - 1, left)
        while r >= block:
            r -= block
            x += 1
            block = math.comb(n - x - 1, left)
        out.append(x)
        x += 1
    return tuple(out)

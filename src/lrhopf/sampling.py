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

Each sampler makes its draws in its own frame: it binds
`rng.getrandbits` once and writes `_below`'s rejection loop inline, with
a bound that leaves nothing to draw refused up front (the loop would
never end).  `random_fraction` at the default span reads its value from
the table `_FRACTIONS` of canonical values, indexed by its two draws.
`random_poly` and `random_env_element` draw their exponents and
fractions inline, as `random_exponents` and `random_fraction` would, and
`random_env_element` also its words, and builds each one-monomial
coefficient itself; it still draws the `_below(rng, 1)` that
`random_poly(terms=1)` draws for its term count (one bit, redrawn while
it is 1).  `random_lr_element` and `random_multivector`, rare in the
batteries, take each coefficient from `random_poly`.
"""

from __future__ import annotations

import itertools
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


# the element classes and the term helper the samplers build with, bound on
# first use: enveloping and calculus import this module, so it cannot import
# them when it loads
_EnvElement = _add_term = _MultiVector = None


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def _empty(n: int) -> ValueError:
    """The error of a draw below n <= 0, which would otherwise never end."""
    return ValueError(f"empty range for a draw below {n}")


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n): a uniform integer in [0, n), from the same draws.
    The samplers write this loop inline (see the module docstring)."""
    if n <= 0:
        raise _empty(n)
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_fraction(rng: random.Random, span: int = 3) -> int | Fraction:
    """A small nonzero rational; denominators stay in {1, 2, 3}.  It is in
    the canonical coefficient form: an int when integral, otherwise a
    Fraction."""
    getrandbits = rng.getrandbits
    n = 2 * span + 1
    if n <= 0:
        raise _empty(n)
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    c = getrandbits(3)
    while c >= 5:
        c = getrandbits(3)
    if span == 3:
        return _FRACTIONS[r][c]
    num, den = r - span or 1, _DENOMINATORS[c]
    return num // den if num % den == 0 else Fraction(num, den)


def random_exponents(rng: random.Random, alg, max_degree: int):
    getrandbits, rand = rng.getrandbits, rng.random
    n = max_degree + 1
    if n <= 0:
        raise _empty(n)
    k = n.bit_length()
    budget = getrandbits(k)
    while budget >= n:
        budget = getrandbits(k)
    exps = []
    for g in alg.gens:
        k = (budget + 1).bit_length()
        e = getrandbits(k)
        while e > budget:
            e = getrandbits(k)
        budget -= e
        if g.invertible and rand() < 0.3:
            e = -e
        exps.append(e)
    return tuple(exps)


def random_poly(rng: random.Random, alg, max_degree: int = 2, terms: int = 2):
    """A random element with a few small-degree terms; may collide terms,
    never returns an element of a different algebra."""
    getrandbits, rand = rng.getrandbits, rng.random
    n = max_degree + 1
    if terms <= 0 or n <= 0:
        raise _empty(min(terms, n))
    k = terms.bit_length()
    count = getrandbits(k)
    while count >= terms:
        count = getrandbits(k)
    gens, kd = alg.gens, n.bit_length()
    acc: dict = {}
    for _ in range(1 + count):
        # random_exponents(rng, alg, max_degree)
        budget = getrandbits(kd)
        while budget >= n:
            budget = getrandbits(kd)
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
        exps = tuple(exps)
        # random_fraction(rng)
        r = getrandbits(3)
        while r >= 7:
            r = getrandbits(3)
        c = getrandbits(3)
        while c >= 5:
            c = getrandbits(3)
        c = _FRACTIONS[r][c]
        acc[exps] = acc[exps] + c if exps in acc else c
    return LaurentPoly._trusted(alg, _nonzero(acc))


def random_lr_element(rng: random.Random, structure, max_degree: int = 2):
    """Random module element of a Lie-Rinehart structure.  Each coefficient
    is a random_poly draw (see the module docstring)."""
    getrandbits = rng.getrandbits
    rank, A = structure.rank, structure.algebra
    if rank <= 0:
        raise _empty(rank)
    k = rank.bit_length()
    coeffs = [A.zero()] * rank
    count = getrandbits(2)
    while count >= 2:
        count = getrandbits(2)
    for _ in range(1 + count):
        i = getrandbits(k)
        while i >= rank:
            i = getrandbits(k)
        coeffs[i] = coeffs[i] + random_poly(rng, A, max_degree, terms=1)
    return structure.element(coeffs)


def random_word(rng: random.Random, rank: int, max_len: int = 3):
    getrandbits = rng.getrandbits
    n = max_len + 1
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


def random_env_element(rng: random.Random, structure, max_word: int = 3,
                       max_degree: int = 2, terms: int = 2):
    """Random element of the enveloping algebra in normal form."""
    global _EnvElement, _add_term
    if _EnvElement is None:
        from .enveloping import EnvElement as _EnvElement, _add_term

    getrandbits, rand = rng.getrandbits, rng.random
    rank, A = structure.rank, structure.algebra
    nw, n = max_word + 1, max_degree + 1
    if terms <= 0 or nw <= 0 or n <= 0:
        raise _empty(min(terms, nw, n))
    kw, kr, kd, gens = nw.bit_length(), rank.bit_length(), n.bit_length(), A.gens
    k = terms.bit_length()
    count = getrandbits(k)
    while count >= terms:
        count = getrandbits(k)
    data: dict = {}
    for _ in range(1 + count):
        # random_word(rng, rank, max_word)
        length = getrandbits(kw)
        while length >= nw:
            length = getrandbits(kw)
        if length and rank <= 0:
            raise _empty(rank)
        letters = []
        for _ in range(length):
            r = getrandbits(kr)
            while r >= rank:
                r = getrandbits(kr)
            letters.append(r)
        # random_poly(rng, A, max_degree, terms=1): its one-term count first
        while getrandbits(1):
            pass
        budget = getrandbits(kd)
        while budget >= n:
            budget = getrandbits(kd)
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
        r = getrandbits(3)
        while r >= 7:
            r = getrandbits(3)
        c = getrandbits(3)
        while c >= 5:
            c = getrandbits(3)
        _add_term(data, tuple(sorted(letters)),
                  LaurentPoly._trusted(A, {tuple(exps): _FRACTIONS[r][c]}))
    return _EnvElement._trusted(structure, data)


def random_multivector(rng: random.Random, structure, grade: int,
                       max_degree: int = 2, terms: int = 2):
    """Random multivector of the given grade.  Each coefficient is a
    random_poly draw (see the module docstring)."""
    global _MultiVector
    if _MultiVector is None:
        from .calculus import MultiVector as _MultiVector

    getrandbits = rng.getrandbits
    rank = structure.rank
    if grade > rank:
        raise ValueError("grade exceeds the module rank")
    if terms <= 0:
        raise _empty(terms)
    mv = _MultiVector.zero(structure, grade)
    tuples = list(itertools.combinations(range(rank), grade))
    n = len(tuples)
    k, kt = n.bit_length(), terms.bit_length()
    count = getrandbits(kt)
    while count >= terms:
        count = getrandbits(kt)
    for _ in range(1 + count):
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        mv = mv + _MultiVector.single(
            structure, tuples[i], random_poly(rng, structure.algebra, max_degree, terms=1)
        )
    return mv

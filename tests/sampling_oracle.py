"""The samplers of lrhopf.sampling as they were written with
`random.Random.randint`, `randrange` and `choice`, kept verbatim as the
oracle of the draw contract: lrhopf.sampling draws with its own `_below`,
and must give the same values and leave the same generator state as these
for every seed.  The tests compare the two in tests/test_sampling.py."""

from __future__ import annotations

import random
from fractions import Fraction

from lrhopf.algebra import LaurentPoly, _canon, _nonzero


def random_fraction(rng: random.Random, span: int = 3) -> int | Fraction:
    """A small nonzero rational; denominators stay in {1, 2, 3}.  It is in
    the canonical coefficient form: an int when integral, otherwise a
    Fraction."""
    num = rng.randint(-span, span)
    if num == 0:
        num = 1
    den = rng.choice((1, 1, 1, 2, 3))
    return _canon(Fraction(num, den))


def random_exponents(rng: random.Random, alg, max_degree: int):
    exps = []
    budget = rng.randint(0, max_degree)
    for g in alg.gens:
        e = rng.randint(0, budget)
        if g.invertible and rng.random() < 0.3:
            e = -e
        budget -= abs(e)
        exps.append(e)
    return tuple(exps)


def random_poly(rng: random.Random, alg, max_degree: int = 2, terms: int = 2):
    """A random element with a few small-degree terms; may collide terms,
    never returns an element of a different algebra."""
    acc: dict = {}
    for _ in range(rng.randint(1, terms)):
        exps = random_exponents(rng, alg, max_degree)
        c = random_fraction(rng)
        acc[exps] = acc[exps] + c if exps in acc else c
    return LaurentPoly._trusted(alg, _nonzero(acc))


def random_lr_element(rng: random.Random, structure, max_degree: int = 2):
    """Random module element of a Lie-Rinehart structure."""
    coeffs = [structure.algebra.zero()] * structure.rank
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(structure.rank)
        coeffs[i] = coeffs[i] + random_poly(rng, structure.algebra, max_degree, terms=1)
    return structure.element(coeffs)


def random_word(rng: random.Random, rank: int, max_len: int = 3):
    length = rng.randint(0, max_len)
    return tuple(sorted(rng.randrange(rank) for _ in range(length)))


def random_env_element(rng: random.Random, structure, max_word: int = 3,
                       max_degree: int = 2, terms: int = 2):
    """Random element of the enveloping algebra in normal form."""
    from lrhopf.enveloping import EnvElement, _add_term

    data: dict = {}
    for _ in range(rng.randint(1, terms)):
        w = random_word(rng, structure.rank, max_word)
        _add_term(data, w, random_poly(rng, structure.algebra, max_degree, terms=1))
    return EnvElement._trusted(structure, data)


def random_multivector(rng: random.Random, structure, grade: int,
                       max_degree: int = 2, terms: int = 2):
    from lrhopf.calculus import MultiVector

    rank = structure.rank
    if grade > rank:
        raise ValueError("grade exceeds the module rank")
    mv = MultiVector.zero(structure, grade)
    import itertools

    tuples = list(itertools.combinations(range(rank), grade))
    for _ in range(rng.randint(1, terms)):
        idx = tuples[rng.randrange(len(tuples))]
        mv = mv + MultiVector.single(
            structure, idx, random_poly(rng, structure.algebra, max_degree, terms=1)
        )
    return mv

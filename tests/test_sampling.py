"""The draw contract of lrhopf.sampling: `_below(rng, n)` is
`rng.randrange(n)`, and every public sampler gives the values and leaves
the generator state of its randint/randrange/choice form, which
tests/sampling_oracle.py keeps verbatim.  A seed therefore names the same
random cases, and the goldens stay what they are."""

import itertools
import os
import random
from fractions import Fraction

import pytest

import sampling_oracle as oracle
from lrhopf import CommutativeAlgebra, Derivation, LieRinehartAlgebra, sampling
from lrhopf.algebra import LaurentPoly
from lrhopf.dsl import parse_structure_file
from lrhopf.lie_rinehart import Combination
from lrhopf.sampling import _below, _combination

from conftest import FIXTURES, read_fixture

STRUCTURES = {
    name[:-4]: parse_structure_file(read_fixture(name)).build()[0]
    for name in sorted(os.listdir(FIXTURES)) if name.endswith(".lra")
}
# rank 9: letters drawn with four bits, seven of sixteen values refused
with open(os.path.join(FIXTURES, os.pardir, "fixtures_large", "gl3.lra"),
          encoding="utf-8") as _fh:
    STRUCTURES["gl3"] = parse_structure_file(_fh.read()).build()[0]
DRAWS = 500


@pytest.mark.parametrize("seed", range(20))
def test_below_draws_what_randrange_draws(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(1, 65):
        assert _below(ours, n) == theirs.randrange(n), n
        assert ours.getstate() == theirs.getstate(), n


@pytest.mark.parametrize("n", [0, -3])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        _below(random.Random(0), n)


def exact(x):
    """x with every rational tagged by its type and every dict kept in
    insertion order, so equal values built differently still differ."""
    if isinstance(x, (int, Fraction)):
        return (type(x).__name__, x)
    if isinstance(x, LaurentPoly):
        return ("poly", x.algebra, exact(x.terms))
    if isinstance(x, Combination):
        shape = getattr(x, x._shape) if x._shape else None
        return (type(x).__name__, shape, exact(x.terms))
    if isinstance(x, dict):
        return [(k, exact(v)) for k, v in x.items()]
    if isinstance(x, tuple):
        return tuple(exact(v) for v in x)
    raise TypeError(type(x))


def samplers(S):
    """name -> (draw with lrhopf.sampling, the same draw with the oracle)."""
    A, rank = S.algebra, S.rank
    out = {
        "fraction": lambda m, rng: m.random_fraction(rng),
        "fraction-span-1": lambda m, rng: m.random_fraction(rng, 1),
        "exponents": lambda m, rng: m.random_exponents(rng, A, 3),
        "poly": lambda m, rng: m.random_poly(rng, A),
        "poly-wide": lambda m, rng: m.random_poly(rng, A, 4, 5),
        "lr-element": lambda m, rng: m.random_lr_element(rng, S),
        "word": lambda m, rng: m.random_word(rng, rank),
        "word-long": lambda m, rng: m.random_word(rng, rank, 7),
        # length 0 leaves no letter to draw, so rank 0 is no empty range
        "word-empty": lambda m, rng: m.random_word(rng, 0, 0),
        "env-element": lambda m, rng: m.random_env_element(rng, S),
        "env-element-wide": lambda m, rng: m.random_env_element(rng, S, 2, 1, 4),
    }
    # every grade: the sampler unranks the index the oracle looks up
    for g in range(rank + 1):
        out[f"multivector-{g}"] = lambda m, rng, g=g: m.random_multivector(rng, S, g)
    return out


CASES = [(name, kind) for name, S in STRUCTURES.items() for kind in samplers(S)]


@pytest.mark.parametrize("name, kind", CASES, ids=[f"{n}-{k}" for n, k in CASES])
def test_samplers_draw_what_the_oracle_draws(name, kind):
    draw = samplers(STRUCTURES[name])[kind]
    seed = sum(map(ord, name + kind))
    ours, theirs = sampling.make_rng(seed), random.Random(seed)
    for i in range(DRAWS):
        assert exact(draw(sampling, ours)) == exact(draw(oracle, theirs)), (name, kind, i)
    assert ours.getstate() == theirs.getstate()


def test_a_combination_is_unranked_in_itertools_order():
    for n in range(8):
        for k in range(n + 1):
            listed = list(itertools.combinations(range(n), k))
            assert [_combination(n, k, r) for r in range(len(listed))] == listed, (n, k)


def test_a_multivector_of_half_the_rank_lists_no_combinations():
    # comb(30, 15) = 155,117,520 index tuples, one of which is drawn
    A = CommutativeAlgebra([])
    S = LieRinehartAlgebra(A, [f"x{i}" for i in range(30)], {}, [Derivation(A, [])] * 30)
    mv = sampling.random_multivector(sampling.make_rng(0), S, 15)
    assert mv.grade == 15 and mv.terms
    assert all(len(idx) == 15 for idx in mv.terms)


def test_fractions_are_canonical_and_cover_their_range():
    rng = sampling.make_rng(0)
    seen = {sampling.random_fraction(rng) for _ in range(2000)}
    assert all(type(q) is int or (type(q) is Fraction and q.denominator > 1) for q in seen)
    assert 0 not in seen
    assert {q.denominator if type(q) is Fraction else 1 for q in seen} == {1, 2, 3}
    assert max(seen) == 3 and min(seen) == -3

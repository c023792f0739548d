"""Bounds that leave a sampler nothing to draw from.  A rejection loop,
in `_below` or in one of the draw helpers the samplers compose, never
ends below an empty range, so every such bound must be refused with the
"empty range" ValueError, as the randint/randrange forms refuse it."""

import random

import pytest

from lrhopf import sampling

from conftest import build_aff2


class _Bounded(random.Random):
    """A generator that fails a test, instead of hanging it, when a
    sampler keeps drawing."""

    def getrandbits(self, k):
        self.draws = getattr(self, "draws", 0) + 1
        if self.draws > 10_000:
            raise AssertionError("the sampler kept drawing")
        return super().getrandbits(k)


S = build_aff2()
A = S.algebra


@pytest.mark.parametrize("draw", [
    lambda rng: sampling.random_fraction(rng, -1),
    lambda rng: sampling.random_exponents(rng, A, -1),
    lambda rng: sampling.random_poly(rng, A, 2, 0),
    lambda rng: sampling.random_poly(rng, A, -1),
    lambda rng: sampling.random_word(rng, 2, -1),
    lambda rng: sampling.random_word(rng, 0, 3),
    lambda rng: sampling.random_env_element(rng, S, 2, 2, 0),
    lambda rng: sampling.random_env_element(rng, S, -1),
    lambda rng: sampling.random_env_element(rng, S, 2, -1),
    lambda rng: sampling.random_lr_element(rng, S, -1),
    lambda rng: sampling.random_multivector(rng, S, 1, 2, 0),
], ids=["fraction-span", "exponents-degree", "poly-terms", "poly-degree", "word-length",
        "word-rank", "env-terms", "env-word", "env-degree", "lr-degree", "multivector-terms"])
def test_an_empty_range_is_refused(draw):
    rng = _Bounded(3)
    with pytest.raises(ValueError, match="empty range"):
        for _ in range(50):
            draw(rng)

"""Normal forms in the enveloping algebra: frozen rewriting oracles,
the confluence battery, filtration layers, and the module action."""

import math
import operator

import pytest

from lrhopf import EnvElement, MultiVector, check_action, check_pbw, coproduct
from lrhopf.sampling import make_rng, random_env_element


def test_letter_past_coefficient_frozen(euler):
    A = euler.algebra
    y = A.gen(0)
    x = EnvElement.generator(euler, 0)
    u = x * EnvElement.from_poly(euler, y)
    assert str(u) == "y*x + y"
    u2 = x * u
    assert str(u2) == "y*x^2 + 2*y*x + y"
    # both bracketings agree
    assert u2 == (x * x) * EnvElement.from_poly(euler, y)


def test_letter_swap_frozen(aff2):
    x1 = EnvElement.generator(aff2, 0)
    x2 = EnvElement.generator(aff2, 1)
    assert str(x2 * x1) == "x1*x2 - x2"
    assert str(x1 * x2) == "x1*x2"
    # normal form words are nondecreasing
    for word in (x2 * x1 * x2).terms:
        assert list(word) == sorted(word)


def test_gl2_swap_produces_bracket_correction(gl2):
    e12 = EnvElement.generator(gl2, 1)
    e21 = EnvElement.generator(gl2, 2)
    diff = e12 * e21 - e21 * e12
    e11 = EnvElement.generator(gl2, 0)
    e22 = EnvElement.generator(gl2, 3)
    assert diff == e11 - e22


def test_action_extends_anchor_frozen(euler):
    A = euler.algebra
    y = A.gen(0)
    x = EnvElement.generator(euler, 0)
    p = (y + 1) ** 2
    assert str((x * x).act_on_A(p)) == "4*y^2 + 2*y"
    assert x.act_on_A(y ** 3) == y ** 3 * 3
    assert EnvElement.one(euler).act_on_A(p) == p


def test_action_is_multiplicative_random(aff2):
    rng = make_rng(17)
    from lrhopf.sampling import random_poly
    for _ in range(60):
        u = random_env_element(rng, aff2, max_word=2, max_degree=2)
        v = random_env_element(rng, aff2, max_word=2, max_degree=2)
        p = random_poly(rng, aff2.algebra, max_degree=2)
        assert (u * v).act_on_A(p) == u.act_on_A(v.act_on_A(p))


def test_associativity_random(gl2):
    rng = make_rng(29)
    for _ in range(25):
        u = random_env_element(rng, gl2, max_word=2, max_degree=1, terms=2)
        v = random_env_element(rng, gl2, max_word=2, max_degree=1, terms=2)
        w = random_env_element(rng, gl2, max_word=2, max_degree=1, terms=2)
        assert (u * v) * w == u * (v * w)


def test_filtration_layers_count(gl2):
    m = len(gl2.basis_names)
    words = set()
    for u in [EnvElement.generator(gl2, i) for i in range(m)]:
        words.update(u.terms)
    # dimension of the degree-p layer over A equals multisets of size p
    from itertools import combinations_with_replacement
    for p in range(4):
        count = sum(1 for _ in combinations_with_replacement(range(m), p))
        assert count == math.comb(p + m - 1, p)


def test_filtration_degree_and_layers(aff2):
    x1 = EnvElement.generator(aff2, 0)
    x2 = EnvElement.generator(aff2, 1)
    u = x2 * x1  # = x1 x2 - x2
    assert u.filtration_degree() == 2
    top = u.filtration_layer(2)
    assert list(top.terms) == [(0, 1)]
    low = u.filtration_layer(1)
    assert str(low) == "-x2"
    assert EnvElement.zero(aff2).filtration_degree() == -1


def test_pbw_battery_core_structures(euler, aff2, gl2):
    for S in (euler, aff2, gl2):
        report = check_pbw(S, seed=0, samples=120, max_word=3, max_layer=4)
        assert report.ok, str(report)


def test_the_layer_law_makes_one_product_per_layer_word(monkeypatch, gl2):
    # the reversed product of each word is the layer before's product of
    # its tail times its first letter: one product per word, where
    # multiplying each out from 1 took p products for a word of length p
    products = []
    mul = EnvElement.__mul__
    monkeypatch.setattr(EnvElement, "__mul__",
                        lambda self, other: products.append(other) or mul(self, other))

    def products_of(max_layer):
        products.clear()
        report = check_pbw(gl2, seed=0, samples=20, max_word=2, max_layer=max_layer)
        assert report.ok
        return len(products)

    # the other laws draw the same elements whatever the layers, so the
    # difference is the layer law's
    m = gl2.rank
    words = sum(math.comb(p + m - 1, p) for p in range(1, 5))
    assert products_of(4) - products_of(0) == words


def test_action_battery_core_structures(euler, aff2):
    for S in (euler, aff2):
        report = check_action(S, seed=0, samples=80)
        assert report.ok, str(report)


def test_powers_and_counit(euler):
    A = euler.algebra
    y = A.gen(0)
    x = EnvElement.generator(euler, 0)
    u = (x + EnvElement.from_poly(euler, y)) ** 2
    assert str(u) == "x^2 + 2*y*x + (y^2 + y)"
    assert u.counit() == 0
    assert (u + EnvElement.from_poly(euler, A.const(5))).counit() == 5


def test_scalar_and_coefficient_multiplication(aff2):
    A = aff2.algebra
    y = A.gen(0)
    x1 = EnvElement.generator(aff2, 0)
    assert 2 * x1 == x1 + x1
    assert str(y * x1) == "y*x1"
    assert (y * x1) - (x1 * y) == EnvElement.from_poly(aff2, -y)


def test_mixed_operands_defer_or_refuse_with_a_type_error(aff2):
    # a coefficient on the left of + or - defers to the element's reflected
    # operator; tensors and multivectors embed no scalars
    y = aff2.algebra.gen(0)
    x1 = EnvElement.generator(aff2, 0)
    assert y + x1 == x1 + y == EnvElement(aff2, {(0,): 1, (): y})
    assert y - x1 == -(x1 - y) == EnvElement(aff2, {(0,): -1, (): y})
    mv = MultiVector.single(aff2, (0,), y)
    for element in (coproduct(x1), mv):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(element, 0)
            with pytest.raises(TypeError):
                op(0, element)
    assert mv * 2 == 2 * mv == mv + mv
    assert (mv * 2).terms == {(0,): y * 2}

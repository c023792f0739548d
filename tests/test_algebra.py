"""Exact polynomial arithmetic, morphisms, derivations, and the
coproduct/counit/antipode structure carried by marked generators."""

import random
from fractions import Fraction

import pytest

from lrhopf import (
    CommutativeAlgebra,
    Derivation,
    GeneratorDecl,
    check_hopf_axioms,
    comultiplication,
    counit_morphism,
    antipode_morphism,
)
from lrhopf.algebra import multiplication_morphism, on_leg
from lrhopf.sampling import make_rng, random_poly


def poly_line():
    return CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])


def laurent_line():
    return CommutativeAlgebra(
        [GeneratorDecl("t", invertible=True, hopf_kind="group_like")]
    )


def test_constants_and_generators():
    A = poly_line()
    y = A.gen(0)
    p = (y + 1) * (y - 1)
    assert str(p) == "y^2 - 1"
    assert (p - y * y).as_constant() == Fraction(-1)
    assert (p - y * y + 1).is_zero()
    with pytest.raises(ValueError):
        p.as_constant()


def test_fraction_coefficients_stay_exact():
    A = poly_line()
    y = A.gen(0)
    p = y * Fraction(1, 3) + A.const(Fraction(1, 6))
    q = p * 6
    assert q == y * 2 + 1


def test_power_and_negative_power():
    A = laurent_line()
    t = A.gen(0)
    assert (t ** -2) * (t ** 2) == A.one()
    assert str(t ** -1) == "t^-1"
    B = poly_line()
    with pytest.raises(ValueError):
        (B.gen(0) + 1) ** -1


def test_product_ring_properties_random():
    # commutativity, associativity, distributivity on random triples
    A = CommutativeAlgebra(
        [GeneratorDecl("y1", hopf_kind="primitive"),
         GeneratorDecl("y2", hopf_kind="primitive")]
    )
    rng = make_rng(11)
    for _ in range(60):
        p = random_poly(rng, A, max_degree=3, terms=3)
        q = random_poly(rng, A, max_degree=3, terms=3)
        r = random_poly(rng, A, max_degree=2, terms=2)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_tensor_power_names_and_embedding():
    A = poly_line()
    T2 = A.tensor_power(2)
    assert [g.name for g in T2.gens] == ["y'", "y''"]
    from lrhopf.algebra import tensor_embed
    y = A.gen(0)
    left = tensor_embed(y, 0, T2)
    right = tensor_embed(y, 1, T2)
    assert str(left) == "y'"
    assert str(right) == "y''"
    assert left * right == right * left


def test_morphism_composition_and_units():
    A = laurent_line()
    t = A.gen(0)
    delta = comultiplication(A)
    eps = counit_morphism(A)
    assert str(delta(t)) == "t'*t''"
    assert eps(t).as_constant() == 1
    # counit is an algebra map on a sample product
    assert eps(t ** 3 + t).as_constant() == Fraction(2)


def test_antipode_on_group_like_and_primitive():
    A = laurent_line()
    t = A.gen(0)
    anti = antipode_morphism(A)
    assert anti(t) == t ** -1
    B = poly_line()
    y = B.gen(0)
    assert antipode_morphism(B)(y) == -y


def test_comultiplication_is_multiplicative_random():
    A = poly_line()
    delta = comultiplication(A)
    rng = make_rng(5)
    for _ in range(40):
        p = random_poly(rng, A, max_degree=3, terms=3)
        q = random_poly(rng, A, max_degree=3, terms=3)
        assert delta(p * q) == delta(p) * delta(q)


def test_hopf_axioms_battery_passes():
    for A in (poly_line(), laurent_line()):
        report = check_hopf_axioms(A, max_degree=3, seed=0, samples=40)
        assert report.ok, str(report)


def test_hopf_axioms_battery_rejects_broken_antipode():
    A = poly_line()
    # the identity is not an antipode for a primitive generator
    from lrhopf import identity_morphism
    report = check_hopf_axioms(A, max_degree=3, seed=0, samples=40,
                               antipode=identity_morphism(A))
    names = {c.name for c in report.failures()}
    assert "antipode-left" in names or "antipode-right" in names


def test_unmarked_generators_have_no_coproduct():
    A = CommutativeAlgebra([GeneratorDecl("u")])
    with pytest.raises(ValueError):
        comultiplication(A)


def test_group_like_must_be_invertible():
    with pytest.raises(ValueError):
        GeneratorDecl("t", hopf_kind="group_like")


def test_multiplication_morphism_collapses_tensor_square():
    A = poly_line()
    T2 = A.tensor_power(2)
    mult = multiplication_morphism(A)
    delta = comultiplication(A)
    y = A.gen(0)
    p = (y + 2) ** 2
    assert mult(delta(p)) is not None
    # multiplication after comultiplication is not the identity in general,
    # but on a primitive generator it doubles it
    assert mult(delta(y)) == y * 2


def test_derivation_leibniz_frozen_value():
    A = poly_line()
    y = A.gen(0)
    D = Derivation(A, [y])  # the scaling derivation y d/dy
    p = (y + 1) ** 2
    assert str(D(p)) == "2*y^2 + 2*y"


def test_derivation_leibniz_random():
    A = CommutativeAlgebra(
        [GeneratorDecl("y1", hopf_kind="primitive"),
         GeneratorDecl("y2", hopf_kind="primitive")]
    )
    rng = make_rng(23)
    for _ in range(40):
        vals = [random_poly(rng, A, max_degree=2, terms=2) for _ in range(2)]
        D = Derivation(A, vals)
        p = random_poly(rng, A, max_degree=3, terms=3)
        q = random_poly(rng, A, max_degree=3, terms=3)
        assert D(p * q) == D(p) * q + p * D(q)


def test_derivation_on_inverse_generators():
    A = laurent_line()
    t = A.gen(0)
    D = Derivation(A, [t])  # t d/dt
    assert D(t ** -1) == -(t ** -1)
    assert D(t ** -3) == (t ** -3) * -3


def test_derivation_commutator_is_derivation():
    A = poly_line()
    y = A.gen(0)
    D1 = Derivation(A, [y])
    D2 = Derivation(A, [y * y])
    C = D1.commutator(D2)
    rng = make_rng(7)
    for _ in range(25):
        p = random_poly(rng, A, max_degree=3, terms=3)
        q = random_poly(rng, A, max_degree=2, terms=2)
        assert C(p * q) == C(p) * q + p * C(q)
    # [y d/dy, y^2 d/dy] = y^2 d/dy
    assert C(y) == y * y


def test_random_poly_is_reproducible():
    A = poly_line()
    one = [str(random_poly(make_rng(99), A)) for _ in range(3)]
    two = [str(random_poly(make_rng(99), A)) for _ in range(3)]
    assert one == two


def test_hopf_maps_and_tensor_powers_are_built_once_per_algebra():
    A = poly_line()
    for build in (comultiplication, counit_morphism, antipode_morphism):
        assert build(A) is build(A)
    assert A.tensor_power(3) is A.tensor_power(3)
    assert comultiplication(A).target is A.tensor_power(2)
    # an equal algebra built apart keeps its own maps
    assert comultiplication(poly_line()) is not comultiplication(A)
    assert comultiplication(poly_line()) == comultiplication(A)


def _line_and_circle():
    return CommutativeAlgebra([
        GeneratorDecl("y", hopf_kind="primitive"),
        GeneratorDecl("t", invertible=True, hopf_kind="group_like"),
    ])


# (map, leg) -> images of y', t', y'', t'' written out by hand: the oracle
# of on_leg, and through it of the one-leg maps in check_hopf_axioms
ON_LEG_IMAGES = {
    ("coproduct", 0): ["y' + y''", "t'*t''", "y'''", "t'''"],
    ("coproduct", 1): ["y'", "t'", "y'' + y'''", "t''*t'''"],
    ("counit", 0): ["0", "1", "y", "t"],
    ("counit", 1): ["y", "t", "0", "1"],
    ("antipode", 0): ["-y'", "t'^-1", "y''", "t''"],
    ("antipode", 1): ["y'", "t'", "-y''", "t''^-1"],
}


@pytest.mark.parametrize("name, leg", sorted(ON_LEG_IMAGES))
def test_on_leg_matches_images_written_by_hand(name, leg):
    A = _line_and_circle()
    build = {"coproduct": comultiplication, "counit": counit_morphism,
             "antipode": antipode_morphism}[name]
    g = on_leg(build(A), leg)
    A2 = A.tensor_power(2)
    target = {"coproduct": A.tensor_power(3), "counit": A, "antipode": A2}[name]
    assert g.source is A2 and g.target is target
    assert [str(g(A2.gen(i))) for i in range(A2.ngens)] == ON_LEG_IMAGES[name, leg]
    assert on_leg(build(A), leg) is g


def test_on_leg_refuses_a_map_outside_its_range():
    A = poly_line()
    with pytest.raises(ValueError):
        on_leg(multiplication_morphism(A), 0)

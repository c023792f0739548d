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
from lrhopf.algebra import AlgebraMorphism, LaurentPoly, multiplication_morphism, on_leg
from lrhopf.dsl import parse_structure_file
from lrhopf.sampling import make_rng, random_poly

from conftest import read_fixture


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


@pytest.mark.parametrize("copy", [-1, 2, 3, 5])
def test_copies_outside_the_tensor_power_are_refused(copy):
    # before any term is built: -1 used to wrap round to the last copy, 2
    # and 3 to fail on a list index, and a lift to copy 5 to act as zero
    from lrhopf.algebra import spread_copies, tensor_embed
    A = poly_line()
    T2 = A.tensor_power(2)
    y = A.gen(0)
    with pytest.raises(ValueError, match="copies"):
        tensor_embed(y, copy, T2)
    with pytest.raises(ValueError, match="copies"):
        spread_copies(tensor_embed(y, 0, T2), A, (0, copy), T2)
    with pytest.raises(ValueError, match="copies"):
        Derivation(A, [A.one()]).tensor_lift(copy, T2)


def test_an_invertible_slot_on_a_polynomial_copy_is_still_validated():
    from lrhopf.algebra import tensor_embed
    A = laurent_line()
    t = A.gen(0)
    # two copies of one slot, neither invertible
    target = CommutativeAlgebra([GeneratorDecl("s'"), GeneratorDecl("s''")])
    assert str(tensor_embed(t ** 2, 1, target)) == "s''^2"
    with pytest.raises(ValueError, match="negative exponent"):
        tensor_embed(t ** -1, 0, target)


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


def test_generator_declarations_are_frozen_hashable_values():
    g = GeneratorDecl("t", invertible=True, hopf_kind="group_like")
    assert g == GeneratorDecl("t", True, "group_like")
    assert hash(g) == hash(GeneratorDecl("t", True, "group_like"))
    assert g != GeneratorDecl("t", invertible=True)
    assert len({g, GeneratorDecl("t", True, "group_like"), GeneratorDecl("y")}) == 2
    with pytest.raises(AttributeError):
        g.name = "s"
    with pytest.raises(AttributeError):
        del g.invertible
    assert (g.name, g.invertible, g.hopf_kind) == ("t", True, "group_like")
    with pytest.raises(ValueError):
        GeneratorDecl("y", hopf_kind="sideways")
    with pytest.raises(ValueError):
        GeneratorDecl("y", invertible=True, hopf_kind="primitive")


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


def test_integral_coefficients_are_stored_as_ints():
    A = _line_and_circle()
    y, t = A.gen(0), A.gen(1)
    p = y * Fraction(1, 2) + A.const(Fraction(6, 3)) + A.monomial((0, 1), Fraction(4, 2))
    assert {type(c) for c in p.terms.values()} == {Fraction, int}
    assert [type(c) for c in (p * 2).terms.values()] == [int, int, int]
    assert A.const(True).terms == {(0, 0): 1}
    assert type(A.const(True).terms[(0, 0)]) is int


def test_bool_scalars_and_equal_algebra_objects_take_the_general_path():
    # products and == test the operand's class before the costlier
    # isinstance tests: a bool is still a scalar, and an equal algebra
    # that is another object still compares by value
    A, B = _line_and_circle(), _line_and_circle()
    p = A.gen(0) * Fraction(1, 2) + 3
    assert A is not B and A == B
    assert p * True == p and True * p == p and (p * False).terms == {}
    assert [type(c) for c in (A.gen(0) * True).terms.values()] == [int]
    q = LaurentPoly(B, dict(p.terms))
    assert p == q and q == p and not p != q and (p * q).terms == (p * p).terms
    assert p != LaurentPoly(B, {(1, 0): Fraction(1, 2)})
    assert A.const(3) == 3 and 3 == A.const(3) and A.const(Fraction(1, 2)) == Fraction(1, 2)


def test_inverse_is_exact():
    A = laurent_line()
    t = A.gen(0)
    assert (t * 2).inverse().terms == {(-1,): Fraction(1, 2)}
    assert (t * Fraction(1, 2)).inverse().terms == {(-1,): 2}
    assert type((t * Fraction(1, 2)).inverse().terms[(-1,)]) is int
    assert type((t * -1).inverse().terms[(-1,)]) is int
    assert (t * 3) ** -2 == A.monomial((-2,), Fraction(1, 9))


def test_public_scalar_returns_stay_fractions():
    A = _line_and_circle()
    for p in (A.const(7), A.const(Fraction(1, 2)), A.zero(), A.gen(0) + 3):
        assert type(p.constant_coefficient()) is Fraction
    for p in (A.const(7), A.const(Fraction(1, 2)), A.zero()):
        assert type(p.as_constant()) is Fraction
    assert A.const(7).as_constant() == 7
    assert (A.gen(0) + 3).constant_coefficient() == 3


@pytest.mark.parametrize("build", [
    lambda A: A.const(0.1),
    lambda A: A.monomial((1, 0), 0.5),
    lambda A: LaurentPoly(A, {(1, 0): 0.5}),
    lambda A: A.const("1/2"),
], ids=["const", "monomial", "LaurentPoly", "string"])
def test_validating_constructors_refuse_floats(build):
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        build(_line_and_circle())


def _hopf_maps(name):
    """The Hopf maps of a fixture's algebra and their one-leg extensions
    (two-generator sources), each as a fresh morphism with an empty memo."""
    A = parse_structure_file(read_fixture(name)).build()[0].algebra
    maps = [comultiplication(A), counit_morphism(A), antipode_morphism(A)]
    maps += [on_leg(f, leg) for f in maps for leg in (0, 1)]
    return [AlgebraMorphism(f.source, f.target, f.images) for f in maps]


def _product_of_powers(f, exps):
    image = f.target.one()
    for img, e in zip(f.images, exps):
        image = image * img**e
    return image


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
@pytest.mark.parametrize("name", ["euler.lra", "aff2.lra", "torus.lra"])
def test_monomial_images_build_on_their_predecessor(monkeypatch, name, order):
    products = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__",
                        lambda p, q: products.append(1) or mul(p, q))
    for f in _hopf_maps(name):
        wanted = sorted((next(iter(m.terms)) for m in f.source.monomials_up_to(4)),
                        key=lambda exps: (sum(map(abs, exps)), exps))
        if order == "decreasing":
            wanted.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(wanted)
        for exps in wanted:
            memo = f._monomial_images
            warm = any(exps[:i] + (e - 1 if e > 0 else e + 1,) + exps[i + 1:] in memo
                       for i, e in enumerate(exps) if e)
            del products[:]
            image = f._monomial_image(exps)
            if warm:
                assert len(products) == 1, (f, exps)
            assert image == _product_of_powers(f, exps), (f, exps)
        # the memo holds the requested monomials and nothing else
        assert set(f._monomial_images) == set(wanted)


def test_a_high_monomial_image_needs_no_recursion():
    A = poly_line()
    f = AlgebraMorphism(A, A, antipode_morphism(A).images)
    y = A.gen(0)
    assert f(y**3000) == y**3000
    assert f._monomial_image((2999,)) == -(y**2999)
    assert set(f._monomial_images) == {(3000,), (2999,)}


def test_the_hopf_battery_applies_the_coproduct_once_per_element(monkeypatch):
    for A in (poly_line(), laurent_line()):
        delta = comultiplication(A)
        # the one-leg maps apply delta to the generators when first built
        on_leg(delta, 0), on_leg(delta, 1)
        calls = []
        call = AlgebraMorphism.__call__
        monkeypatch.setattr(AlgebraMorphism, "__call__",
                            lambda f, p: (f is delta and calls.append(p)) or call(f, p))
        assert check_hopf_axioms(A, max_degree=3, seed=0, samples=10).ok
        assert len(calls) == len(list(A.monomials_up_to(3))) + 10
        monkeypatch.undo()

"""The coproduct, counit, and antipode on enveloping algebras, their
tensor-square carrier, and the full verification battery."""

import os
from fractions import Fraction

import pytest

from lrhopf import (
    CommutativeAlgebra,
    CoproductLikeMap,
    Derivation,
    EnvElement,
    GeneratorDecl,
    LieRinehartAlgebra,
    TensorEnvElement,
    antipode,
    check_antipode,
    check_bialgebra,
    check_hopf_lr,
    coproduct,
    counit,
    tensor_pair,
    tensor_power_structure,
)
from lrhopf.dsl import parse_structure_file
from lrhopf.hopf import _unit_words, antipode_convolution, counit_collapse, standard_coproduct
from lrhopf.sampling import make_rng, random_env_element

from conftest import FIXTURES, fixture_path


def test_tensor_power_structure_shape(aff2):
    T = tensor_power_structure(aff2, 2)
    assert list(T.basis_names) == ["x1'", "x2'", "x1''", "x2''"]
    assert [g.name for g in T.algebra.gens] == ["y'", "y''"]
    # letters from different legs commute
    a = EnvElement.generator(T, 0)  # x1'
    b = EnvElement.generator(T, 3)  # x2''
    assert a * b == b * a


def test_coproduct_frozen_values(euler):
    A = euler.algebra
    y = A.gen(0)
    x = EnvElement.generator(euler, 0)
    yx = y * x
    assert str(coproduct(yx)) == "y*x (x) 1 + x (x) y + y (x) x + 1 (x) y*x"
    assert str(coproduct(yx + EnvElement.from_poly(euler, y))) == (
        "y*x (x) 1 + x (x) y + y (x) x + 1 (x) y*x + y (x) 1 + 1 (x) y"
    )


def test_coproduct_of_square_has_binomial_split(euler):
    x = EnvElement.generator(euler, 0)
    t = coproduct(x * x)
    flat = {}
    for (w1, w2), c in t.terms.items():
        flat[(w1, w2)] = c
    T2 = tensor_power_structure(euler, 2).algebra
    assert flat[((0,), (0,))] == T2.const(2)


def test_counit_frozen_values(euler):
    A = euler.algebra
    y = A.gen(0)
    x = EnvElement.generator(euler, 0)
    assert counit(y * x) == Fraction(0)
    assert counit(EnvElement.from_poly(euler, y + 1)) == Fraction(1)
    assert counit(EnvElement.one(euler) * 7) == Fraction(7)


def test_antipode_frozen_values(euler, aff2):
    A = euler.algebra
    y = A.gen(0)
    x = EnvElement.generator(euler, 0)
    assert antipode(x) == -x
    assert str(antipode(y * x)) == "y*x + y"
    x1 = EnvElement.generator(aff2, 0)
    x2 = EnvElement.generator(aff2, 1)
    # antihomomorphism: S(x1 x2) = S(x2) S(x1) = x2 x1 = x1 x2 - x2
    assert antipode(x1 * x2) == x1 * x2 - x2


def test_antipode_squares_to_identity_on_samples(aff2):
    rng = make_rng(13)
    for _ in range(20):
        u = random_env_element(rng, aff2, max_word=3, max_degree=2)
        assert antipode(antipode(u)) == u


def test_convolution_laws_random(euler):
    rng = make_rng(41)
    for _ in range(20):
        u = random_env_element(rng, euler, max_word=3, max_degree=2)
        t = coproduct(u)
        lhs = antipode_convolution(t, 0)
        unit_scaled = EnvElement.one(euler) * counit(u)
        assert lhs == unit_scaled
        assert antipode_convolution(t, 1) == unit_scaled


def test_counit_collapse_recovers_element(aff2):
    rng = make_rng(8)
    for _ in range(20):
        u = random_env_element(rng, aff2, max_word=2, max_degree=2)
        t = coproduct(u)
        assert counit_collapse(t, 0) == u
        assert counit_collapse(t, 1) == u


def test_tensor_pair_multiplies_legwise(aff2):
    x1 = EnvElement.generator(aff2, 0)
    x2 = EnvElement.generator(aff2, 1)
    t = tensor_pair(x1, x2) * tensor_pair(x2, x1)
    direct = tensor_pair(x1 * x2, x2 * x1)
    assert t == direct


def test_coproduct_is_multiplicative_random(aff2):
    rng = make_rng(19)
    for _ in range(15):
        u = random_env_element(rng, aff2, max_word=2, max_degree=1)
        v = random_env_element(rng, aff2, max_word=2, max_degree=1)
        assert coproduct(u * v) == coproduct(u) * coproduct(v)


def test_coassociativity_on_words(euler):
    delta = standard_coproduct(euler)
    x = EnvElement.generator(euler, 0)
    y = EnvElement.from_poly(euler, euler.algebra.gen(0))
    for u in (x, y * x, x * x * x):
        t = delta(u)
        left = delta.apply_to_leg(t, 0)
        right = delta.apply_to_leg(t, 1)
        assert left == right


def test_bialgebra_battery(euler, aff2):
    for S in (euler, aff2):
        report = check_bialgebra(S, seed=0, samples=60)
        assert report.ok, str(report)


def test_antipode_battery(euler, aff2):
    for S in (euler, aff2):
        report = check_antipode(S, seed=0, samples=40)
        assert report.ok, str(report)


def test_full_battery_euler(euler):
    report = check_hopf_lr(euler, seed=0, samples=60)
    assert report.ok, str(report)
    names = [c.name for c in report.checks]
    assert any(n.startswith("coefficients.") for n in names)
    assert any(n.startswith("module.") for n in names)
    assert "antipode-equivariance" in names


def test_full_battery_rejects_broken_coefficient_antipode(euler):
    from lrhopf import identity_morphism
    report = check_hopf_lr(
        euler, seed=0, samples=30,
        coefficient_antipode=identity_morphism(euler.algebra),
    )
    assert not report.ok


_FIXTURE_FILES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".lra"))


def _load(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        S, _ = parse_structure_file(fh.read()).build()
    return S


@pytest.mark.parametrize("name", _FIXTURE_FILES)
def test_closed_form_coproduct_matches_rewriting(name):
    # every fixture: generators all carry Hopf markers (torus is group-like
    # with negative exponents) or there are none (sl2 and friends, n = 0)
    S = _load(name)
    dmap = standard_coproduct(S)
    assert dmap.standard
    A = S.algebra
    rng = make_rng(23)
    inputs = _unit_words(S, 3)
    inputs += [random_env_element(rng, S, max_word=3, max_degree=2) for _ in range(40)]
    total = sum((EnvElement.generator(S, i) for i in range(S.rank)), EnvElement.zero(S))
    total = total + sum((A.gen(g) for g in range(A.ngens)), A.zero())
    inputs.append(total ** 3)
    for u in inputs:
        fast, slow = dmap(u), dmap.by_rewriting(u)
        assert fast.terms == slow.terms, f"{name}: coproduct of {u}"


def _flat_product(a, b):
    """The tensor-square product computed in the doubled structure: the
    oracle of the legwise product."""
    return TensorEnvElement.from_flat(a.structure, a.to_flat() * b.to_flat())


def _legwise_inputs(S, seed):
    rng = make_rng(seed)
    rand = lambda: random_env_element(rng, S, max_word=2, max_degree=2)
    basis = sum((EnvElement.generator(S, i) for i in range(S.rank)), EnvElement.zero(S))
    tensors = [coproduct(basis ** 2), coproduct(basis)]
    tensors += [coproduct(rand()) for _ in range(6)]
    # elementary tensors carry coefficients that differ between the legs
    tensors += [tensor_pair(rand(), rand()) for _ in range(6)]
    return tensors


def _legwise_structure(name):
    if name != "a-valued":
        return _load(name)
    # the structure of test_a_valued_bracket_coefficient_fails_hopf_battery
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    y, z = A.gen(0), A.zero()
    return LieRinehartAlgebra(
        A, ["x1", "x2"], {(0, 1): [z, y]}, [Derivation(A, [y]), Derivation(A, [z])]
    )


@pytest.mark.parametrize("name", _FIXTURE_FILES + ["a-valued"])
def test_legwise_tensor_product_matches_the_flat_product(name):
    S = _legwise_structure(name)
    tensors = _legwise_inputs(S, 31)
    for i, a in enumerate(tensors):
        for b in tensors[i % 3 :: 3]:
            assert (a * b).terms == _flat_product(a, b).terms, f"{name}: {a} times {b}"
    A2 = tensor_power_structure(S, 2).algebra
    c = A2.const(Fraction(-2, 3))
    if A2.ngens:
        c = c + A2.gen(0) - A2.gen(A2.ngens - 1) * A2.gen(0)
    for a in tensors[:4]:
        flat = TensorEnvElement.from_flat(S, a.to_flat() * c)
        assert (a * c).terms == flat.terms, f"{name}: {a} times {c}"


def test_perturbed_images_take_the_rewriting_path(euler):
    T2 = tensor_power_structure(euler, 2)
    x1, x2 = EnvElement.generator(T2, 0), EnvElement.generator(T2, 1)
    dmap = CoproductLikeMap(euler, [x1 + x2 + x1 * x2])
    assert not dmap.standard
    u = EnvElement.generator(euler, 0) ** 2
    assert dmap(u) == dmap.by_rewriting(u)
    assert dmap(u) != coproduct(u)


def test_a_valued_bracket_coefficient_fails_hopf_battery():
    # [x1, x2] = y*x2 over Q[y] with y primitive: the A-valued bracket
    # coefficient breaks multiplicativity of the coproduct
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    y, z = A.gen(0), A.zero()
    S = LieRinehartAlgebra(
        A, ["x1", "x2"], {(0, 1): [z, y]}, [Derivation(A, [y]), Derivation(A, [z])]
    )
    report = check_hopf_lr(S, seed=0, samples=40)
    failing = {c.name: c.witness for c in report.checks if c.verdict == "fail"}
    assert failing == {
        "coproduct-multiplicative-words": "at u=x2, v=x1",
        "coproduct-multiplicative-random": "at u=3*x1*x2 - 2*y, v=x2^2 + x1*x2",
        "antipode-antihomomorphism": "at u=-y*x2 + 2*y, v=x1^2*x2 - 2*x1*x2",
    }
    assert len(report.checks) == 27

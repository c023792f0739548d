"""The coproduct, counit, and antipode on enveloping algebras, their
tensor-square carrier, and the full verification battery."""

import operator
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
from lrhopf.algebra import comultiplication, spread_copies, tensor_embed
from lrhopf.calculus import cobracket_images
from lrhopf.dsl import parse_structure_file
from lrhopf.hopf import _unit_words, antipode_convolution, counit_collapse, standard_coproduct
from lrhopf.sampling import make_rng, random_env_element

from conftest import FIXTURES, fixture_path
from flat_oracle import flat_product, from_flat, to_flat


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


def _triple(S, t, u):
    """The three-leg tensor t (x) u."""
    A3 = tensor_power_structure(S, 3).algebra
    terms = {}
    for (w0, w1), c in t.terms.items():
        for w2, a in u.terms.items():
            c3 = spread_copies(c, S.algebra, (0, 1), A3) * tensor_embed(a, 2, A3)
            terms[(w0, w1, w2)] = c3
    return TensorEnvElement(S, terms, 3)


@pytest.mark.parametrize("name", _FIXTURE_FILES + ["a-valued"])
def test_legwise_tensor_product_matches_the_flat_product(name):
    S = _legwise_structure(name)
    tensors = _legwise_inputs(S, 31)
    for i, a in enumerate(tensors):
        for b in tensors[i % 3 :: 3]:
            assert (a * b).terms == flat_product(a, b).terms, f"{name}: {a} times {b}"
    triples = [_triple(S, tensors[i], random_env_element(make_rng(i), S, 1, 2)) for i in (0, 9, 10)]
    for i, a in enumerate(triples):
        for b in triples[i:]:
            assert (a * b).terms == flat_product(a, b).terms, f"{name}: {a} times {b}"
    A2 = tensor_power_structure(S, 2).algebra
    c = A2.const(Fraction(-2, 3))
    if A2.ngens:
        c = c + A2.gen(0) - A2.gen(A2.ngens - 1) * A2.gen(0)
    for a in tensors[:4]:
        flat = from_flat(S, to_flat(a) * c)
        assert (a * c).terms == flat.terms, f"{name}: {a} times {c}"


def test_perturbed_images_take_the_rewriting_path(euler):
    x, one = EnvElement.generator(euler, 0), EnvElement.one(euler)
    # x' + x'' + x' x''
    dmap = CoproductLikeMap(euler, [tensor_pair(x, one) + tensor_pair(one, x) + tensor_pair(x, x)])
    assert not dmap.standard
    u = EnvElement.generator(euler, 0) ** 2
    assert dmap(u) == dmap.by_rewriting(u)
    assert dmap(u) != coproduct(u)


def _flat_apply_to_leg(dmap, t, leg):
    """dmap applied to one leg of t, multiplied out in the tripled structure
    from the letter images: the oracle of CoproductLikeMap.apply_to_leg."""
    S, A, m, n = dmap.S, dmap.S.algebra, dmap.S.rank, dmap.S.algebra.ngens
    T3 = tensor_power_structure(S, 3)
    A3 = T3.algebra
    delta = comultiplication(A)
    copies = (0, 1) if leg == 0 else (1, 2)

    def coefficient(c):
        # the coproduct of A on the mapped leg, monomial by monomial
        total = A3.zero()
        for exps, q in c.terms.items():
            y0, y1 = A.monomial(exps[:n], q), A.monomial(exps[n:])
            if leg == 0:
                total += spread_copies(delta(y0), A, copies, A3) * tensor_embed(y1, 2, A3)
            else:
                total += tensor_embed(y0, 0, A3) * spread_copies(delta(y1), A, copies, A3)
        return total

    def mapped(letter):
        terms = {}
        for (w0, w1), c in dmap.images[letter].terms.items():
            word = tuple(l + copies[0] * m for l in w0) + tuple(l + copies[1] * m for l in w1)
            terms[word] = spread_copies(c, A, copies, A3)
        return EnvElement(T3, terms)

    out = EnvElement.zero(T3)
    for (w0, w1), c in t.terms.items():
        cur = EnvElement.from_poly(T3, coefficient(c))
        for l in w0:
            cur = cur * (mapped(l) if leg == 0 else EnvElement.generator(T3, l))
        for l in w1:
            cur = cur * (EnvElement.generator(T3, 2 * m + l) if leg == 0 else mapped(l))
        out = out + cur
    return from_flat(S, out, 3)


_DUAL_FIXTURES = ["euler_dual.lra", "heis_dual.lra", "lie2_trivial_dual.lra"]


def _three_leg_map(name):
    kind, _, base = name.partition(":")
    if kind != "perturbed":
        return standard_coproduct(_legwise_structure(name))
    if base == "a-valued":
        # its own bracket read as a cobracket: images with coefficients in y
        S = dual = _legwise_structure(base)
    else:
        with open(fixture_path(base), encoding="utf-8") as fh:
            S, dual = parse_structure_file(fh.read()).build()
    images = [e + d for e, d in zip(standard_coproduct(S).images, cobracket_images(S, dual))]
    return CoproductLikeMap(S, images, label="perturbed-coproduct")


@pytest.mark.parametrize(
    "name",
    _FIXTURE_FILES + ["a-valued"] + [f"perturbed:{f}" for f in _DUAL_FIXTURES + ["a-valued"]],
)
def test_apply_to_leg_matches_the_tripled_structure(name):
    dmap = _three_leg_map(name)
    S = dmap.S
    rng = make_rng(37)
    rand = lambda: random_env_element(rng, S, max_word=2, max_degree=2)
    tensors = [dmap(u) for u in _unit_words(S, 2)]
    tensors += [dmap(rand()) for _ in range(4)]
    tensors += [tensor_pair(rand(), rand()) for _ in range(4)]
    for t in tensors:
        for leg in (0, 1):
            got = dmap.apply_to_leg(t, leg)
            assert got.legs == 3
            assert got.terms == _flat_apply_to_leg(dmap, t, leg).terms, f"{name}: leg {leg} of {t}"


def test_elements_with_different_legs_do_not_mix(aff2):
    t = coproduct(EnvElement.generator(aff2, 0))
    t3 = standard_coproduct(aff2).apply_to_leg(t, 0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(t, t3)
        with pytest.raises(ValueError):
            op(t3, t)
    assert t != t3
    assert TensorEnvElement.zero(aff2) != TensorEnvElement.zero(aff2, 3)
    with pytest.raises(ValueError):
        CoproductLikeMap(aff2, [t3, t3])
    with pytest.raises(ValueError):
        TensorEnvElement(aff2, {((),): 1}, 1)


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


def test_coproduct_coefficients_live_in_the_memoized_tensor_square(gl2):
    A2 = gl2.algebra.tensor_power(2)
    t = coproduct(random_env_element(make_rng(4), gl2, max_word=2, max_degree=2))
    assert t.terms and all(c.algebra is A2 for c in t.terms.values())
    assert t.algebra is A2
    assert all(c.algebra is A2 for c in (t * t).terms.values())

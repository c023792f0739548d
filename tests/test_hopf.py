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
    LaurentPoly,
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
from lrhopf.algebra import spread_copies, tensor_embed
from lrhopf.calculus import cobracket_images
from lrhopf.dsl import parse_structure_file
from lrhopf.hopf import _unit_words, antipode_convolution, counit_collapse, standard_coproduct
from lrhopf.sampling import make_rng, random_env_element

from conftest import FIXTURES, read_fixture
from flat_oracle import flat_apply_to_leg, flat_product, from_flat, to_flat


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


def test_counit_returns_a_fraction_on_integral_values(euler, aff2):
    for S in (euler, aff2):
        for u in (EnvElement.one(S) * 7, EnvElement.zero(S), EnvElement.generator(S, 0),
                  EnvElement.from_poly(S, S.algebra.const(Fraction(1, 2)))):
            assert type(counit(u)) is Fraction
            assert type(u.counit()) is Fraction
    assert counit(EnvElement.one(euler) * 7) == 7


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
    return parse_structure_file(read_fixture(name)).build()[0]


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


_DUAL_FIXTURES = ["euler_dual.lra", "heis_dual.lra", "lie2_trivial_dual.lra"]


def _perturbed_map(base):
    """The map conjecture_probe builds on a structure with a dual: the
    standard letter images plus the dual's cobracket."""
    if base == "a-valued":
        # its own bracket read as a cobracket: images with coefficients in y
        S = dual = _legwise_structure(base)
    else:
        S, dual = parse_structure_file(read_fixture(base)).build()
    images = [e + d for e, d in zip(standard_coproduct(S).images, cobracket_images(S, dual))]
    return CoproductLikeMap(S, images, label="perturbed-coproduct")


def _three_leg_map(name):
    kind, _, base = name.partition(":")
    if kind != "perturbed":
        return standard_coproduct(_legwise_structure(name))
    return _perturbed_map(base)


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
            assert got.terms == flat_apply_to_leg(dmap, t, leg).terms, f"{name}: leg {leg} of {t}"


@pytest.mark.parametrize("base", ["euler_dual.lra", "heis_dual.lra", "a-valued"])
def test_image_products_are_memoized_per_map_and_per_leg(base):
    # two maps on one structure, called in turn on both legs, twice over:
    # a memo shared between maps or legs would hand one the other's products
    perturbed = _perturbed_map(base)
    S = perturbed.S
    standard = standard_coproduct(S)
    rng = make_rng(43)
    rand = lambda: random_env_element(rng, S, max_word=2, max_degree=1)
    tensors = [standard(u) for u in _unit_words(S, 2)]
    tensors += [tensor_pair(rand(), rand()) for _ in range(3)]
    maps = (standard, perturbed)
    want = {(m, i, leg): flat_apply_to_leg(dmap, t, leg).terms
            for m, dmap in enumerate(maps) for i, t in enumerate(tensors) for leg in (0, 1)}
    for _ in range(2):
        for i, t in enumerate(tensors):
            for leg in (0, 1):
                for m, dmap in enumerate(maps):
                    got = dmap.apply_to_leg(t, leg).terms
                    assert got == want[(m, i, leg)], f"{base}: map {m}, leg {leg} of {t}"
        for u in _unit_words(S, 2):
            assert standard.by_rewriting(u) == standard(u)
            assert perturbed.by_rewriting(u) == perturbed(u)
    # the zero cobracket of euler_dual leaves the images standard
    differ = any(want[(0, i, leg)] != want[(1, i, leg)]
                 for i in range(len(tensors)) for leg in (0, 1))
    assert differ == (base != "euler_dual.lra")


def _repeated_coefficient_operands(S):
    """Two-leg tensors whose terms repeat coefficient values: one value
    carried by distinct objects, and one coefficient times scalars (as the
    closed-form coproduct writes image * mult)."""
    A2 = S.algebra.tensor_power(2)
    c = A2.const(Fraction(-2, 3))
    d = A2.const(3)
    if A2.ngens:
        c = c + A2.gen(0) * A2.gen(A2.ngens - 1)
        d = d * A2.gen(A2.ngens - 1) - A2.gen(0)
    words = [next(iter(u.terms)) for u in _unit_words(S, 2)]
    keys = [(u, v) for u in words for v in words if len(u) + len(v) <= 3][:9]
    copies = {key: LaurentPoly(A2, dict((c if i % 3 else d).terms))
              for i, key in enumerate(keys)}
    shared = TensorEnvElement(S, copies)
    assert all(shared.terms[key] is copies[key] for key in keys)
    assert len({id(x) for x in shared.terms.values()}) == len(keys)
    mults = [1, 2, -1, Fraction(1, 3), 3, 1, 6, Fraction(-5, 2), 2]
    scaled = TensorEnvElement(S, {key: c * m for key, m in zip(keys, mults)})
    return [shared, scaled]


@pytest.mark.parametrize("name", _FIXTURE_FILES + ["a-valued"])
def test_repeated_left_coefficients_match_the_flat_product(name):
    S = _legwise_structure(name)
    repeated = _repeated_coefficient_operands(S)
    others = _legwise_inputs(S, 47)[:3]
    for a in repeated:
        for b in repeated + others:
            assert (a * b).terms == flat_product(a, b).terms, f"{name}: {a} times {b}"
            assert (b * a).terms == flat_product(b, a).terms, f"{name}: {b} times {a}"
    u = random_env_element(make_rng(5), S, 1, 1)
    triples = [_triple(S, a, u) for a in repeated]
    for a in triples:
        b = triples[0]
        assert (a * b).terms == flat_product(a, b).terms, f"{name}: {a} times {b}"


def test_separately_parsed_copies_are_one_structure_and_mix():
    text = read_fixture("aff2.lra")
    S1, _ = parse_structure_file(text).build()
    S2, _ = parse_structure_file(text).build()
    assert S1 is not S2 and S1 == S2 and not S1 != S2
    x1, x2 = EnvElement.generator(S1, 0), EnvElement.generator(S2, 1)
    assert x1 * x2 - x2 * x1 == EnvElement.generator(S1, 1)
    assert standard_coproduct(S1)(x1 * x2) == coproduct(EnvElement.generator(S2, 0) * x2)
    assert coproduct(x1) * coproduct(x2) == coproduct(x1 * x2)
    changed = text.replace("bracket [x1, x2] = x2;", "bracket [x1, x2] = 2*x2;")
    assert changed != text
    S3, _ = parse_structure_file(changed).build()
    assert S3 != S1 and not S3 == S1
    y2 = EnvElement.generator(S3, 1)
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError):
            op(x1, y2)
    with pytest.raises(ValueError):
        standard_coproduct(S1)(y2)
    with pytest.raises(ValueError):
        coproduct(x1) * coproduct(y2)


@pytest.mark.parametrize("call, leg, legs", [
    ("apply_to_leg", 2, 2), ("apply_to_leg", -1, 2), ("apply_to_leg", 0, 3),
    ("counit_collapse", 2, 2), ("counit_collapse", -1, 2), ("counit_collapse", 0, 3),
    ("antipode_convolution", 2, 2), ("antipode_convolution", 0, 3),
    ("antipode_convolution", 1, 3),
])
def test_a_bad_leg_is_refused_in_one_line(aff2, call, leg, legs):
    dmap = standard_coproduct(aff2)
    t = coproduct(EnvElement.generator(aff2, 0) * EnvElement.generator(aff2, 1))
    if legs == 3:
        t = dmap.apply_to_leg(t, 0)
    fn = {"apply_to_leg": dmap.apply_to_leg, "counit_collapse": counit_collapse,
          "antipode_convolution": antipode_convolution}[call]
    with pytest.raises(ValueError) as err:
        fn(t, leg)
    assert "\n" not in str(err.value)


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

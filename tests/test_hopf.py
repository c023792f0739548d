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
)
from lrhopf import hopf
from lrhopf.algebra import counit_morphism, spread_copies, tensor_embed
from lrhopf.dsl import parse_env_element, parse_structure_file
from lrhopf.enveloping import _packing, _wrap
from lrhopf.hopf import (_agrees, _unit_words, antipode_convolution, cobracket_images,
                         counit_collapse, standard_coproduct, tensor_power_structure)
from lrhopf.sampling import make_rng, random_env_element, random_poly
from lrhopf.tensor import _closed_terms, _form_sums, _right_form, _tensor_terms

from conftest import FIXTURES, FRACTIONAL, read_fixture, run_python
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


@pytest.mark.parametrize("name", ["aff2.lra", "torus.lra", "gl2.lra"])
def test_counit_matches_the_counit_morphism_on_the_empty_word(name):
    S = parse_structure_file(read_fixture(name)).build()[0]
    A = S.algebra
    eps = counit_morphism(A)
    rng = make_rng(17)
    for _ in range(40):
        u = random_env_element(rng, S, max_word=2, max_degree=3)
        u = u + EnvElement.from_poly(S, random_poly(rng, A, max_degree=3, terms=3))
        empty = u.terms.get((), A.zero())
        assert u.counit() == eps(empty).as_constant()
        assert type(u.counit()) is Fraction


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


@pytest.mark.parametrize("apply", [coproduct, counit, lambda t: standard_coproduct(t.structure)(t),
                                   lambda t: tensor_pair(t, t),
                                   lambda t: standard_coproduct(t.structure).by_rewriting(t)],
                         ids=["coproduct", "counit", "coproduct-map", "tensor-pair", "by-rewriting"])
def test_coproduct_and_counit_refuse_a_tensor_square_element(aff2, apply):
    t = coproduct(EnvElement.generator(aff2, 0))
    with pytest.raises(TypeError, match="expected an EnvElement, got TensorEnvElement"):
        apply(t)


def test_tensor_pair_refuses_a_scalar_factor(aff2):
    x1 = EnvElement.generator(aff2, 0)
    with pytest.raises(TypeError, match="expected an EnvElement, got int"):
        tensor_pair(x1, 3)
    with pytest.raises(TypeError, match="expected an EnvElement, got int"):
        tensor_pair(3, x1)


def test_by_rewriting_refuses_a_scalar(aff2):
    with pytest.raises(TypeError, match="expected an EnvElement, got int"):
        standard_coproduct(aff2).by_rewriting(3)


def test_antipode_refuses_a_tensor_square_element():
    # its memo walk never ended on one, so it runs in a child process that a
    # timeout ends
    code = (
        "import sys\n"
        "from lrhopf import EnvElement, antipode, coproduct, parse_structure_file\n"
        "with open(sys.argv[1], encoding='utf-8') as fh:\n"
        "    S = parse_structure_file(fh.read()).build()[0]\n"
        "antipode(coproduct(EnvElement.generator(S, 0)))\n"
    )
    done = run_python("-c", code, os.path.join(FIXTURES, "aff2.lra"), timeout=60)
    assert done.returncode == 1
    assert done.stderr.rstrip().endswith(
        "TypeError: expected an EnvElement, got TensorEnvElement")


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
    if name == "fractional":
        return parse_structure_file(FRACTIONAL).build()[0]
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
    return CoproductLikeMap(S, images)


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
    # each map's word-image memo is shared by both legs and by_rewriting, so
    # a memo shared between maps would hand one the other's products
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


def test_word_images_are_multiplied_out_once_per_map(monkeypatch):
    # both legs of the coproduct of every gl2 unit word up to length 3, then
    # by_rewriting on those words: one legwise product per letter of each
    # word the map meets, as both legs and by_rewriting read one memo
    S = parse_structure_file(read_fixture("gl2.lra")).build()[0]
    dmap = standard_coproduct(S)
    words = _unit_words(S, 3)
    deltas = [dmap(u) for u in words]
    products = []
    mul = TensorEnvElement.__mul__
    monkeypatch.setattr(TensorEnvElement, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    for u, t in zip(words, deltas):
        assert dmap.apply_to_leg(t, 0) == dmap.apply_to_leg(t, 1), f"at {u}"
        assert dmap.by_rewriting(u) == t, f"at {u}"
    assert 0 < len(products) <= sum(len(w) for u in words for w in u.terms) == 84


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
    with pytest.raises(ValueError, match="^argument in the wrong enveloping algebra$"):
        standard_coproduct(S1).apply_to_leg(coproduct(y2), 0)
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


def _tensor_sums(t, s):
    """The unwrapped sums of t * s, from both tensors' terms, as
    TensorEnvElement.__mul__ builds its operands."""
    return _form_sums(_tensor_terms(t), _right_form(t.structure, t.legs, *_tensor_terms(s)),
                      t.legs)


def _near_misses(u):
    """Elements one step away from u: one coefficient off by 1/2, one term
    dropped, one extra term, and u over another denominator."""
    S, A = u.structure, u.structure.algebra
    longest = max(map(len, u.terms), default=0)
    extra = EnvElement(S, {(0,) * (longest + 1): A.const(Fraction(2, 3))})
    out = [u * Fraction(1, 7), u + extra]
    if u.terms:
        word, a = next(iter(u.terms.items()))
        off = dict(u.terms)
        off[word] = a + A.monomial(next(iter(a.terms)), Fraction(1, 2))
        out.append(EnvElement(S, off))
        out.append(EnvElement(S, {w: c for w, c in u.terms.items() if w != word}))
    return out


@pytest.mark.parametrize("name", _FIXTURE_FILES + ["a-valued", "fractional"])
def test_unwrapped_comparison_agrees_with_equality(name):
    # the multiplicative laws compare the closed form of coproduct(uv), and
    # of its near misses, with the unwrapped sums of coproduct(u)
    # coproduct(v); that must decide what == decides
    S = _legwise_structure(name)
    dmap = standard_coproduct(S)
    rng = make_rng(61)
    pairs = [(random_env_element(rng, S, 2, 2), random_env_element(rng, S, 2, 2))
             for _ in range(12)]
    seen = set()
    for u, v in pairs:
        t, s = dmap(u), dmap(v)
        product = t * s
        for w in [u * v] + _near_misses(u * v):
            want = dmap(w) == product
            seen.add(want)
            assert _agrees(dmap._closed(w), *_tensor_sums(t, s)) is want, f"{name}: {u}, {v}, {w}"
    # a-valued fails multiplicativity, so its true targets differ as well
    assert False in seen and (True in seen or name == "a-valued")


def _fractional_pairs(S, seed, count):
    """Random pairs whose coefficients have denominators 2, 3 and 5."""
    rng = make_rng(seed)
    rand = lambda: random_env_element(rng, S, max_word=2, max_degree=2)
    return [(rand() * Fraction(1, 2) + rand() * Fraction(-2, 3), rand() * Fraction(3, 5))
            for _ in range(count)]


@pytest.mark.parametrize("name", _FIXTURE_FILES + ["gl3"])
def test_closed_form_operands_give_the_tensor_product(name):
    # the random law builds both operand forms from the closed form, never
    # from a tensor; their product must wrap to coproduct(u) coproduct(v)
    S = _gl3() if name == "gl3" else _load(name)
    dmap = standard_coproduct(S)
    A2 = S.algebra.tensor_power(2)
    denominators = set()
    for u, v in _fractional_pairs(S, 47, 4 if name == "gl3" else 10):
        left = _closed_terms(dmap._closed(u))
        right = _right_form(S, 2, *_closed_terms(dmap._closed(v)))
        denominators |= {left[0], right[0]}
        got = TensorEnvElement(S, _wrap(A2, *_form_sums(left, right, 2)))
        assert got.terms == (dmap(u) * dmap(v)).terms, f"{name}: {u}, {v}"
    assert denominators - {1}


@pytest.mark.parametrize("name, witness", [
    ("sl2.lra", "at u=e, v=e"),
    ("gl2.lra", "at u=E11, v=E11"),
])
def test_a_wrong_split_multiplicity_fails_the_multiplicative_law(monkeypatch, name, witness):
    # the module docstring's claim: the legwise product rewrites each leg
    # itself, so a closed form that forgets the binomials is caught
    splits = CoproductLikeMap._word_splits
    monkeypatch.setattr(CoproductLikeMap, "_word_splits",
                        lambda self, w: tuple((key, 1) for key, _ in splits(self, w)))
    report = check_bialgebra(_load(name), seed=0, samples=8, max_word=2)
    failing = {c.name: c.witness for c in report.checks if c.verdict == "fail"}
    assert failing["coproduct-multiplicative-words"] == witness
    assert "coproduct-coassociative" in failing


@pytest.mark.parametrize("name, witness", [
    ("euler.lra", "at u=2*y*x^2, v=-3*y*x^2"),
    ("aff2.lra", "at u=2*y*x2^2, v=-3*y*x1^2"),
])
def test_a_corrupt_closed_form_image_fails_the_multiplicative_law(monkeypatch, name, witness):
    # the closed form is read on both sides of the multiplicative laws, but
    # uv comes from the rewriting product and coproduct(u) coproduct(v)
    # from the leg products: doubling the coefficient image of every
    # degree-2 monomial (with primitive generators, exactly the monomials
    # of degree 2 in the tensor square) is caught
    closed = CoproductLikeMap._closed

    def corrupt(self, u):
        d, terms = closed(self, u)
        # the closed form's monomials are keyed by packed exponents
        unpack = _packing(self.S.algebra.tensor_power(2)).unpack
        return d, [(splits, {e: 2 * x if sum(unpack[e]) == 2 else x
                             for e, x in monomials.items()})
                   for splits, monomials in terms]

    monkeypatch.setattr(CoproductLikeMap, "_closed", corrupt)
    report = check_bialgebra(_load(name), seed=0, samples=8, max_word=2)
    failing = {c.name: c.witness for c in report.checks if c.verdict == "fail"}
    assert failing["coproduct-multiplicative-random"] == witness


def _gl3():
    return _load(os.path.join(os.pardir, "fixtures_large", "gl3.lra"))


def test_the_legwise_sums_match_the_flat_oracle_on_gl3_unit_word_pairs():
    # the kernel itself, wrapped as TensorEnvElement.__mul__ wraps it, on
    # the rank-9 pairs of the multiplicative words law
    S = _gl3()
    dmap = standard_coproduct(S)
    A2 = S.algebra.tensor_power(2)
    words = _unit_words(S, 2)
    deltas = [dmap(w) for w in words]
    for t in deltas[::3]:
        for s in deltas[1::4]:
            got = TensorEnvElement(S, _wrap(A2, *_tensor_sums(t, s)))
            assert got.terms == flat_product(t, s).terms, f"{t} times {s}"


def test_the_legwise_sums_match_the_flat_oracle_on_gl3_three_leg_fractions():
    # three legs, with coefficients over 2, 3 and 5 and nonzero exponents
    S = _gl3()
    dmap = standard_coproduct(S)
    A3 = S.algebra.tensor_power(3)
    rng = make_rng(83)
    operands = []
    for q in (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)):
        u = random_env_element(rng, S, max_word=2, max_degree=1, terms=2) * q
        operands.append(dmap.apply_to_leg(dmap(u), 0))
        operands.append(dmap.apply_to_leg(dmap(u), 1))
    assert {2, 3, 5} <= {x.denominator for t in operands for c in t.terms.values()
                         for x in map(Fraction, c.terms.values())}
    assert any(any(e) for t in operands for c in t.terms.values() for e in c.terms)
    for t, s in zip(operands, operands[1:] + operands[:1]):
        got = TensorEnvElement(S, _wrap(A3, *_tensor_sums(t, s)), 3)
        assert got.terms == flat_product(t, s).terms, f"{t} times {s}"
        assert got.terms == (t * s).terms


def test_four_leg_products_match_the_flat_oracle(aff2):
    # the batteries multiply two and three legs; the kernel's one code path
    # serves any number, every middle leg extending the partial terms
    S = aff2
    A4 = S.algebra.tensor_power(4)
    c = A4.gen(1) * Fraction(1, 2) + 3
    t = TensorEnvElement(S, {((1,), (), (0, 1), (1,)): c, ((0,), (1,), (), ()): 2}, 4)
    s = TensorEnvElement(S, {((0,), (0,), (1,), ()): A4.gen(2) - Fraction(2, 3),
                             ((), (1,), (0,), (0, 0)): 1}, 4)
    for a, b in ((t, s), (s, t), (t, t)):
        got = a * b
        assert got.terms == flat_product(a, b).terms, f"{a} times {b}"
        assert all(len(key) == 4 for key in got.terms)


def test_each_coproduct_is_prepared_once_per_words_law(monkeypatch):
    # the words law multiplies each unit word's coproduct 2 |words| times,
    # |words| times on each side, and builds each of its two operands once:
    # the left one from the closed form, the right one from the left
    S = _load("gl2.lra")
    log = []
    originals = {name: getattr(hopf, name)
                for name in ("_closed_terms", "_right_form", "_form_sums")}

    def spy(name):
        def call(*args):
            out = originals[name](*args)
            log.append((name, args, out))
            return out
        return call

    for name in originals:
        monkeypatch.setattr(hopf, name, spy(name))
    max_word = 2
    assert check_bialgebra(S, seed=0, samples=8, max_word=max_word).ok
    words = _unit_words(S, max_word)
    # the words law is the first law, and nothing before it builds an
    # operand, so its pairs are the first |words|^2 calls of the kernel
    kernel = [k for k, (name, _, _) in enumerate(log) if name == "_form_sums"]
    law = log[:kernel[len(words) ** 2 - 1] + 1]
    built = {name: [out for n, _, out in law if n == name]
             for name in ("_closed_terms", "_right_form")}
    assert all(len(forms) == len(words) for forms in built.values())
    pairs = [args for name, args, _ in law if name == "_form_sums"]
    assert {id(left) for left, _, _ in pairs} == {id(x) for x in built["_closed_terms"]}
    assert {id(right) for _, right, _ in pairs} == {id(x) for x in built["_right_form"]}
    # pair (i, j) reads word i's closed form on the left and word j's on the right
    dmap = standard_coproduct(S)
    closed = [originals["_closed_terms"](dmap._closed(w)) for w in words]
    for k, (left, right, legs) in enumerate(pairs):
        i, j = divmod(k, len(words))
        assert legs == 2 and left == closed[i], f"pair {k}"
        assert right == originals["_right_form"](S, 2, *closed[j]), f"pair {k}"


@pytest.mark.parametrize("name", ["sl2.lra", "gl2.lra"])
def test_a_corrupt_leg_memo_entry_fails_the_multiplicative_words_law(name):
    # the kernel is the independent side of the law: one leg product with a
    # doubled rational makes coproduct(u) coproduct(v) wrong, and the
    # closed-form coproduct(uv), which never reads the leg memo, catches it
    S = _load(name)
    assert check_bialgebra(S, seed=0, samples=8, max_word=2).ok
    zero = (0,) * S.algebra.ngens
    rows = S._tensor_cache["legs"]
    (e, v), w = min((key, w) for key, row in rows.items() for w in row
                    if key[0] == zero and key[1] and w and w[-1] > key[1][0])
    (z, g, x), *rest = rows[(e, v)][w]
    rows[(e, v)][w] = ((z, g, 2 * x), *rest)
    report = check_bialgebra(S, seed=0, samples=8, max_word=2)
    failing = {c.name for c in report.checks if c.verdict == "fail"}
    assert "coproduct-multiplicative-words" in failing


@pytest.mark.parametrize("name", ["aff2.lra", "torus.lra", "gl2.lra"])
def test_the_antipode_convolution_never_calls_the_antipode(monkeypatch, name):
    # each monomial's antipode is read from the memo and multiplied by the
    # other leg in the kernel, with no element built per monomial
    S = _load(name)
    calls = []
    spy = lambda u: calls.append(u) or antipode(u)
    monkeypatch.setattr(hopf, "antipode", spy)
    rng = make_rng(89)
    for u in [random_env_element(rng, S, max_word=3, max_degree=2, terms=3) for _ in range(6)]:
        t = coproduct(u)
        target = EnvElement.from_poly(S, S.algebra.const(u.counit()))
        for leg in (0, 1):
            assert antipode_convolution(t, leg) == target
    assert not calls


@pytest.mark.parametrize("name", ["sl2.lra", "aff2.lra", "gl2.lra"])
def test_a_corrupt_antipode_memo_entry_fails_the_convolution_law(name):
    # the convolution reads S(y^e w) from the memo; one doubled rational in
    # the entry of a one-letter word is caught at that unit word
    S = _load(name)
    assert check_antipode(S, seed=0, samples=8, max_word=2).ok
    memo = S._tensor_cache["antipode"]
    key = min(key for key in memo if len(key[0]) == 1 and not any(key[1]))
    (v, g, x), *rest = memo[key]
    memo[key] = ((v, g, 2 * x), *rest)
    report = check_antipode(S, seed=0, samples=8, max_word=2)
    failing = {c.name for c in report.checks if c.verdict == "fail"}
    assert "antipode-convolution" in failing


@pytest.mark.parametrize("name, expr", [
    ("sl2.lra", "h^3*e^2"),
    ("gl2.lra", "y1^2*E11^2*E12^2*E22"),
    ("aff2.lra", "y^2*x1^2"),
])
def test_closed_form_shares_one_scaling_per_multiplicity(name, expr):
    # repeated letters give equal multiplicities across splits, and the
    # coefficient's coproduct is scaled once for each
    S = _load(name)
    dmap = standard_coproduct(S)
    u = parse_env_element(expr, S)
    assert dmap(u).terms == dmap.by_rewriting(u).terms
    for w, a in u.terms.items():
        t, image = dmap(EnvElement(S, {w: a})), dmap.delta_A(a)
        shared = {}
        for key, mult in dmap._word_splits(w):
            assert t.terms[key] == image * mult
            assert t.terms[key] is shared.setdefault(mult, t.terms[key])
        splits = [mult for _, mult in dmap._word_splits(w)]
        # some multiplicity above 1, and some shared by several splits
        assert max(splits) > 1 and len(set(splits)) < len(splits)


def test_the_bialgebra_battery_computes_each_coproduct_once(monkeypatch, aff2):
    # one coproduct per unit word and per coassociative/counital random,
    # shared by the laws that read them; the multiplicative laws read the
    # pair products and the random pairs' operands from the closed form
    # unwrapped, without a call
    calls = []
    call = CoproductLikeMap.__call__
    monkeypatch.setattr(CoproductLikeMap, "__call__",
                        lambda self, u: calls.append(u) or call(self, u))
    samples, max_word = 16, 2
    assert check_bialgebra(aff2, seed=0, samples=samples, max_word=max_word).ok
    words = len(_unit_words(aff2, max_word))
    randoms = samples // 8
    assert len(calls) == words + randoms

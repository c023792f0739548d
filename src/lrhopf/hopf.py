"""Comultiplication, counit and antipode on the enveloping algebra, their
batteries and the Hopf battery of A, and the probe that perturbs the
coproduct by a cobracket.

The structure maps:
  * a coefficient comultiplies through the generator markers of A;
  * a basis letter e goes to e' + e'' (one letter in each leg);
  * the counit keeps the empty-word coefficient and applies the counit
    of A;
  * the antipode reverses words, signs them by length, and applies the
    antipode of A to coefficients.

The standard coproduct is computed in closed form.  The two legs
commute and the letter images carry no coefficients, so for a normal word
w the product of the images e' + e'' needs no rewriting:

    coproduct(a w) = coproduct_A(a) * sum over (w1, w2) of mult * w1 (x) w2

over the splits of the multiset w into a sub-multiset w1 and its
complement w2, where mult is the product over letters l of
binomial(count of l in w, count of l in w1) (`CoproductLikeMap._closed`,
see `tensor`).

The antipode of c y^e w, for a normal word w = e_{w_1} .. e_{w_L}, is

    S(c y^e w) = c S(w) S_A(y^e),   S(w) = (-1)^L e_{w_L} .. e_{w_1},

a product in the enveloping algebra, memoized per structure
(`_antipode_memo`) and filled along prefixes by S(w l) = -e_l S(w).

These identities only regroup a product of letters and a coefficient and
move a rational scalar out of it, so they hold by linearity and
associativity alone: the antipode's Hopf properties
(anti-multiplicativity, the convolution laws) are not used to compute
it, and the battery still measures them.  The multiplicative laws read the closed form on both sides, which stay
independent: coproduct(uv) at the rewritten product uv, and
coproduct(u) coproduct(v) from the legwise leg products (`_agrees`).
Multiplying the letter images out (`CoproductLikeMap.by_rewriting`)
gives the same element as the closed form; it is the independent oracle
the leading-split check and the tests compare against.  The legwise
product rewrites each leg with the structure's own rules, so a wrong
split multiplicity in the closed form still fails
coproduct-multiplicative-words and coproduct-coassociative, and a wrong
coefficient image fails coproduct-multiplicative-random.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from . import sampling
from .algebra import (AlgebraMorphism, CommutativeAlgebra, _cleared, _common_denominator,
                      antipode_morphism, comultiplication, counit_morphism,
                      multiplication_morphism, on_leg, tensor_embed)
from .enveloping import EnvElement, _frozen, _packing, _word_poly_word, _wrap
from .lie_rinehart import LieRinehartAlgebra, _add_term, check_bi_lr
from .report import Report, shared
from .tensor import (CoproductLikeMap, TensorEnvElement, _check_leg, _closed_terms,
                     _enveloping, _form_sums, _right_form)


def tensor_power_structure(S: LieRinehartAlgebra, k: int) -> LieRinehartAlgebra:
    """k commuting copies of the structure over the k-fold tensor power of
    its coefficients.  Copy c of a basis element acts on tensor leg c only;
    brackets across copies vanish.  Cached on the structure.  The library
    multiplies tensors legwise instead; this flat realization serves the
    tests' oracle."""
    cached = S._tensor_cache.get(k)
    if cached is not None:
        return cached
    m = S.rank
    base = S.algebra
    alg = base.tensor_power(k)
    names = [name + "'" * (c + 1) for c in range(k) for name in S.basis_names]
    table = {}
    for c in range(k):
        off = c * m
        for (i, j), coeffs in S.bracket_table.items():
            row = [alg.zero()] * (k * m)
            for t, coeff in enumerate(coeffs):
                if not coeff.is_zero():
                    row[off + t] = tensor_embed(coeff, c, alg)
            table[(off + i, off + j)] = tuple(row)
    anchor = [
        S.anchor[i].tensor_lift(c, alg) for c in range(k) for i in range(m)
    ]
    # valid whenever S is: copies bracket to zero and act on disjoint slots
    T = LieRinehartAlgebra(alg, names, table, anchor, validate=False)
    S._tensor_cache[k] = T
    return T


def _agrees(closed: tuple, sums: dict, d: int) -> bool:
    """Whether the closed form (d_c, terms) of `CoproductLikeMap._closed`
    equals the grouped sum `sums` over d of `_form_sums`, neither built:
    per word pair, its inner sum is popped, each monomial's x mult / d_c
    is cross-multiplied with the value popped from it, and what is left
    must have cancelled to 0.  Empties `sums` of those word pairs."""
    d_c, terms = closed
    pop = sums.pop
    for splits, monomials in terms:
        for key, mult in splits:
            # a closed-form term has a nonzero monomial on every split
            got = pop(key, None)
            if got is None:
                return False
            mult *= d
            if mult == d_c and got == monomials:  # equal over equal denominators
                continue
            for e, x in monomials.items():
                if got.pop(e, 0) * d_c != x * mult:
                    return False
            if got and any(got.values()):
                return False
    return not any(any(got.values()) for got in sums.values())


def standard_coproduct(S: LieRinehartAlgebra) -> CoproductLikeMap:
    """Basis letters go to the sum of their two copies.  Cached."""
    cached = S._tensor_cache.get("std")
    if cached is not None:
        return cached
    images = [TensorEnvElement(S, {((i,), ()): 1, ((), (i,)): 1}) for i in range(S.rank)]
    dmap = CoproductLikeMap(S, images)
    S._tensor_cache["std"] = dmap
    return dmap


def coproduct(u: EnvElement) -> TensorEnvElement:
    return standard_coproduct(_enveloping(u).structure)(u)


def counit(u: EnvElement) -> Fraction:
    return _enveloping(u).counit()


def _antipode_memo(S: LieRinehartAlgebra) -> dict:
    """The antipode memo of S, `S._tensor_cache["antipode"]`, (w, e) ->
    S(y^e w) as (word, packed exponents, rational) triples, made on first
    use with S(1) = 1."""
    memo = S._tensor_cache.get("antipode")
    if memo is None:
        antipode_morphism(S.algebra)  # refuses an A with an unmarked generator
        memo = S._tensor_cache["antipode"] = {((), (0,) * S.algebra.ngens): (((), 0, 1),)}
    return memo


def _antipode_entry(S: LieRinehartAlgebra, memo: dict, w, e) -> tuple:
    """The entry S(y^e w) = S(w) S_A(y^e) that the memo misses, summed by
    `_word_poly_word` and frozen as the rewriting memos are (`_frozen`, see
    `enveloping`): one product when first missed.  A missing
    S(w) = S(y^0 w) extends the longest prefix known a letter l at a time
    by S(w l) = -e_l S(w)."""
    pack = _packing(S.algebra)
    if any(e):
        zero, acc = (0,) * len(e), {}
        image = antipode_morphism(S.algebra)._monomial_image(e).terms.items()
        for u, g, x in memo.get((w, zero)) or _antipode_entry(S, memo, w, zero):
            for f, c in image:
                _word_poly_word(acc, S, u, f, pack[f], (), ((g, x),), c)
        hit = memo[(w, e)] = _frozen(pack, acc)
        return hit
    k = len(w) - 1
    while (w[:k], e) not in memo:
        k -= 1
    hit = memo[(w[:k], e)]
    for k in range(k, len(w)):
        acc = {}
        for u, g, x in hit:
            _word_poly_word(acc, S, (w[k],), pack.unpack[g], g, u, c=-x)
        hit = memo[(w[:k + 1], e)] = _frozen(pack, acc)
    return hit


def antipode(u: EnvElement) -> EnvElement:
    """The sum of c S(y^e w) over the monomials c y^e of each term of u,
    read from the memo, in one sum grouped by word wrapped once."""
    S = _enveloping(u).structure
    memo = _antipode_memo(S)
    d = _common_denominator(u.terms.values())
    sums: dict = {}  # word -> packed exponents -> rational
    for w, a in u.terms.items():
        for e, c in _cleared(a.terms, d).items():
            for v, g, x in memo.get((w, e)) or _antipode_entry(S, memo, w, e):
                got = sums.setdefault(v, {})
                x *= c
                got[g] = got[g] + x if g in got else x
    return EnvElement._trusted(S, _wrap(S.algebra, sums, d))


# -- collapsing maps used to state the axioms ---------------------------------


def counit_collapse(t: TensorEnvElement, leg: int) -> EnvElement:
    """Apply the counit to one leg of a tensor-square element."""
    _check_leg(t, leg)
    counit_on_leg = on_leg(counit_morphism(t.structure.algebra), leg)
    out: dict = {}
    for words, c in t.terms.items():
        if not words[leg]:  # the counit kills every nonempty word
            _add_term(out, words[1 - leg], counit_on_leg(c))
    return EnvElement(t.structure, out)


def antipode_convolution(t: TensorEnvElement, leg: int) -> EnvElement:
    """Multiply the two legs together after applying the antipode to one:
    the convolution products appearing in the antipode axioms.  Per
    monomial q y^e1 (x) y^e2 of a term, each term of the memo entry on the
    antipode's leg multiplies the other leg by `_word_poly_word`, q riding
    on the other leg, into one sum grouped by word wrapped once."""
    _check_leg(t, leg)
    S = t.structure
    A = S.algebra
    n = A.ngens
    memo, pack = _antipode_memo(S), _packing(A)
    d = _common_denominator(t.terms.values())
    sums: dict = {}  # word -> packed exponents -> rational
    for (w1, w2), c in t.terms.items():
        for exps, q in _cleared(c.terms, d).items():
            e1, e2 = exps[:n], exps[n:]
            if leg == 0:  # S(y^e1 w1) (q y^e2 w2)
                p = pack[e2]
                for u, g, x in memo.get((w1, e1)) or _antipode_entry(S, memo, w1, e1):
                    _word_poly_word(sums, S, u, e2, p, w2, ((g, x),), q)
            else:  # (q y^e1 w1) S(y^e2 w2)
                left = ((pack[e1], q),)
                for u, g, x in memo.get((w2, e2)) or _antipode_entry(S, memo, w2, e2):
                    _word_poly_word(sums, S, w1, pack.unpack[g], g, u, left, x)
    return EnvElement._trusted(S, _wrap(A, sums, d))


# -- batteries -----------------------------------------------------------------


def _unit_words(S, max_word: int):
    """All normal words up to the length bound, as elements."""
    out = []
    for p in range(max_word + 1):
        for w in itertools.combinations_with_replacement(range(S.rank), p):
            out.append(EnvElement(S, {w: S.algebra.one()}))
    return out


def _sample_elements(S, rng, count, max_word, max_degree):
    return [
        sampling.random_env_element(rng, S, max_word, max_degree)
        for _ in range(count)
    ]


def _random_pairs(S, rng, count, max_word, max_degree):
    """Random element pairs, drawn lazily so a failing law stops the draws."""
    for _ in range(count):
        yield (sampling.random_env_element(rng, S, max_word, max_degree),
               sampling.random_env_element(rng, S, max_word, max_degree))


def check_hopf_axioms(
    alg: CommutativeAlgebra,
    *,
    max_degree: int = 3,
    seed: int = 0,
    samples: int = 40,
    antipode: AlgebraMorphism | None = None,
) -> Report:
    """Verify the Hopf algebra axioms on A exhaustively on small monomials
    and on seeded random elements.

    An explicit antipode may be passed in to test a candidate map; by
    default the one derived from the generator markers is used.

    Delta(p) and eta(epsilon(p)) of each element are computed once, on
    first use, and shared: the coassociativity, counit and antipode laws
    read Delta(p), the two antipode laws eta(epsilon(p)).  The battery
    stays independent of what it certifies: each law still reads the value
    that the map under test computes, so a wrong image fails the same laws
    as when each law recomputed it.
    """
    delta = comultiplication(alg)
    eps = counit_morphism(alg)
    anti = antipode if antipode is not None else antipode_morphism(alg)
    if anti.source != alg or anti.target != alg:
        raise ValueError("antipode must be a self-map of the algebra")

    dl, dr, el, er, sl, sr = (on_leg(f, leg) for f in (delta, eps, anti) for leg in (0, 1))
    mult = multiplication_morphism(alg)

    elements = list(alg.monomials_up_to(max_degree))
    rng = sampling.make_rng(seed)
    for _ in range(samples):
        elements.append(sampling.random_poly(rng, alg, max_degree=max_degree))

    delta_of = shared(delta, elements)
    unit_of = shared(lambda p: alg.const(eps(p).as_constant()), elements)

    def equal(f, g):
        def check(k):
            lhs, rhs = f(k), g(k)
            return None if lhs == rhs else f"at {elements[k]}: {lhs} != {rhs}"
        return check

    cases = range(len(elements))
    report = Report()
    report.law("coassociativity", cases,
               equal(lambda k: dl(delta_of(k)), lambda k: dr(delta_of(k))))
    report.law("counit-left", cases, equal(lambda k: el(delta_of(k)), elements.__getitem__))
    report.law("counit-right", cases, equal(lambda k: er(delta_of(k)), elements.__getitem__))
    report.law("antipode-left", cases, equal(lambda k: mult(sl(delta_of(k))), unit_of))
    report.law("antipode-right", cases, equal(lambda k: mult(sr(delta_of(k))), unit_of))
    report.law("antipode-involutive", cases,
               equal(lambda k: anti(anti(elements[k])), elements.__getitem__))
    return report


def check_bialgebra(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 200,
                    max_word: int = 3, max_degree: int = 2) -> Report:
    """Comultiplication and counit on the enveloping algebra: the coproduct
    is an algebra map (exhaustively on short words, then on random pairs),
    coassociative, counital, and its leading terms split words like the
    symmetric coalgebra."""
    report = Report()
    dmap = standard_coproduct(S)
    rng = sampling.make_rng(seed)
    words = _unit_words(S, max_word)
    randoms = _sample_elements(S, rng, max(1, samples // 8), max_word, max_degree)
    # the unit words, then the random elements: their coproducts are
    # computed once, on first use, and shared by the laws below
    cases = words + randoms
    delta = shared(dmap, cases)

    # the closed form of the rewritten uv against coproduct(u) coproduct(v)
    # multiplied out legwise from the operands of u and v, neither wrapped
    # (see the module docstring)
    def multiplicative(u, v, left, right):
        if not _agrees(dmap._closed(u * v), *_form_sums(left, right, 2)):
            return f"at u={u}, v={v}"

    def operand(u):
        return _closed_terms(dmap._closed(u))

    # each unit word's two operands, built once and kept
    left = shared(operand, words)
    right = shared(lambda i: _right_form(S, 2, *left(i)), range(len(words)))
    report.law("coproduct-multiplicative-words",
               itertools.product(range(len(words)), repeat=2),
               lambda ij: multiplicative(words[ij[0]], words[ij[1]], left(ij[0]), right(ij[1])))
    report.law("coproduct-multiplicative-random",
               _random_pairs(S, rng, samples, max_word, max_degree),
               lambda uv: multiplicative(*uv, operand(uv[0]), _right_form(S, 2, *operand(uv[1]))))

    def coassociative(i):
        t = delta(i)
        if dmap.apply_to_leg(t, 0) != dmap.apply_to_leg(t, 1):
            return f"at u={cases[i]}"

    report.law("coproduct-coassociative", range(len(cases)), coassociative)

    def counital(i):
        u, t = cases[i], delta(i)
        left = counit_collapse(t, 0)
        right = counit_collapse(t, 1)
        if left != u:
            return f"left counit law at u={u}: got {left}"
        if right != u:
            return f"right counit law at u={u}: got {right}"

    report.law("coproduct-counital", range(len(cases)), counital)

    def counit_multiplicative(pair):
        u, v = pair
        if (u * v).counit() != u.counit() * v.counit():
            return f"at u={u}, v={v}"

    report.law("counit-multiplicative",
               _random_pairs(S, rng, samples, max_word, max_degree), counit_multiplicative)

    # leading terms of the coproduct of a pure word: all multiset splits
    # with multiplicity a product of binomial coefficients.  The top layer
    # is read from the rewriting path, not from the closed form in dmap().
    def leading_split(u):
        (w, _), = u.terms.items() if u.terms else (((), None),)
        p = len(w)
        counts = Counter(w)
        letters = sorted(counts)
        expected: dict = {}
        choices = [range(counts[l] + 1) for l in letters]
        for pick in itertools.product(*choices):
            left = []
            right = []
            mult = 1
            for l, k in zip(letters, pick):
                left.extend([l] * k)
                right.extend([l] * (counts[l] - k))
                mult *= math.comb(counts[l], k)
            key = (tuple(left), tuple(right))
            expected[key] = expected.get(key, 0) + mult
        top = {
            key: c
            for key, c in dmap.by_rewriting(u).terms.items()
            if len(key[0]) + len(key[1]) == p
        }
        want = {
            key: S.algebra.tensor_power(2).const(mult)
            for key, mult in expected.items()
        }
        if top != want:
            return f"leading split of word {w} is off"

    report.law("coproduct-leading-split", words, leading_split)
    return report


def check_antipode(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 100,
                   max_word: int = 3, max_degree: int = 2) -> Report:
    """Both antipode convolution identities against the counit, and the
    anti-homomorphism property."""
    report = Report()
    dmap = standard_coproduct(S)
    rng = sampling.make_rng(seed)
    words = _unit_words(S, max_word)
    randoms = _sample_elements(S, rng, max(1, samples // 8), max_word, max_degree)

    def convolution(u):
        t = dmap(u)
        target = EnvElement.from_poly(S, S.algebra.const(u.counit()))
        left = antipode_convolution(t, 0)
        if left != target:
            return f"left antipode law at u={u}: got {left}, want {target}"
        right = antipode_convolution(t, 1)
        if right != target:
            return f"right antipode law at u={u}: got {right}, want {target}"

    report.law("antipode-convolution", words + randoms, convolution)

    def antihomomorphism(pair):
        u, v = pair
        if antipode(u * v) != antipode(v) * antipode(u):
            return f"at u={u}, v={v}"

    report.law("antipode-antihomomorphism",
               _random_pairs(S, rng, samples, max_word, max_degree), antihomomorphism)
    report.law("antipode-preserves-counit", words + randoms,
               lambda u: None if antipode(u).counit() == u.counit() else f"at u={u}")
    return report


def check_hopf_lr(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 200,
                  max_word: int = 3, max_degree: int = 2,
                  coefficient_antipode=None) -> Report:
    """The full battery: Hopf axioms on the coefficients, compatibility of
    the coalgebra with the module action, equivariance of the coefficient
    antipode, and the bialgebra/antipode axioms upstairs.

    A candidate coefficient antipode may be passed in to exercise failure
    reporting; the enveloping-algebra antipode always uses the derived one.
    """
    report = Report()
    report.extend(
        check_hopf_axioms(
            S.algebra,
            max_degree=max_degree + 1,
            seed=seed,
            samples=max(10, samples // 5),
            antipode=coefficient_antipode,
        ),
        prefix="coefficients.",
    )
    report.extend(
        check_bi_lr(S, seed=seed, samples=max(10, samples // 4), max_degree=max_degree),
        prefix="module.",
    )

    anti_A = coefficient_antipode or antipode_morphism(S.algebra)

    def equivariant(case):
        i, g = case
        a = S.algebra.gen(g)
        lhs = anti_A(S.anchor[i](a))
        rhs = S.anchor[i](anti_A(a))
        if lhs != rhs:
            return (
                f"{S.basis_names[i]} on {S.algebra.gens[g].name}: "
                f"antipode of the value is {lhs}, action on the antipode is {rhs}"
            )

    report.law("antipode-equivariance",
               itertools.product(range(S.rank), range(S.algebra.ngens)), equivariant)

    report.extend(
        check_bialgebra(
            S, seed=seed, samples=samples, max_word=max_word, max_degree=max_degree
        )
    )
    report.extend(
        check_antipode(
            S,
            seed=seed,
            samples=max(20, samples // 2),
            max_word=max_word,
            max_degree=max_degree,
        )
    )
    return report


# -- the coproduct perturbation probe -------------------------------------------


def cobracket_images(S: LieRinehartAlgebra, dual: LieRinehartAlgebra):
    """Read the cobracket off the dual's bracket table: the coefficient of
    the k-th dual basis element in [d_i, d_j] contributes an antisymmetric
    word pair to the image of the k-th basis letter, with the coefficient
    sent through the comultiplication of A."""
    if dual.rank != S.rank or dual.algebra != S.algebra:
        raise ValueError("dual structure must share the algebra and the rank")
    delta_A = comultiplication(S.algebra)
    out = []
    for k in range(S.rank):
        terms: dict = {}
        for (i, j), coeffs in dual.bracket_table.items():
            c = coeffs[k]
            if c.is_zero():
                continue
            image = delta_A(c)
            _add_term(terms, ((i,), (j,)), image)
            _add_term(terms, ((j,), (i,)), -image)
        out.append(TensorEnvElement(S, terms))
    return out


def conjecture_probe(S: LieRinehartAlgebra, dual: LieRinehartAlgebra, *,
                     seed: int = 0, samples: int = 25, max_word: int = 2) -> Report:
    """Perturb each letter's coproduct image by the cobracket of the dual
    and measure which coalgebra laws survive.  Reports verdicts; a failing
    law is an observation about the fixture, not an error."""
    report = Report()
    deltas = cobracket_images(S, dual)
    images = [e + d for e, d in zip(standard_coproduct(S).images, deltas)]
    dmap = CoproductLikeMap(S, images)
    report.add("perturbation-constructed", True)

    rng = sampling.make_rng(seed)
    words = _unit_words(S, max_word)
    randoms = [
        sampling.random_env_element(rng, S, max_word, 1) for _ in range(samples)
    ]

    def multiplicative(pair):
        u, v = pair
        if dmap(u * v) != dmap(u) * dmap(v):
            return f"at u={u}, v={v}"

    def coassociative(u):
        t = dmap(u)
        if dmap.apply_to_leg(t, 0) != dmap.apply_to_leg(t, 1):
            return f"at u={u}"

    def counital(u):
        t = dmap(u)
        if counit_collapse(t, 0) != u or counit_collapse(t, 1) != u:
            return f"at u={u}"

    # random pairs are drawn only when every pair of unit words passes
    report.law("perturbed-multiplicative",
               itertools.chain(itertools.product(words, words),
                               _random_pairs(S, rng, samples, max_word, 1)),
               multiplicative)
    report.law("perturbed-coassociative", words + randoms, coassociative)
    report.law("perturbed-counital", words + randoms, counital)
    return report

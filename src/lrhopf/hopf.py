"""Comultiplication, counit and antipode on the enveloping algebra.

An element of the k-th tensor power of the enveloping algebra maps k-tuples
of normal words to coefficients in the k-th tensor power of A: the coproduct
lands in k = 2, and applying it again to one leg lands in k = 3.  The
product is computed one leg at a time with the structure's own rewriting:

    (c; w_0, .., w_{k-1})(q y^e_0 .. y^e_{k-1}; v_0, .., v_{k-1})
        = c q (w_0 y^e_0 v_0) (x) .. (x) (w_{k-1} y^e_{k-1} v_{k-1})

for each monomial q y^e_0 .. y^e_{k-1} of the right coefficient, where each
leg w y^e v is a product in the enveloping algebra itself.  The tensor
layer sums exactly as the enveloping product does (see `enveloping`):
the leg products are memoized per structure, for every number of legs,
as (w, e, v) -> the (word, exponents, rational) triples that the
rewriting memos hold, each partial term is built leg by leg as (word
tuple, concatenated exponents, rational), the monomials of c multiply
in as each partial term is summed, and the one flat sum (word tuple,
exponents) -> rational is wrapped once by `_wrap`.  The sums run on integers: each operand's
coefficients are first multiplied by the lcm of their denominators (one
denominator per operand, as FLINT's fmpq_poly keeps an integer
polynomial over one denominator), and `_wrap` divides each summed
coefficient once by both lcms.  The leg memo keeps its own rationals,
so fractional structure constants still work; a Fraction then only
reaches the sums through a leg.  Coefficients live in
`A.tensor_power(k)`, which A builds once and keeps.  The same space is
the enveloping algebra of `tensor_power_structure` (k commuting copies
of the basis, copy c acting on leg c); nothing here uses it: it serves
only the tests' flat oracle of the legwise product and of the one-leg
application.

The structure maps:
  * a coefficient comultiplies through the generator markers of A;
  * a basis letter e goes to e' + e'' (one letter in each leg);
  * the counit keeps the empty-word coefficient and applies the counit
    of A;
  * the antipode reverses words, signs them by length, and applies the
    antipode of A to coefficients.

The antipode of a w, for a normal word w = e_{w_1} .. e_{w_L}, is

    S(a w) = S(w) S_A(a),   S(w) = (-1)^L e_{w_L} .. e_{w_1},

a product in the enveloping algebra.  S(w) is memoized per structure and
per word, and filled along the prefixes of w by

    S(w l) = -e_l S(w),

so each new word costs one product and each term of an argument one
more.  Both identities only regroup the same product of letters and a
coefficient, so they hold by associativity of the enveloping algebra
alone: the antipode's Hopf properties (anti-multiplicativity, the
convolution laws) are not used to compute it, and the battery still
measures them.

The standard coproduct is computed in closed form.  The two legs
commute and the letter images carry no coefficients, so for a normal word
w the product of the images e' + e'' needs no rewriting:

    coproduct(a w) = coproduct_A(a) * sum over (w1, w2) of mult * w1 (x) w2

over the splits of the multiset w into a sub-multiset w1 and its
complement w2, where mult is the product over letters l of
binomial(count of l in w, count of l in w1).  Multiplying the letter
images out with the legwise product (CoproductLikeMap.by_rewriting) gives
the same element; it stays as the engine for any other letter images and
as the independent oracle the leading-split check and the tests compare
against.

Multiplying out (by_rewriting, and apply_to_leg for coassociativity)
memoizes, per map and per leg, the legwise product of the letter images
of each word tuple, and sums coefficient(a) times that product for each
term a (word tuple) of the argument, into the same flat sum.  This
regroups the same product by associativity and moves a coefficient on
the left into the coefficients, nothing else: it never uses the closed
form, so both stay independent of the coproduct they check, and the
battery still measures multiplicativity and coassociativity.  Nor does
the legwise product itself: it rewrites each leg with the structure's
own rules, so a wrong split multiplicity in the closed form still fails
coproduct-multiplicative-words and coproduct-coassociative.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add

from . import sampling
from .algebra import (
    LaurentPoly,
    _cleared,
    _common_denominator,
    antipode_morphism,
    comultiplication,
    counit_morphism,
    on_leg,
    split_exponents,
    spread_copies,
    tensor_embed,
    check_hopf_axioms,
)
from .enveloping import (Combination, EnvElement, _add_term, _frozen, _normal_word,
                         _product_into, _word_poly_word, _wrap, signed_sum)
from .lie_rinehart import LieRinehartAlgebra, check_bi_lr
from .report import Report


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


def _legwise_product(t: TensorEnvElement, s: TensorEnvElement) -> dict:
    """The terms of t * s, one leg at a time (see the module docstring).
    Each partial term is built leg by leg as (word tuple, concatenated
    exponents, rational), and the left coefficient's monomials multiply in
    as it is summed, as in `_product_into`: one flat sum on cleared
    denominators, divided and wrapped once by `_wrap`."""
    S = t.structure
    A = S.algebra
    k = t.legs
    n = A.ngens
    cuts = [slice(l * n, (l + 1) * n) for l in range(k)]
    # (w, e, v) -> the normal form of w y^e v in S, per structure, as the
    # (word, exponents, rational) triples of the rewriting memos
    memo = S._tensor_cache.setdefault("legs", {})

    def leg(w, e, v):
        hit = memo.get((w, e, v))
        if hit is None:
            hit = memo[(w, e, v)] = _frozen(_word_poly_word(S, w, e, v))
        return hit

    d_t = _common_denominator(t.terms.values())
    d_s = _common_denominator(s.terms.values())
    # right terms with each monomial's exponents cut into legs once
    right = [(vs, [(tuple(e[cut] for cut in cuts), q) for e, q in _cleared(b.terms, d_s).items()])
             for vs, b in s.terms.items()]
    sums: dict = {}  # (word tuple, exponents) -> rational
    for ws, a in t.terms.items():
        a = [(f if any(f) else None, x) for f, x in _cleared(a.terms, d_t).items()]
        for vs, monomials in right:
            for es, q in monomials:
                # distinct terms of each leg give distinct partial terms
                partial = [((), (), q)]
                for l in range(k):
                    partial = [(zs + (u,), g + h, x * y) for zs, g, x in partial
                               for u, h, y in leg(ws[l], es[l], vs[l])]
                for zs, g, p in partial:
                    for f, x in a:
                        key, x = (zs, g) if f is None else (zs, tuple(map(add, f, g))), x * p
                        sums[key] = sums[key] + x if key in sums else x
    return _wrap(A.tensor_power(k), sums, d_t * d_s)


class TensorEnvElement(Combination):
    """An element of the tensor power of the enveloping algebra with `legs`
    legs: a Combination whose keys are tuples of `legs` normal words, with
    coefficients in `algebra`, the tensor power of A with `legs` legs.
    Elements with different numbers of legs neither add nor multiply, and
    never compare equal."""

    __slots__ = ("legs",)
    _shape = "legs"

    def __init__(self, structure: LieRinehartAlgebra, terms: dict, legs: int = 2):
        if legs < 2:
            raise ValueError("a tensor power has at least two legs")
        super().__init__(structure, terms, legs)

    def _normal_key(self, words):
        key = tuple(_normal_word(self.structure, w) for w in words)
        if len(key) != self.legs:
            raise ValueError(f"key {key} does not have {self.legs} legs")
        return key

    @property
    def algebra(self):
        """The coefficient algebra: the tensor power of A with `legs` legs."""
        return self.structure.algebra.tensor_power(self.legs)

    @classmethod
    def zero(cls, structure, legs: int = 2) -> "TensorEnvElement":
        return cls._trusted(structure, {}, legs)

    def __mul__(self, other):
        # the class test first, as in EnvElement.__mul__
        if other.__class__ is not TensorEnvElement:
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            if isinstance(other, LaurentPoly):
                other = TensorEnvElement(self.structure, {((),) * self.legs: other}, self.legs)
            elif not isinstance(other, TensorEnvElement):
                return NotImplemented
        self._check(other)
        return TensorEnvElement._trusted(
            self.structure, _legwise_product(self, other), self.legs
        )

    def __str__(self):
        S = self.structure
        pieces = []
        ordered = sorted(
            self.terms.items(),
            key=lambda kv: (sum(map(len, kv[0])), kv[0]),
            reverse=True,
        )
        for words, c in ordered:
            for exps, q in sorted(
                c.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
            ):
                factors = _split_term(S, words, exps, abs(q))
                pieces.append(("-" if q < 0 else "") + " (x) ".join(map(str, factors)))
        return signed_sum(pieces)


def _split_term(S: LieRinehartAlgebra, words, exps, q) -> list:
    """The legs of the term q y^exps (words) as elements of the enveloping
    algebra, with the scalar q on the first leg."""
    n = S.algebra.ngens
    blocks = split_exponents(exps, n) if n else ((),) * len(words)
    return [
        EnvElement(S, {w: S.algebra.monomial(b, q if l == 0 else 1)})
        for l, (w, b) in enumerate(zip(words, blocks))
    ]


def tensor_pair(u1: EnvElement, u2: EnvElement) -> TensorEnvElement:
    """The elementary tensor of two enveloping algebra elements."""
    if u1.structure != u2.structure:
        raise ValueError("tensor factors over different structures")
    S = u1.structure
    alg2 = S.algebra.tensor_power(2)
    return TensorEnvElement(S, {
        (w1, w2): tensor_embed(c1, 0, alg2) * tensor_embed(c2, 1, alg2)
        for w1, c1 in u1.terms.items()
        for w2, c2 in u2.terms.items()
    })


class CoproductLikeMap:
    """A candidate comultiplication on the enveloping algebra determined by
    the coefficient comultiplication and a tensor-square image per basis
    letter.  The standard coproduct sends a letter e to e' + e''; the
    conjecture probe perturbs these images.

    Whether such a map is actually well behaved (multiplicative,
    coassociative, counital) is exactly what the batteries measure.

    When every letter image is the standard e' + e'' (`standard`), the map
    is evaluated in closed form; otherwise by rewriting."""

    def __init__(self, S: LieRinehartAlgebra, letter_images, label: str = "coproduct"):
        self.S = S
        self.label = label
        self.delta_A = comultiplication(S.algebra)
        images = list(letter_images)
        for img in images:
            if not isinstance(img, TensorEnvElement) or img.legs != 2 or img.structure != S:
                raise ValueError("letter image outside the tensor square")
        if len(images) != S.rank:
            raise ValueError("need one image per basis letter")
        self.images = images
        self._lifted = {}
        one = S.algebra.tensor_power(2).one()
        self.standard = all(
            img.terms == {((i,), ()): one, ((), (i,)): one}
            for i, img in enumerate(images)
        )
        self._splits = {}
        # (word,) -> the product of its letter images, for by_rewriting
        self._products = _image_products(S, 1, 2)

    def __call__(self, u: EnvElement) -> TensorEnvElement:
        if u.structure != self.S:
            raise ValueError("argument in the wrong enveloping algebra")
        if not self.standard:
            return self.by_rewriting(u)
        # a split's words concatenate to its word, so the splits of distinct
        # words are distinct keys: nothing sums
        terms: dict = {}
        for w, a in u.terms.items():
            image = self.delta_A(a)
            for key, mult in self._word_splits(w):
                terms[key] = image if mult == 1 else image * mult
        return TensorEnvElement._trusted(self.S, terms, 2)

    def _word_splits(self, w):
        """The closed-form coproduct of a normal word: every split into a
        sub-multiset and its complement, with its binomial multiplicity.
        Cached per word."""
        cached = self._splits.get(w)
        if cached is not None:
            return cached
        runs = [(l, len(list(g))) for l, g in itertools.groupby(w)]
        out = []
        for pick in itertools.product(*(range(n + 1) for _, n in runs)):
            left, right, mult = (), (), 1
            for (l, n), k in zip(runs, pick):
                left += (l,) * k
                right += (l,) * (n - k)
                mult *= math.comb(n, k)
            out.append(((left, right), mult))
        self._splits[w] = tuple(out)
        return self._splits[w]

    def by_rewriting(self, u: EnvElement) -> TensorEnvElement:
        """Multiply the letter images out with the legwise product.  Valid
        for any letter images; for the standard ones it is the oracle of
        the closed form in __call__."""
        if u.structure != self.S:
            raise ValueError("argument in the wrong enveloping algebra")
        terms = (((w,), a) for w, a in u.terms.items())
        return _multiply_out(self.S, 2, terms, self.delta_A, [self.images], self._products)

    # -- one-leg application, for coassociativity ---------------------------

    def _leg_data(self, leg: int):
        """The coefficient map from the tensor square of A to its cube, the
        three-leg images of the letters of legs 0 and 1 when the map is
        applied to `leg` (that leg's letters go to their images on two
        adjacent legs, the other leg's letters stay as they are) and the
        memo of their products per word pair."""
        cached = self._lifted.get(leg)
        if cached is not None:
            return cached
        S, A = self.S, self.S.algebra
        A3 = A.tensor_power(3)
        copies = (0, 1) if leg == 0 else (1, 2)
        place = (lambda pair, w: pair + (w,)) if leg == 0 else (lambda pair, w: (w,) + pair)
        mapped = [
            TensorEnvElement(S, {place(ws, ()): spread_copies(c, A, copies, A3)
                                 for ws, c in img.terms.items()}, 3)
            for img in self.images
        ]
        plain = [TensorEnvElement(S, {place(((), ()), (i,)): 1}, 3) for i in range(S.rank)]
        images = [mapped, plain] if leg == 0 else [plain, mapped]
        self._lifted[leg] = (on_leg(self.delta_A, leg), images, _image_products(S, 2, 3))
        return self._lifted[leg]

    def apply_to_leg(self, t: TensorEnvElement, leg: int) -> TensorEnvElement:
        """Apply the map to one leg of a tensor-square element, producing a
        three-leg element."""
        _check_leg(t, leg)
        return _multiply_out(self.S, 3, t.terms.items(), *self._leg_data(leg))


def _check_leg(t: TensorEnvElement, leg) -> None:
    """Refuse a leg other than 0 or 1, or a tensor that is not in the
    tensor square."""
    if not isinstance(t, TensorEnvElement) or t.legs != 2:
        raise ValueError("expected an element of the tensor square (2 legs)")
    if leg not in (0, 1):
        raise ValueError(f"leg {leg!r} is not 0 or 1")


def _image_products(S, words: int, legs: int) -> dict:
    """A memo for _multiply_out: tuples of `words` words -> the product
    of their letter images, which have `legs` legs; it starts with the
    empty words, whose product is 1."""
    one = S.algebra.tensor_power(legs).one()
    return {((),) * words: TensorEnvElement._trusted(S, {((),) * legs: one}, legs)}


def _multiply_out(S, legs: int, terms, coefficient, letter_images, products) -> TensorEnvElement:
    """The sum over `terms` (word tuple, a) of coefficient(a) times the
    product of the images of the letters of each word in turn, legwise;
    letter_images[l][i] is the image of letter i of word l.

    The product of a word tuple's images is memoized in `products` (see
    _image_products); a miss multiplies the images out from 1.  The
    monomials of coefficient(a) multiply in on the left as the product's
    terms are summed, into one flat sum wrapped once."""
    sums: dict = {}  # (word tuple, exponents) -> rational
    for words, a in terms:
        product = products.get(words)
        if product is None:
            product = products[((),) * len(words)]
            for images, w in zip(letter_images, words):
                for i in w:
                    product = product * images[i]
            products[words] = product
        c = [(f if any(f) else None, x) for f, x in coefficient(a).terms.items()]
        for ws, p in product.terms.items():
            for g, y in p.terms.items():
                for f, x in c:
                    key, x = (ws, g) if f is None else (ws, tuple(map(add, f, g))), x * y
                    sums[key] = sums[key] + x if key in sums else x
    return TensorEnvElement._trusted(S, _wrap(S.algebra.tensor_power(legs), sums), legs)


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
    return standard_coproduct(u.structure)(u)


def counit(u: EnvElement) -> Fraction:
    return u.counit()


def _word_antipode(S: LieRinehartAlgebra, w) -> EnvElement:
    """The signed reversal (-1)^L e_{w_L} .. e_{w_1} of a normal word w of
    length L, memoized per structure for w and each of its prefixes.  A
    miss starts from the longest prefix already known and extends it a
    letter at a time: appending the letter l multiplies by -e_l on the
    left.  The memo holds few distinct coefficients many times over, so
    its entries share one object per value (sound because a LaurentPoly
    is never mutated in place); that keeps it about a third the size."""
    memo = S._tensor_cache.get("antipode-words")
    if memo is None:
        memo = S._tensor_cache["antipode-words"] = {(): EnvElement.one(S)}
    hit = memo.get(w)
    if hit is not None:
        return hit
    pool = S._tensor_cache.setdefault("antipode-coefficients", {})
    k = len(w) - 1
    while w[:k] not in memo:
        k -= 1
    cur = memo[w[:k]]
    for k in range(k, len(w)):
        cur = -(EnvElement.generator(S, w[k]) * cur)
        cur = memo[w[:k + 1]] = EnvElement._trusted(S, {
            u: pool.setdefault(frozenset(p.terms.items()), p) for u, p in cur.terms.items()})
    return cur


def antipode(u: EnvElement) -> EnvElement:
    """The sum over the terms a w of u of S(w) times the antipode of A
    applied to a, with S(w) the memoized signed reversal of the word (see
    the module docstring)."""
    S = u.structure
    anti_A = antipode_morphism(S.algebra)
    if len(u.terms) == 1:
        # one product, which returns the memo entry itself when S_A(a) = 1
        (w, a), = u.terms.items()
        return _word_antipode(S, w) * EnvElement._trusted(S, {(): anti_A(a)})
    images = {w: anti_A(a) for w, a in u.terms.items()}
    d = _common_denominator(images.values())
    sums: dict = {}  # (word, exponents) -> rational
    for w, b in images.items():
        _product_into(sums, S, _word_antipode(S, w).terms, {(): b}, 1, d)
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
    the convolution products appearing in the antipode axioms.  The
    products of the terms are summed raw and wrapped once."""
    _check_leg(t, leg)
    S = t.structure
    A = S.algebra
    n = A.ngens
    d = _common_denominator(t.terms.values())
    sums: dict = {}  # (word, exponents) -> rational
    for (w1, w2), c in t.terms.items():
        for exps, q in _cleared(c.terms, d).items():
            left = {w1: LaurentPoly._trusted(A, {exps[:n]: q})}
            right = {w2: LaurentPoly._trusted(A, {exps[n:]: 1})}
            if leg == 0:
                left = antipode(EnvElement._trusted(S, left)).terms
            else:
                right = antipode(EnvElement._trusted(S, right)).terms
            _product_into(sums, S, left, right)
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

    def multiplicative(pair):
        u, v = pair
        if dmap(u * v) != dmap(u) * dmap(v):
            return f"at u={u}, v={v}"

    report.law("coproduct-multiplicative-words",
               itertools.product(words, words), multiplicative)
    report.law("coproduct-multiplicative-random",
               _random_pairs(S, rng, samples, max_word, max_degree), multiplicative)

    def coassociative(u):
        t = dmap(u)
        if dmap.apply_to_leg(t, 0) != dmap.apply_to_leg(t, 1):
            return f"at u={u}"

    report.law("coproduct-coassociative", words + randoms, coassociative)

    def counital(u):
        t = dmap(u)
        left = counit_collapse(t, 0)
        right = counit_collapse(t, 1)
        if left != u:
            return f"left counit law at u={u}: got {left}"
        if right != u:
            return f"right counit law at u={u}: got {right}"

    report.law("coproduct-counital", words + randoms, counital)

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

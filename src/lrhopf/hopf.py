"""Comultiplication, counit and antipode on the enveloping algebra.

An element of the k-th tensor power of the enveloping algebra maps k-tuples
of normal words to coefficients in the k-th tensor power of A: the coproduct
lands in k = 2, and applying it again to one leg lands in k = 3.  The
product is computed one leg at a time with the structure's own rewriting:

    (c; w_0, .., w_{k-1})(q y^e_0 .. y^e_{k-1}; v_0, .., v_{k-1})
        = c q (w_0 y^e_0 v_0) (x) .. (x) (w_{k-1} y^e_{k-1} v_{k-1})

for each monomial q y^e_0 .. y^e_{k-1} of the right coefficient, where
each leg w y^e v is a product in the enveloping algebra itself.  The
tensor layer sums exactly as the enveloping product does (see
`enveloping`), at a cost that follows the terms it sums.  The leg
products are memoized per structure, for every number of legs, in rows:
(e, v) -> w -> the (word, packed exponents, rational) triples that the
rewriting memos hold, each word wrapped in a one-word tuple, so that the
entry of leg 0 is already a list of partial terms (word tuple, packed
exponents of the concatenated legs, rational).  A later leg l extends a
partial term by zs + z, g + (h << s_l), s_l the shift that moves leg l's
exponents into their fields (`_leg_shift`, see `enveloping`); the last
leg is summed straight into the sum, and the monomials of c multiply in
there.  The kernel `_form_sums` multiplies a left operand, a denominator
and (word tuple, cleared monomials by packed exponents) pairs as
`_tensor_terms` gives them for a tensor and `_closed_terms` for a closed
form, by a right operand that `_right_form` builds from such pairs: per
monomial, the leg memo's rows for its exponents unpacked and cut into
legs, so that a leg is one word looked up in a row.  Nothing keeps an
operand: `TensorEnvElement.__mul__` builds both per call, and the
multiplicative law on words builds each unit word's two once (see
below).  The kernel returns one sum grouped by word tuple, word tuple ->
packed exponents -> rational, on integers, each operand's coefficients
multiplied first by the lcm of their denominators (as FLINT's fmpq_poly
keeps an integer polynomial over one denominator), and the product of
the two lcms; `_wrap` turns the sum into terms once, dividing each
coefficient by it.
`TensorEnvElement.__mul__` wraps; the multiplicative laws do not (see
below).  The leg memo keeps its own rationals, so fractional structure
constants still work; a Fraction then only reaches the sums through a
leg.  Coefficients live in `A.tensor_power(k)`, which A builds once and
keeps.  The same space is the enveloping algebra of
`tensor_power_structure` (k commuting copies of the basis, copy c acting
on leg c); nothing here uses it: it serves only the tests' flat oracle
of the legwise product and of the one-leg application.

The structure maps:
  * a coefficient comultiplies through the generator markers of A;
  * a basis letter e goes to e' + e'' (one letter in each leg);
  * the counit keeps the empty-word coefficient and applies the counit
    of A;
  * the antipode reverses words, signs them by length, and applies the
    antipode of A to coefficients.

The antipode of c y^e w, for a normal word w = e_{w_1} .. e_{w_L}, is

    S(c y^e w) = c S(w) S_A(y^e),   S(w) = (-1)^L e_{w_L} .. e_{w_1},

a product in the enveloping algebra.  S(y^e w) is memoized per structure
under (w, e) in `S._tensor_cache["antipode"]`, each entry a tuple of
(word, packed exponents, rational) triples frozen as the rewriting memos
are (`_frozen`, see `enveloping`), and each filled by `_word_poly_word`:
the entries S(w) = S(y^0 w) along prefixes by S(w l) = -e_l S(w), one
product per new word, and an entry with e != 0 by one product S(w)
S_A(y^e) when first missed.  `antipode` then costs one lookup per
monomial c y^e of its argument, summing c times the entry into one sum
grouped by word wrapped once, and `antipode_convolution` multiplies each
monomial's entry by the other leg through `_word_poly_word`, building no
element per monomial.  These identities only regroup a product of
letters and a coefficient and move a rational scalar out of it, so they
hold by linearity and associativity alone: the antipode's Hopf
properties (anti-multiplicativity, the convolution laws) are not used to
compute it, and the battery still measures them.

The standard coproduct is computed in closed form.  The two legs
commute and the letter images carry no coefficients, so for a normal word
w the product of the images e' + e'' needs no rewriting:

    coproduct(a w) = coproduct_A(a) * sum over (w1, w2) of mult * w1 (x) w2

over the splits of the multiset w into a sub-multiset w1 and its
complement w2, where mult is the product over letters l of
binomial(count of l in w, count of l in w1).  `CoproductLikeMap._closed`
gives it unwrapped: the lcm d of the argument's denominators and, per
term a w, the splits of w with their multiplicities and the integer
monomials of d coproduct_A(a) by packed exponents, read from a per-map
memo of each monomial's packed image; `__call__` unpacks and wraps it,
one LaurentPoly per distinct multiplicity of w, shared by its splits (a
LaurentPoly is never mutated).  The multiplicative laws build no tensor
and pack nothing: `_agrees` pops, per word pair, the inner sum of the
unwrapped coproduct(u) coproduct(v) and each monomial of the closed form
of uv from it, cross-multiplying the denominators, and requires every
sum left to be 0.  The operands of both laws come from the closed form
(`_closed_terms`): a random pair's per pair, and each unit word's left
and right operand once, kept by `report.shared` for the law on words.
The closed form is read on both sides, which stay independent:
coproduct(uv) is read at the rewritten product uv, and coproduct(u)
coproduct(v) comes from the legwise leg products.
Multiplying the letter images out with the legwise product
(CoproductLikeMap.by_rewriting) gives the same element; it stays as the
engine for any other letter images and as the independent oracle the
leading-split check and the tests compare against.  The bialgebra
battery computes the coproduct of each unit word and of each random
element of its coassociative and counital laws once, on first use, and
shares it between those laws.

Multiplying out (by_rewriting, and apply_to_leg for coassociativity)
reads one memo per map: a word -> the legwise product of its letter
images, a two-leg tensor multiplied out from 1 on a miss.  by_rewriting
sums coproduct_A(a) times the image of w over the terms a w of its
argument; as (Delta (x) id)(w0 (x) w1) = Delta(w0) (x) w1, apply_to_leg
sums, over the terms c (w0 (x) w1), coproduct_A on that leg of c times
the image of w_leg on legs leg and leg + 1, the other word alone on the
remaining leg.  Both sum into one sum grouped by word tuple, p's
packed exponents shifted past the legs before it.  This
regroups the same product by associativity and moves a coefficient on
the left into the coefficients, nothing else: it never uses the closed
form, so both stay independent of the coproduct they check, and the
battery still measures multiplicativity and coassociativity.  Nor does
the legwise product itself: it rewrites each leg with the structure's
own rules, so a wrong split multiplicity in the closed form still fails
coproduct-multiplicative-words and coproduct-coassociative, and a wrong
coefficient image fails coproduct-multiplicative-random.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

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
    tensor_embed,
    check_hopf_axioms,
)
from .enveloping import (EnvElement, _frozen, _leg_shift, _normal_word, _packing,
                         _word_poly_word, _wrap)
from .lie_rinehart import (Combination, LieRinehartAlgebra, _add_term, check_bi_lr,
                           signed_sum)
from .report import Report, shared


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


class _LegRow(dict):
    """One row of the leg memo: w -> the normal form of w y^e v in the
    structure, for one (e, v), as ((word,), packed exponents, rational)
    triples, the word wrapped in a one-word tuple so that the entries of
    leg 0 are already partial terms.  A miss sums w y^e v with
    `_word_poly_word` into a fresh sum, the kernel of the enveloping
    product, and keeps it frozen."""

    __slots__ = ("S", "e", "v")

    def __init__(self, S: LieRinehartAlgebra, e, v):
        self.S, self.e, self.v = S, e, v

    def __missing__(self, w):
        pack, acc = _packing(self.S.algebra), {}
        _word_poly_word(acc, self.S, w, self.e, pack[self.e], self.v)
        entry = self[w] = tuple(((u,), g, x) for u, g, x in _frozen(pack, acc))
        return entry


def _right_form(S: LieRinehartAlgebra, legs: int, d: int, terms) -> tuple:
    """The right operand of `_form_sums` from the lcm d of its denominators
    and its (word tuple, cleared monomials by packed exponents) pairs: d,
    per monomial of every term (its rational, the leg memo's rows for its
    exponents unpacked and cut into legs and the words of the term), and
    each leg's shift."""
    memo = S._tensor_cache.get("legs")
    if memo is None:
        memo = S._tensor_cache["legs"] = {}
    n = S.algebra.ngens
    unpack = _packing(S.algebra.tensor_power(legs)).unpack
    cuts = [slice(l * n, (l + 1) * n) for l in range(legs)]
    monomials = []
    for ws, cleared in terms:
        for p, x in cleared.items():
            e, rows = unpack[p], []
            for cut, v in zip(cuts, ws):
                key = (e[cut], v)
                row = memo.get(key)
                if row is None:
                    row = memo[key] = _LegRow(S, *key)
                rows.append(row)
            monomials.append((x, rows))
    return d, monomials, [_leg_shift(S.algebra, l) for l in range(legs)]


def _tensor_terms(t: TensorEnvElement) -> tuple:
    """The lcm d of t's denominators and t's (word tuple, cleared
    monomials by packed exponents) pairs."""
    d = _common_denominator(t.terms.values())
    pack = _packing(t.algebra)
    return d, ((ws, {pack[e]: x for e, x in _cleared(c.terms, d).items()})
               for ws, c in t.terms.items())


def _form_sums(left: tuple, right: tuple, legs: int) -> tuple:
    """The product of two operands with `legs` legs (see the module
    docstring), the left one as `_tensor_terms` or `_closed_terms` gives
    it, the right one a `_right_form`: the sum grouped by word tuple, word
    tuple -> packed exponents -> rational, and the denominator that
    divides it.  Each leg's entry is one lookup in a row the right
    monomial prepared; a partial term (word tuple, packed exponents,
    rational) extends leg by leg, the exponents of leg l shifted into its
    fields, and the last leg is summed straight into the sum with the
    left monomials, as in `_product_into`."""
    d_t, left = left
    d_s, right, shifts = right
    middle = tuple(range(1, legs - 1))  # the legs between the first and the last
    shift = shifts[-1]
    sums: dict = {}
    for ws, a in left:
        w0, wl, a = ws[0], ws[-1], a.items()
        for q, rows in right:
            # distinct terms of each leg give distinct partial terms
            partial = rows[0][w0]
            for l in middle:
                partial = [(zs + z, g + (h << shifts[l]), x * y) for zs, g, x in partial
                           for z, h, y in rows[l][ws[l]]]
            last = rows[-1][wl]
            for zs, g, x in partial:
                x *= q
                for z, h, y in last:
                    terms, gh, y = sums.setdefault(zs + z, {}), g + (h << shift), x * y
                    for f, c in a:
                        key, c = f + gh, c * y
                        terms[key] = terms[key] + c if key in terms else c
    return sums, d_t * d_s


def _closed_terms(closed: tuple) -> tuple:
    """A closed form of `CoproductLikeMap._closed` as `_tensor_terms` gives
    a tensor: per split of a term's word, its monomials times its
    multiplicity."""
    d, terms = closed
    return d, [(key, monomials if mult == 1 else {e: x * mult for e, x in monomials.items()})
               for splits, monomials in terms for key, mult in splits]


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
        S, legs = self.structure, self.legs
        sums = _form_sums(_tensor_terms(self), _right_form(S, legs, *_tensor_terms(other)), legs)
        return TensorEnvElement._trusted(S, _wrap(self.algebra, *sums), legs)

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
    if _enveloping(u1).structure != _enveloping(u2).structure:
        raise ValueError("tensor factors over different structures")
    S = u1.structure
    alg2 = S.algebra.tensor_power(2)
    return TensorEnvElement(S, {
        (w1, w2): tensor_embed(c1, 0, alg2) * tensor_embed(c2, 1, alg2)
        for w1, c1 in u1.terms.items()
        for w2, c2 in u2.terms.items()
    })


def _enveloping(u) -> EnvElement:
    """u, which the Hopf maps take only as an element of the enveloping
    algebra: a tensor-square element would hang the antipode's memo walk,
    and the coproduct would read its word pairs as words."""
    if not isinstance(u, EnvElement):
        raise TypeError(f"expected an EnvElement, got {type(u).__name__}")
    return u


class CoproductLikeMap:
    """A candidate comultiplication on the enveloping algebra determined by
    the coefficient comultiplication and a tensor-square image per basis
    letter.  The standard coproduct sends a letter e to e' + e''; the
    conjecture probe perturbs these images.

    Whether such a map is actually well behaved (multiplicative,
    coassociative, counital) is exactly what the batteries measure.

    When every letter image is the standard e' + e'' (`standard`), the map
    is evaluated in closed form; otherwise by rewriting."""

    def __init__(self, S: LieRinehartAlgebra, letter_images):
        self.S = S
        self.delta_A = comultiplication(S.algebra)
        images = list(letter_images)
        for img in images:
            if not isinstance(img, TensorEnvElement) or img.legs != 2 or img.structure != S:
                raise ValueError("letter image outside the tensor square")
        if len(images) != S.rank:
            raise ValueError("need one image per basis letter")
        self.images = images
        one = S.algebra.tensor_power(2).one()
        self.standard = all(
            img.terms == {((i,), ()): one, ((), (i,)): one}
            for i, img in enumerate(images)
        )
        self._splits = {}
        # exponents e -> coproduct_A(y^e) as (packed exponents, int) pairs
        self._images = {}
        # word -> the legwise product of its letter images (see _word_image)
        self._products = {(): TensorEnvElement._trusted(S, {((), ()): one}, 2)}

    def __call__(self, u: EnvElement) -> TensorEnvElement:
        if _enveloping(u).structure != self.S:
            raise ValueError("argument in the wrong enveloping algebra")
        if not self.standard:
            return self.by_rewriting(u)
        d, closed = self._closed(u)
        A2 = self.S.algebra.tensor_power(2)
        unpack = _packing(A2).unpack
        # a split's words concatenate to its word, so nothing sums; the splits
        # of one multiplicity share a LaurentPoly, which is never mutated
        terms: dict = {}
        for splits, monomials in closed:
            scaled = {}
            for key, mult in splits:
                image = scaled.get(mult)
                if image is None:
                    q = {}
                    for e, x in monomials.items():
                        x *= mult
                        q[unpack[e]] = x if d == 1 else Fraction(x, d) if x % d else x // d
                    image = scaled[mult] = LaurentPoly._trusted(A2, q)
                terms[key] = image
        return TensorEnvElement._trusted(self.S, terms, 2)

    def _closed(self, u: EnvElement) -> tuple:
        """The standard coproduct of u unwrapped: the lcm d of u's
        denominators and, per term a w, (w's splits with their
        multiplicities, d coproduct_A(a) as packed exponents -> int).
        Nothing sums: the images of distinct monomials are disjoint, as a
        primitive's exponent is the sum of its legs', a group-like's that
        of either leg."""
        d = _common_denominator(u.terms.values())
        images = self._images
        closed = []
        for w, a in u.terms.items():
            monomials = {g: x * y for e, x in _cleared(a.terms, d).items()
                         for g, y in images.get(e) or self._image(e)}
            closed.append((self._word_splits(w), monomials))
        return d, closed

    def _image(self, e) -> tuple:
        """coproduct_A(y^e) as (packed exponents, int) pairs, kept per map."""
        pack = _packing(self.S.algebra.tensor_power(2))
        image = self._images[e] = tuple(
            (pack[g], y) for g, y in self.delta_A._monomial_image(e).terms.items())
        return image

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
        if _enveloping(u).structure != self.S:
            raise ValueError("argument in the wrong enveloping algebra")
        return _multiply_out(self.S, 2, ((self.delta_A(a), (), self._word_image(w), ())
                                         for w, a in u.terms.items()))

    def apply_to_leg(self, t: TensorEnvElement, leg: int) -> TensorEnvElement:
        """Apply the map to one leg of a tensor-square element, producing a
        three-leg element: (Delta (x) id)(c w0 (x) w1) is Delta_A on leg 0
        of c times Delta(w0) (x) w1, and likewise on leg 1."""
        _check_leg(t, leg)
        if t.structure != self.S:
            raise ValueError("argument in the wrong enveloping algebra")
        coefficient = on_leg(self.delta_A, leg)
        return _multiply_out(self.S, 3, ((coefficient(c), ws[:leg], self._word_image(ws[leg]),
                                          ws[leg + 1:]) for ws, c in t.terms.items()))

    def _word_image(self, w) -> TensorEnvElement:
        """The legwise product of the letter images of the word w, memoized
        per map for by_rewriting and both legs of apply_to_leg; a miss
        multiplies the images out from 1."""
        product = self._products.get(w)
        if product is None:
            product = self._products[()]
            for i in w:
                product = product * self.images[i]
            self._products[w] = product
        return product


def _check_leg(t: TensorEnvElement, leg) -> None:
    """Refuse a leg other than 0 or 1, or a tensor that is not in the
    tensor square."""
    if not isinstance(t, TensorEnvElement) or t.legs != 2:
        raise ValueError("expected an element of the tensor square (2 legs)")
    if leg not in (0, 1):
        raise ValueError(f"leg {leg!r} is not 0 or 1")


def _multiply_out(S, legs: int, parts) -> TensorEnvElement:
    """The sum over `parts` (coefficient c, words before, two-leg tensor p,
    words after) of c times p with the words before and after alone on
    the legs either side of p's two, p's packed exponents shifted past
    the legs before.  The monomials of c multiply in on the left as p's
    terms are summed, into one sum grouped by word tuple wrapped once."""
    A = S.algebra
    pack, pack2 = _packing(A.tensor_power(legs)), _packing(A.tensor_power(2))
    shifts = [_leg_shift(A, l) for l in range(legs - 1)]
    sums: dict = {}  # word tuple -> packed exponents -> rational
    for c, before, p, after in parts:
        shift = shifts[len(before)]
        c = [(pack[f], x) for f, x in c.terms.items()]
        for ws, q in p.terms.items():
            terms = sums.setdefault(before + ws + after, {})
            for g, y in q.terms.items():
                g = pack2[g] << shift
                for f, x in c:
                    key, x = f + g, x * y
                    terms[key] = terms[key] + x if key in terms else x
    return TensorEnvElement._trusted(S, _wrap(A.tensor_power(legs), sums), legs)


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
    """The antipode memo of S, (w, e) -> S(y^e w) as (word, packed
    exponents, rational) triples, made on first use with S(1) = 1."""
    memo = S._tensor_cache.get("antipode")
    if memo is None:
        antipode_morphism(S.algebra)  # refuses an A with an unmarked generator
        memo = S._tensor_cache["antipode"] = {((), (0,) * S.algebra.ngens): (((), 0, 1),)}
    return memo


def _antipode_entry(S: LieRinehartAlgebra, memo: dict, w, e) -> tuple:
    """The entry S(y^e w) = S(w) S_A(y^e) that the memo misses, summed by
    `_word_poly_word` and frozen (see the module docstring).  A missing
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

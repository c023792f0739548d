"""Tensor powers of the enveloping algebra, and maps into the tensor square
by the images of the basis letters.

An element of the k-th tensor power maps k-tuples of normal words to
coefficients in the k-th tensor power of A, `A.tensor_power(k)`, which A
builds once and keeps: the coproduct lands in k = 2, and applying it again
to one leg lands in k = 3.  The product is computed one leg at a time with
the structure's own rewriting:

    (c; w_0, .., w_{k-1})(q y^e_0 .. y^e_{k-1}; v_0, .., v_{k-1})
        = c q (w_0 y^e_0 v_0) (x) .. (x) (w_{k-1} y^e_{k-1} v_{k-1})

for each monomial q y^e_0 .. y^e_{k-1} of the right coefficient, each leg
w y^e v a product in the enveloping algebra itself, memoized per structure
for every number of legs (`_LegRow`).  One kernel, `_form_sums`, serves
every number of legs: it multiplies a left operand (`_tensor_terms` for a
tensor, `_closed_terms` for a closed-form coproduct) by a right one
(`_right_form`) on integers, as the enveloping product does (see
`enveloping`), at a cost that follows the terms it sums.  Nothing keeps an
operand: `TensorEnvElement.__mul__` builds both per call and wraps the sum
once.  The leg memo keeps its own rationals, so fractional structure
constants still work.

`CoproductLikeMap` evaluates the standard letter images e' + e'' in closed
form (see `hopf`), and multiplies any others out legwise (`by_rewriting`,
and `apply_to_leg` for coassociativity).  Multiplying out regroups the same
product by associativity and moves a coefficient on the left into the
coefficients, nothing else: it never uses the closed form, so both stay
independent of the coproduct they check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import (LaurentPoly, _cleared, _common_denominator, comultiplication, on_leg,
                      split_exponents, tensor_embed)
from .enveloping import (EnvElement, _frozen, _leg_shift, _normal_word, _packing,
                         _word_poly_word, _wrap)
from .lie_rinehart import Combination, LieRinehartAlgebra, signed_sum


class _LegRow(dict):
    """One row of the leg memo `S._tensor_cache["legs"]`, (e, v) -> row: w
    -> the normal form of w y^e v in the structure as ((word,), packed
    exponents, rational) triples, the word wrapped in a one-word tuple so
    that the entries of leg 0 are already partial terms.  A miss sums
    w y^e v with `_word_poly_word` into a fresh sum, the kernel of the
    enveloping product, and keeps it frozen."""

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

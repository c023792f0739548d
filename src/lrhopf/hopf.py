"""Comultiplication, counit and antipode on the enveloping algebra.

An element of the tensor square of the enveloping algebra maps pairs of
normal words (w0, w1) to coefficients in the tensor square of A.  Its
product is computed one leg at a time with the structure's own rewriting:

    (c; w0, w1)(q y^e0 (x) y^e1; v0, v1) = c q (w0 y^e0 v0) (x) (w1 y^e1 v1)

for each monomial q y^e0 (x) y^e1 of the right coefficient, where both
legs are products in the enveloping algebra itself; the leg products
(w0, e0, v0) -> w0 y^e0 v0 are cached per structure.  The same space is
the enveloping algebra of a doubled structure: coefficients in the tensor
square of A, and two commuting copies of the basis, each acting on its own
tensor leg, with copy 0 letters sorting before copy 1 letters (to_flat and
from_flat convert).  Products there give the same element; the doubled
structure carries the letter images of a coproduct-like map, its rewriting
path, the one-leg application into the tripled structure, and it is the
oracle the tests compare the legwise product against.

The structure maps:
  * a coefficient comultiplies through the generator markers of A;
  * a basis letter e goes to e' + e'' (one letter in each copy);
  * the counit keeps the empty-word coefficient and applies the counit
    of A;
  * the antipode reverses words, signs them by length, and applies the
    antipode of A to coefficients.

The standard coproduct is computed in closed form.  The two copies
commute and the letter images carry no coefficients, so for a normal word
w the product of the images e' + e'' needs no rewriting:

    coproduct(a w) = coproduct_A(a) * sum over (w1, w2) of mult * w1 (x) w2

over the splits of the multiset w into a sub-multiset w1 and its
complement w2, where mult is the product over letters l of
binomial(count of l in w, count of l in w1).  Multiplying the letter
images out in the doubled structure (CoproductLikeMap.by_rewriting) gives
the same element; it stays as the engine for any other letter images and
as the independent oracle the leading-split check and the tests compare
against.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .algebra import (
    AlgebraMorphism,
    LaurentPoly,
    _nonzero,
    antipode_morphism,
    coeff_str,
    comultiplication,
    counit_morphism,
    inclusion_of_scalars,
    split_exponents,
    spread_copies,
    tensor_embed,
    check_hopf_axioms,
)
from .enveloping import EnvElement, _add_term, _word_poly_word
from .lie_rinehart import LieRinehartAlgebra, check_bi_lr
from .report import Report


def tensor_power_structure(S: LieRinehartAlgebra, k: int) -> LieRinehartAlgebra:
    """k commuting copies of the structure over the k-fold tensor power of
    its coefficients.  Copy c of a basis element acts on tensor leg c only;
    brackets across copies vanish.  Cached on the structure."""
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


def _leg_products(S: LieRinehartAlgebra):
    """The product (w, e, v) -> normal form of w * y^e * v in S, for normal
    words w, v and an exponent tuple e of A: one leg of a product in the
    tensor square.  Cached per structure; the returned dicts are shared
    and must not be mutated."""
    cache = S._tensor_cache.get("legs")
    if cache is None:
        cache = S._tensor_cache["legs"] = {}
    A = S.algebra
    one = Fraction(1)

    def leg(w, e, v):
        key = (w, e, v)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = _word_poly_word(
                S, w, LaurentPoly._trusted(A, {e: one}), v
            )
        return hit

    return leg


def _legwise_product(t: TensorEnvElement, s: TensorEnvElement) -> dict:
    """The terms of t * s, one leg at a time:

        (c; w0, w1)(q y^e0 (x) y^e1; v0, v1) = c q (w0 y^e0 v0) (x) (w1 y^e1 v1)

    where each leg is a product in S (`_leg_products`).  The copies commute
    and act on separate legs, so this is the product in the doubled
    structure without rewriting there.  Coefficients are summed as raw
    exponent -> Fraction dicts and wrapped once at the end."""
    S = t.structure
    n = S.algebra.ngens
    unit = (0,) * (2 * n)
    leg = _leg_products(S)
    sums: dict = {}  # word pair -> {exponent tuple of A (x) A: Fraction}
    for (w0, w1), c in t.terms.items():
        # a constant c folds into the scalars; otherwise the legs of one
        # pair of terms are summed first and multiplied by c after
        scalar = c.terms.get(unit) if len(c.terms) == 1 else None
        for (v0, v1), b in s.terms.items():
            acc = sums if scalar is not None else {}
            for e, q in b.terms.items():
                if scalar is not None:
                    q = q * scalar
                legs1 = leg(w1, e[n:], v1)
                for z0, p0 in leg(w0, e[:n], v0).items():
                    for z1, p1 in legs1.items():
                        coeffs = acc.get((z0, z1))
                        if coeffs is None:
                            coeffs = acc[(z0, z1)] = {}
                        for a0, c0 in p0.terms.items():
                            qc0 = q * c0
                            for a1, c1 in p1.terms.items():
                                exps = a0 + a1
                                x = qc0 * c1
                                coeffs[exps] = coeffs[exps] + x if exps in coeffs else x
            if scalar is not None:
                continue
            for key, coeffs in acc.items():
                out = sums.setdefault(key, {})
                for f, k in c.terms.items():
                    for exps, x in coeffs.items():
                        exps = tuple(map(operator.add, f, exps))
                        x = k * x
                        out[exps] = out[exps] + x if exps in out else x
    A2 = tensor_power_structure(S, 2).algebra
    result = {}
    for key, coeffs in sums.items():
        coeffs = _nonzero(coeffs)
        if coeffs:
            result[key] = LaurentPoly._trusted(A2, coeffs)
    return result


def _split_flat_word(word, m: int):
    w1 = tuple(l for l in word if l < m)
    w2 = tuple(l - m for l in word if l >= m)
    return w1, w2


class TensorEnvElement:
    """An element of the tensor square of the enveloping algebra: a map
    from word pairs to coefficients in the tensor square of A.

    Invariant of `terms`, kept by every constructor:
      * each key is a pair of normal (nondecreasing) words in the basis
        letters 0 .. rank-1;
      * each value is a nonzero LaurentPoly over the tensor square of A.

    The constructor checks its input, converts scalar coefficients and
    sums repeated keys.  Arithmetic, from_flat and the closed-form
    coproduct build their results with `_trusted`, which stores a dict that
    already satisfies the invariant without looking at it again."""

    __slots__ = ("structure", "tpow", "terms")

    @classmethod
    def _trusted(cls, structure: LieRinehartAlgebra, terms: dict) -> "TensorEnvElement":
        """Wrap `terms`, which must already satisfy the class invariant and
        must not be shared with code that will mutate it."""
        t = object.__new__(cls)
        t.structure = structure
        t.tpow = tensor_power_structure(structure, 2)
        t.terms = terms
        return t

    def __init__(self, structure: LieRinehartAlgebra, terms: dict):
        tpow = tensor_power_structure(structure, 2)
        clean = {}
        for (w1, w2), c in terms.items():
            w1, w2 = tuple(w1), tuple(w2)
            for w in (w1, w2):
                if any(w[t] > w[t + 1] for t in range(len(w) - 1)):
                    raise ValueError(f"word {w} is not nondecreasing")
                if any(not (0 <= i < structure.rank) for i in w):
                    raise ValueError(f"word {w} uses letters outside the basis")
            if not isinstance(c, LaurentPoly):
                c = tpow.algebra.const(c)
            if c.algebra != tpow.algebra:
                raise ValueError("coefficient must live in the tensor square of A")
            if not c.is_zero():
                key = (w1, w2)
                clean[key] = clean.get(key, tpow.algebra.zero()) + c
        self.structure = structure
        self.tpow = tpow
        self.terms = {k: c for k, c in clean.items() if not c.is_zero()}

    @classmethod
    def zero(cls, structure) -> "TensorEnvElement":
        return cls._trusted(structure, {})

    @classmethod
    def from_flat(cls, structure, u: EnvElement) -> "TensorEnvElement":
        """Split the words of an element of the doubled structure into
        their copy-0 and copy-1 parts.  Normal flat words split into
        normal word pairs, and distinct flat words into distinct pairs."""
        tpow = tensor_power_structure(structure, 2)
        if not (u.structure is tpow or u.structure == tpow):
            raise ValueError("element outside the tensor square")
        m = structure.rank
        return cls._trusted(
            structure, {_split_flat_word(w, m): c for w, c in u.terms.items()}
        )

    def to_flat(self) -> EnvElement:
        m = self.structure.rank
        terms = {}
        for (w1, w2), c in self.terms.items():
            terms[w1 + tuple(l + m for l in w2)] = c
        return EnvElement(self.tpow, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.structure is not other.structure and self.structure != other.structure:
            raise ValueError("tensor elements over different structures")

    def __add__(self, other: "TensorEnvElement") -> "TensorEnvElement":
        self._check(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(acc, key, c)
        return TensorEnvElement._trusted(self.structure, acc)

    def __neg__(self):
        return TensorEnvElement._trusted(
            self.structure, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TensorEnvElement.zero(self.structure)
            return TensorEnvElement._trusted(
                self.structure, {k: c * other for k, c in self.terms.items()}
            )
        if isinstance(other, LaurentPoly):
            other = TensorEnvElement(self.structure, {((), ()): other})
        if not isinstance(other, TensorEnvElement):
            return NotImplemented
        self._check(other)
        return TensorEnvElement._trusted(
            self.structure, _legwise_product(self, other)
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TensorEnvElement):
            return NotImplemented
        return self.structure == other.structure and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        S = self.structure
        n = S.algebra.ngens
        pieces = []
        ordered = sorted(
            self.terms.items(),
            key=lambda kv: (len(kv[0][0]) + len(kv[0][1]), kv[0]),
            reverse=True,
        )
        for (w1, w2), c in ordered:
            for exps, q in sorted(
                c.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
            ):
                if n:
                    b1, b2 = split_exponents(exps, n)
                else:
                    b1 = b2 = ()
                left = EnvElement(S, {w1: S.algebra.monomial(b1, abs(q))})
                right = EnvElement(S, {w2: S.algebra.monomial(b2, 1)})
                pieces.append((q < 0, f"{left} (x) {right}"))
        out = ("-" if pieces[0][0] else "") + pieces[0][1]
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"<{self}>"


def tensor_pair(u1: EnvElement, u2: EnvElement) -> TensorEnvElement:
    """The elementary tensor of two enveloping algebra elements."""
    if u1.structure != u2.structure:
        raise ValueError("tensor factors over different structures")
    S = u1.structure
    alg2 = tensor_power_structure(S, 2).algebra
    terms: dict = {}
    for w1, c1 in u1.terms.items():
        for w2, c2 in u2.terms.items():
            coeff = tensor_embed(c1, 0, alg2) * tensor_embed(c2, 1, alg2)
            _add_term(terms, (w1, w2), coeff)
    return TensorEnvElement(S, terms)


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
        self.T2 = tensor_power_structure(S, 2)
        self.delta_A = comultiplication(S.algebra)
        images = []
        for img in letter_images:
            if isinstance(img, TensorEnvElement):
                img = img.to_flat()
            if img.structure != self.T2:
                raise ValueError("letter image outside the tensor square")
            images.append(img)
        if len(images) != S.rank:
            raise ValueError("need one image per basis letter")
        self.flat_images = images
        self._lifted = {}
        m = S.rank
        self.standard = all(
            img == EnvElement.generator(self.T2, i) + EnvElement.generator(self.T2, m + i)
            for i, img in enumerate(images)
        )
        self._splits = {}

    def __call__(self, u: EnvElement) -> TensorEnvElement:
        if u.structure != self.S:
            raise ValueError("argument in the wrong enveloping algebra")
        if not self.standard:
            return self.by_rewriting(u)
        terms: dict = {}
        for w, a in u.terms.items():
            image = self.delta_A(a)
            for key, mult in self._word_splits(w):
                _add_term(terms, key, image if mult == 1 else image * mult)
        return TensorEnvElement._trusted(self.S, terms)

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
        """Multiply the letter images out in the doubled structure.  Valid
        for any letter images; for the standard ones it is the oracle of
        the closed form in __call__."""
        if u.structure != self.S:
            raise ValueError("argument in the wrong enveloping algebra")
        total = EnvElement.zero(self.T2)
        for w, a in u.terms.items():
            cur = EnvElement.from_poly(self.T2, self.delta_A(a))
            for letter in w:
                cur = cur * self.flat_images[letter]
            total = total + cur
        return TensorEnvElement.from_flat(self.S, total)

    # -- one-leg application, for coassociativity ---------------------------

    def _leg_data(self, leg: int):
        cached = self._lifted.get(leg)
        if cached is not None:
            return cached
        S = self.S
        A = S.algebra
        m = S.rank
        n = A.ngens
        T3 = tensor_power_structure(S, 3)
        A2, A3 = self.T2.algebra, T3.algebra
        if leg == 0:
            coeff_map = AlgebraMorphism(
                A2,
                A3,
                [spread_copies(self.delta_A(A.gen(i)), A, (0, 1), A3) for i in range(n)]
                + [tensor_embed(A.gen(i), 2, A3) for i in range(n)],
            )
            first = [
                _reinterpret(S, self.flat_images[i], (0, 1), T3) for i in range(m)
            ]
            second = [EnvElement.generator(T3, 2 * m + j) for j in range(m)]
        else:
            coeff_map = AlgebraMorphism(
                A2,
                A3,
                [tensor_embed(A.gen(i), 0, A3) for i in range(n)]
                + [spread_copies(self.delta_A(A.gen(i)), A, (1, 2), A3) for i in range(n)],
            )
            first = [EnvElement.generator(T3, i) for i in range(m)]
            second = [
                _reinterpret(S, self.flat_images[j], (1, 2), T3) for j in range(m)
            ]
        data = (T3, coeff_map, first, second)
        self._lifted[leg] = data
        return data

    def apply_to_leg(self, t: TensorEnvElement, leg: int) -> EnvElement:
        """Apply the map to one leg of a tensor element, producing an
        element of the triple tensor power (flattened)."""
        T3, coeff_map, first, second = self._leg_data(leg)
        out = EnvElement.zero(T3)
        for (w1, w2), c in t.terms.items():
            cur = EnvElement.from_poly(T3, coeff_map(c))
            for i in w1:
                cur = cur * first[i]
            for j in w2:
                cur = cur * second[j]
            out = out + cur
        return out


def _reinterpret(S, u: EnvElement, copies, T3) -> EnvElement:
    """View an element of the doubled structure inside the tripled one,
    with the two copies landing on the given pair of legs."""
    m = S.rank
    offset = copies[0] * m
    terms = {}
    for w, c in u.terms.items():
        terms[tuple(l + offset for l in w)] = spread_copies(
            c, S.algebra, copies, T3.algebra
        )
    return EnvElement(T3, terms)


def standard_coproduct(S: LieRinehartAlgebra) -> CoproductLikeMap:
    """Basis letters go to the sum of their two copies.  Cached."""
    cached = S._tensor_cache.get("std")
    if cached is not None:
        return cached
    T2 = tensor_power_structure(S, 2)
    m = S.rank
    images = [
        EnvElement.generator(T2, i) + EnvElement.generator(T2, m + i)
        for i in range(m)
    ]
    dmap = CoproductLikeMap(S, images)
    S._tensor_cache["std"] = dmap
    return dmap


def coproduct(u: EnvElement) -> TensorEnvElement:
    return standard_coproduct(u.structure)(u)


def counit(u: EnvElement) -> Fraction:
    return u.counit()


def antipode(u: EnvElement) -> EnvElement:
    """Reverse each word, multiply back together, sign by length, and send
    the coefficient through the antipode of A."""
    S = u.structure
    anti_A = S._tensor_cache.get("antiA")
    if anti_A is None:
        anti_A = antipode_morphism(S.algebra)
        S._tensor_cache["antiA"] = anti_A
    out = EnvElement.zero(S)
    for w, a in u.terms.items():
        cur = EnvElement.from_poly(S, anti_A(a))
        for letter in w:
            # building e_reversed left to right: each letter lands on the left
            cur = EnvElement.generator(S, letter) * cur
        out = out + (cur if len(w) % 2 == 0 else -cur)
    return out


# -- collapsing maps used to state the axioms ---------------------------------


def counit_collapse(t: TensorEnvElement, leg: int) -> EnvElement:
    """Apply the counit to one leg of a tensor element."""
    S = t.structure
    A = S.algebra
    key = ("eps-collapse", leg)
    cm = S._tensor_cache.get(key)
    if cm is None:
        eps = counit_morphism(A)
        inc = inclusion_of_scalars(A)
        gens = [A.gen(i) for i in range(A.ngens)]
        killed = [inc(eps(g)) for g in gens]
        images = killed + gens if leg == 0 else gens + killed
        cm = AlgebraMorphism(t.tpow.algebra, A, images)
        S._tensor_cache[key] = cm
    out: dict = {}
    for (w1, w2), c in t.terms.items():
        dead, kept = (w1, w2) if leg == 0 else (w2, w1)
        if dead:
            continue
        _add_term(out, kept, cm(c))
    return EnvElement(S, out)


def antipode_convolution(t: TensorEnvElement, leg: int) -> EnvElement:
    """Multiply the two legs together after applying the antipode to one:
    the convolution products appearing in the antipode axioms."""
    S = t.structure
    A = S.algebra
    n = A.ngens
    out = EnvElement.zero(S)
    for (w1, w2), c in t.terms.items():
        for exps, q in c.terms.items():
            if n:
                b1, b2 = split_exponents(exps, n)
            else:
                b1 = b2 = ()
            u1 = EnvElement(S, {w1: A.monomial(b1, q)})
            u2 = EnvElement(S, {w2: A.monomial(b2, 1)})
            if leg == 0:
                out = out + antipode(u1) * u2
            else:
                out = out + u1 * antipode(u2)
    return out


# -- batteries -----------------------------------------------------------------


def _unit_words(S, max_word: int):
    """All normal words up to the length bound, as elements."""
    out = []
    for p in range(max_word + 1):
        for w in itertools.combinations_with_replacement(range(S.rank), p):
            out.append(EnvElement(S, {w: S.algebra.one()}))
    return out


def _sample_elements(S, rng, count, max_word, max_degree):
    from . import sampling

    return [
        sampling.random_env_element(rng, S, max_word, max_degree)
        for _ in range(count)
    ]


def check_bialgebra(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 200,
                    max_word: int = 3, max_degree: int = 2) -> Report:
    """Comultiplication and counit on the enveloping algebra: the coproduct
    is an algebra map (exhaustively on short words, then on random pairs),
    coassociative, counital, and its leading terms split words like the
    symmetric coalgebra."""
    from . import sampling

    report = Report()
    dmap = standard_coproduct(S)
    rng = sampling.make_rng(seed)
    words = _unit_words(S, max_word)
    randoms = _sample_elements(S, rng, max(1, samples // 8), max_word, max_degree)

    witness = None
    for u in words:
        for v in words:
            if dmap(u * v) != dmap(u) * dmap(v):
                witness = f"at u={u}, v={v}"
                break
        if witness:
            break
    report.add("coproduct-multiplicative-words", witness is None, witness)

    witness = None
    for _ in range(samples):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        if dmap(u * v) != dmap(u) * dmap(v):
            witness = f"at u={u}, v={v}"
            break
    report.add("coproduct-multiplicative-random", witness is None, witness)

    witness = None
    for u in words + randoms:
        t = dmap(u)
        if dmap.apply_to_leg(t, 0) != dmap.apply_to_leg(t, 1):
            witness = f"at u={u}"
            break
    report.add("coproduct-coassociative", witness is None, witness)

    witness = None
    for u in words + randoms:
        t = dmap(u)
        left = counit_collapse(t, 0)
        right = counit_collapse(t, 1)
        if left != u:
            witness = f"left counit law at u={u}: got {left}"
            break
        if right != u:
            witness = f"right counit law at u={u}: got {right}"
            break
    report.add("coproduct-counital", witness is None, witness)

    witness = None
    for _ in range(samples):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        if (u * v).counit() != u.counit() * v.counit():
            witness = f"at u={u}, v={v}"
            break
    report.add("counit-multiplicative", witness is None, witness)

    # leading terms of the coproduct of a pure word: all multiset splits
    # with multiplicity a product of binomial coefficients.  The top layer
    # is read from the rewriting path, not from the closed form in dmap().
    from collections import Counter

    witness = None
    for u in words:
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
            key: dmap.T2.algebra.const(mult) for key, mult in expected.items()
        }
        if top != want:
            witness = f"leading split of word {w} is off"
            break
    report.add("coproduct-leading-split", witness is None, witness)
    return report


def check_antipode(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 100,
                   max_word: int = 3, max_degree: int = 2) -> Report:
    """Both antipode convolution identities against the counit, and the
    anti-homomorphism property."""
    from . import sampling

    report = Report()
    dmap = standard_coproduct(S)
    rng = sampling.make_rng(seed)
    words = _unit_words(S, max_word)
    randoms = _sample_elements(S, rng, max(1, samples // 8), max_word, max_degree)

    witness = None
    for u in words + randoms:
        t = dmap(u)
        target = EnvElement.from_poly(S, S.algebra.const(u.counit()))
        left = antipode_convolution(t, 0)
        if left != target:
            witness = f"left antipode law at u={u}: got {left}, want {target}"
            break
        right = antipode_convolution(t, 1)
        if right != target:
            witness = f"right antipode law at u={u}: got {right}, want {target}"
            break
    report.add("antipode-convolution", witness is None, witness)

    witness = None
    for _ in range(samples):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        if antipode(u * v) != antipode(v) * antipode(u):
            witness = f"at u={u}, v={v}"
            break
    report.add("antipode-antihomomorphism", witness is None, witness)

    witness = None
    for u in words + randoms:
        if antipode(u).counit() != u.counit():
            witness = f"at u={u}"
            break
    report.add("antipode-preserves-counit", witness is None, witness)
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

    anti_A = coefficient_antipode
    if anti_A is None:
        anti_A = antipode_morphism(S.algebra)
    witness = None
    for i in range(S.rank):
        for g in range(S.algebra.ngens):
            a = S.algebra.gen(g)
            lhs = anti_A(S.anchor[i](a))
            rhs = S.anchor[i](anti_A(a))
            if lhs != rhs:
                witness = (
                    f"{S.basis_names[i]} on {S.algebra.gens[g].name}: "
                    f"antipode of the value is {lhs}, action on the antipode is {rhs}"
                )
                break
        if witness:
            break
    report.add("antipode-equivariance", witness is None, witness)

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

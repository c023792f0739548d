"""The universal enveloping algebra of a Lie-Rinehart structure.

Elements are kept in normal form: a finite sum of nondecreasing words in
the module basis, each with a coefficient from A written on the left.
Multiplication rewrites using two rules until normal:

  * a basis letter moves right past a coefficient, producing the
    derivative term:  e a -> a e + e(a);
  * an out-of-order adjacent pair swaps, producing the bracket term:
    e_j e_i -> e_i e_j - [e_j, e_i]  for j > i.

Both rules strictly decrease (word length, inversion count), so rewriting
terminates; the verification battery checks local confluence on all
minimal ambiguities, which is what makes the monomial basis free.

Products sum one flat accumulator, (word, exponents) -> rational, from
the rewriting memos up: `_word_times_gen` and `_word_times_monomial`
store (word, exponents, rational) triples, `_word_poly_word` walks them
into a flat dict, and `_product_into` multiplies in the left
coefficient's monomials as it sums, so no LaurentPoly and no nested
dict is built for a partial term.  The sums run on integers: the product
clears each operand's denominators by their lcm (`_common_denominator`,
`_cleared` of `algebra`, the helpers the legwise tensor product uses
too) and `_wrap` divides once while it groups the sum by word into
word -> LaurentPoly, dropping what cancelled and putting each
coefficient back in canonical form (an `int` when integral).  The
legwise tensor product of `hopf` sums the same way, its key a tuple of
words: its leg memo holds the same triples and `_wrap` wraps its sum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from . import sampling
from .algebra import (LaurentPoly, _cleared, _common_denominator, coeff_str,
                      counit_morphism)
from .lie_rinehart import LieRinehartAlgebra, LRElement
from .report import Report


def _add_term(acc: dict, word, coeff):
    if coeff.is_zero():
        return
    cur = acc.get(word)
    if cur is None:
        acc[word] = coeff
    else:
        s = cur + coeff
        if s.is_zero():
            del acc[word]
        else:
            acc[word] = s


def signed_sum(pieces) -> str:
    """Printed terms joined as `a + b - c`, a leading "-" of a later term
    becoming the operator; "0" when there are none."""
    pieces = iter(pieces)
    out = next(pieces, "0")
    for piece in pieces:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


class Combination:
    """A sparse sum over a structure: `terms` maps keys to coefficients in
    `algebra`.  The base of EnvElement, TensorEnvElement and MultiVector.

    Invariant of `terms`, kept by every constructor:
      * each key is one that the subclass's `_normal_key` returns;
      * each value is a nonzero LaurentPoly over `algebra`, whose own
        coefficients are canonical (an `int` when integral, otherwise a
        `Fraction`; see LaurentPoly).

    The constructor checks keys through `_normal_key`, converts scalar
    coefficients (an `int` or a `Fraction`), sums repeated keys and drops
    zeros.  Arithmetic builds its results with `_trusted`, which stores a
    dict that already satisfies the invariant without looking at it again;
    `terms` is never mutated once wrapped.  A product sums its partial
    terms flat (see the module docstring) and wraps the sum once, with
    `_wrap` and then `_trusted`.

    A subclass may add one slot, named by `_shape` and fixed at
    construction.  Operands must agree on it (tensors with different
    `legs` never mix), unless the class is `_graded`: then the slot grades
    one space (a multivector's `grade`), and a zero of any grade adds as
    the identity and equals every other zero."""

    __slots__ = ("structure", "terms")
    _shape = None
    _graded = False

    @classmethod
    def _trusted(cls, structure: LieRinehartAlgebra, terms: dict, shape=None):
        """Wrap `terms`, which must already satisfy the class invariant and
        must not be shared with code that will mutate it; `shape` is the
        value of the subclass's slot."""
        u = object.__new__(cls)
        u.structure = structure
        u.terms = terms
        if cls._shape:
            setattr(u, cls._shape, shape)
        return u

    def __init__(self, structure: LieRinehartAlgebra, terms: dict, shape=None):
        self.structure = structure
        if self._shape:
            setattr(self, self._shape, shape)
        algebra = self.algebra
        clean: dict = {}
        for key, c in terms.items():
            key = self._normal_key(key)
            if not isinstance(c, LaurentPoly):
                c = algebra.const(c)
            if c.algebra != algebra:
                raise ValueError("coefficient lives in the wrong algebra")
            _add_term(clean, key, c)
        self.terms = clean

    def _like(self, terms: dict):
        """A trusted combination with self's structure and shape."""
        return self._trusted(self.structure, terms,
                             getattr(self, self._shape) if self._shape else None)

    def _operand(self, other):
        """`other` as an operand of +, - and ==, or None."""
        return other if isinstance(other, type(self)) else None

    @property
    def algebra(self):
        """The coefficient algebra."""
        return self.structure.algebra

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _same_shape(self, other) -> bool:
        shape = self._shape
        return (shape is None or getattr(self, shape) == getattr(other, shape)
                or (self._graded and not (self.terms and other.terms)))

    def _check(self, other):
        if self.structure is not other.structure and self.structure != other.structure:
            raise ValueError(f"{type(self).__name__} operands over different structures")
        if not self._same_shape(other):
            raise ValueError(f"{type(self).__name__} operands with {self._shape} "
                             f"{getattr(self, self._shape)} and {getattr(other, self._shape)}")

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._check(other)
        if not self.terms:
            return other
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(acc, key, c)
        return self._like(acc)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, a):
        """a times every coefficient, for a scalar or a coefficient a."""
        if a.__class__ is not LaurentPoly:
            if isinstance(a, (int, Fraction)):
                return self._like({key: c * a for key, c in self.terms.items()} if a else {})
            if not isinstance(a, LaurentPoly):
                return NotImplemented
        if a.algebra != self.algebra:
            raise ValueError("coefficient lives in the wrong algebra")
        return self._like({key: a * c for key, c in self.terms.items()} if a else {})

    def __mul__(self, other):
        return self._scale(other) if isinstance(other, (int, Fraction)) else NotImplemented

    # scalars and coefficients multiply on the left coefficient-wise
    __rmul__ = _scale

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return (self.structure == other.structure and self._same_shape(other)
                and self.terms == other.terms)

    def __repr__(self):
        return f"<{self}>"


def _word_times_monomial(S: LieRinehartAlgebra, word, e) -> tuple:
    """Normal form of (word * y^e) for a nonempty normal word and a
    non-constant exponent tuple e, as (word, exponents, rational) triples.

    Memo key: (word, e) in `S._poly_cache`.  The coefficient of the
    monomial is not part of the key, since rewriting is linear over the
    rationals, and neither is the coefficient algebra, which the structure
    fixes.  With l the last letter and head the rest of the word,

        word * y^e = (head * y^e) l + head * l(y^e),

    and every word of head * y^e is a subword of head, so appending l
    needs no rewriting.  A miss first walks down the prefixes of the word,
    collecting the monomials each prefix must be multiplied by (a
    monomial already in the memo, or constant, stops the walk), then
    fills those entries from the shortest prefix up: no recursion, and a
    word of length L costs O(L) entries per monomial that the anchors
    reach from y^e."""
    memo = S._poly_cache
    hit = memo.get((word, e))
    if hit is not None:
        return hit
    A = S.algebra
    derived = {}  # (k, f) -> terms of l(y^f), l the k-th letter
    levels = []  # (k, the monomials f whose entry (word[:k], f) is missing)
    k, need = len(word), {e}
    while need:
        levels.append((k, need))
        below = set()
        for f in need:
            d = derived[(k, f)] = S.anchor[word[k - 1]](
                LaurentPoly._trusted(A, {f: 1})).terms
            below.add(f)
            below.update(d)
        k -= 1
        head = word[:k]
        need = {f for f in below if k and any(f) and (head, f) not in memo}

    def lookup(head, f):
        return memo[(head, f)] if head and any(f) else ((head, f, 1),)

    for k, need in reversed(levels):
        head, last = word[:k - 1], word[k - 1]
        for f in need:
            acc = {(u + (last,), g): x for u, g, x in lookup(head, f)}
            for g, c in derived[(k, f)].items():
                for u, h, x in lookup(head, g):
                    key, x = (u, h), x * c
                    acc[key] = acc[key] + x if key in acc else x
            memo[(word[:k], f)] = _frozen(acc)
    return memo[(word, e)]


def _frozen(acc: dict) -> tuple:
    """A finished flat sum as a memo entry: (word, exponents, rational)
    triples, without what cancelled, each rational canonical."""
    return tuple((u, e, x.numerator if x.denominator == 1 else x)
                 for (u, e), x in acc.items() if x)


def _wrap(A, acc: dict, d: int = 1) -> dict:
    """Group a flat sum (word, exponents) -> rational by word (or by
    word tuple, for a tensor), dividing each rational by d, into word ->
    LaurentPoly: what cancelled is dropped and integral values become
    ints."""
    out = {}
    for (u, e), x in acc.items():
        if x:
            if d != 1:
                x = Fraction(x, d) if x % d else x // d
            terms = out.get(u)
            if terms is None:
                terms = out[u] = {}
            terms[e] = x.numerator if x.denominator == 1 else x
    for u, terms in out.items():
        out[u] = LaurentPoly._trusted(A, terms)
    return out


def _word_poly_word(S: LieRinehartAlgebra, w, e, v) -> dict:
    """Normal form of (w * y^e * v) for normal words w, v and an exponent
    tuple e, as a fresh flat sum: (word, exponents) -> rational, some of
    which may have cancelled to zero.  Once a word's last letter is not
    above the next letter of v, the rest of v is appended without
    rewriting."""
    cur = _word_times_monomial(S, w, e) if w and any(e) else ((w, e, 1),)
    if not v:
        return {(u, g): x for u, g, x in cur}
    cur = [((u, g), x) for u, g, x in cur]
    done: dict = {}
    for t, letter in enumerate(v):
        nxt: dict = {}
        for (u, g), x in cur:
            if u and u[-1] > letter:
                for u2, h, y in _word_times_gen(S, u, letter):
                    key, y = (u2, tuple(map(add, g, h)) if any(h) else g), x * y
                    nxt[key] = nxt[key] + y if key in nxt else y
            else:
                key = (u + v[t:], g)
                done[key] = done[key] + x if key in done else x
        cur = nxt.items()
    for key, x in cur:
        done[key] = done[key] + x if key in done else x
    return done


def _product_into(out: dict, S: LieRinehartAlgebra, left: dict, right: dict,
                  d_left: int = 1, d_right: int = 1) -> None:
    """out += d_left d_right times the product of two sums of terms (word
    -> LaurentPoly), as a flat sum (see the module docstring), for d_left
    and d_right common denominators of their coefficients:
    (a w)(c y^e v) = c a (w y^e v) for each monomial c y^e of the right
    coefficient; coefficients stay on the left."""
    right = [(v, _cleared(b.terms, d_right).items()) for v, b in right.items()]
    for w, a in left.items():
        a = [(f if any(f) else None, x) for f, x in _cleared(a.terms, d_left).items()]
        for v, b in right:
            for e, c in b:
                for (u, g), p in _word_poly_word(S, w, e, v).items():
                    p *= c
                    for f, x in a:
                        key, x = (u, g) if f is None else (u, tuple(map(add, f, g))), x * p
                        out[key] = out[key] + x if key in out else x


def _is_one(u: "EnvElement") -> bool:
    """True when u is the constant 1."""
    c = u.terms.get(()) if len(u.terms) == 1 else None
    return c is not None and len(c.terms) == 1 and c.terms.get((0,) * c.algebra.ngens) == 1


def _word_times_gen(S: LieRinehartAlgebra, word, i: int) -> tuple:
    """Normal form of (word * e_i), as (word, exponents, rational)
    triples.  Cached per structure under (word, i).

    With j the last letter of the word and head the rest (j > i),

        head e_j e_i = (head e_i) e_j + head [e_j, e_i].

    A miss first finds the shortest prefix of the word whose entry is
    missing, then fills the entries from that prefix up to the word, so
    each swap finds (head, i) in the cache: no recursion along the word.
    The bracket term is summed one monomial c y^e of each bracket
    coefficient at a time, as c (head y^e e_letter) from `_word_poly_word`,
    the path the product takes."""
    if not word or word[-1] <= i:
        return ((word + (i,), (0,) * S.algebra.ngens, 1),)
    cache = S._nf_cache
    hit = cache.get((word, i))
    if hit is not None:
        return hit
    k = len(word) - 1
    while k and word[k - 1] > i and (word[:k], i) not in cache:
        k -= 1
    for n in range(k + 1, len(word) + 1):
        head, j = word[:n - 1], word[n - 1]
        acc: dict = {}  # (word, exponents) -> rational
        for u, g, x in _word_times_gen(S, head, i):
            for v, h, y in _word_times_gen(S, u, j):
                key, y = (v, tuple(map(add, g, h)) if any(h) else g), x * y
                acc[key] = acc[key] + y if key in acc else y
        for letter, b in enumerate(S.bracket_of_basis(j, i).coeffs):
            for e, c in b.terms.items():
                for key, x in _word_poly_word(S, head, e, (letter,)).items():
                    x *= c
                    acc[key] = acc[key] + x if key in acc else x
        cache[(word[:n], i)] = _frozen(acc)
    return cache[(word, i)]


def _normal_word(structure: LieRinehartAlgebra, word) -> tuple:
    """`word` as a tuple, checked to be nondecreasing in the letters 0 .. rank-1."""
    word = tuple(word)
    if any(word[t] > word[t + 1] for t in range(len(word) - 1)):
        raise ValueError(f"word {word} is not nondecreasing")
    if any(not (0 <= i < structure.rank) for i in word):
        raise ValueError(f"word {word} uses letters outside the basis")
    return word


class EnvElement(Combination):
    """An element of the enveloping algebra in normal form: a Combination
    whose keys are normal (nondecreasing) words in the basis letters, with
    coefficients from A on the left.  Scalars and coefficients embed in
    sums and comparisons; the product rewrites to normal form."""

    __slots__ = ()

    def _normal_key(self, word):
        return _normal_word(self.structure, word)

    def _operand(self, other):
        # the class test first: Fraction's metaclass is an ABCMeta, so the
        # isinstance test is costly when it fails
        if other.__class__ is not EnvElement and isinstance(other, (int, Fraction, LaurentPoly)):
            return EnvElement.from_poly(self.structure, other)
        return super()._operand(other)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, structure) -> "EnvElement":
        return cls(structure, {})

    @classmethod
    def one(cls, structure) -> "EnvElement":
        return cls(structure, {(): structure.algebra.one()})

    @classmethod
    def from_poly(cls, structure, p) -> "EnvElement":
        """The canonical image of a coefficient or a scalar."""
        return cls(structure, {(): p})

    @classmethod
    def from_lr(cls, x: LRElement) -> "EnvElement":
        """The canonical image of a module element."""
        S = x.structure
        return cls(S, {(i,): c for i, c in enumerate(x.coeffs) if not c.is_zero()})

    @classmethod
    def generator(cls, structure, i: int) -> "EnvElement":
        return cls(structure, {(i,): structure.algebra.one()})

    # -- structure -----------------------------------------------------------

    def filtration_degree(self) -> int:
        """Length of the longest word; -1 for zero."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def filtration_layer(self, p: int) -> "EnvElement":
        return self._like({w: c for w, c in self.terms.items() if len(w) == p})

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if other.__class__ is not EnvElement:
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            other = self._operand(other)
            if other is None:
                return NotImplemented
        self._check(other)
        # a product by the constant 1 is the other factor itself
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        S = self.structure
        d_left = _common_denominator(self.terms.values())
        d_right = _common_denominator(other.terms.values())
        result: dict = {}
        _product_into(result, S, self.terms, other.terms, d_left, d_right)
        return EnvElement._trusted(S, _wrap(S.algebra, result, d_left * d_right))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = EnvElement.one(self.structure)
        for _ in range(n):
            out = out * self
        return out

    # -- the action on coefficients -------------------------------------------

    def act_on_A(self, p: LaurentPoly) -> LaurentPoly:
        """The representation on A extending the anchor: a word acts as the
        composite of its letters' derivations, leftmost outermost, and the
        coefficient multiplies the result."""
        if p.algebra != self.structure.algebra:
            raise ValueError("argument lives in the wrong algebra")
        out = self.structure.algebra.zero()
        for w, a in self.terms.items():
            q = p
            for letter in reversed(w):
                q = self.structure.anchor[letter](q)
                if q.is_zero():
                    break
            if not q.is_zero():
                out = out + a * q
        return out

    def counit(self) -> Fraction:
        """Coefficient counit of the empty-word part; words die."""
        empty = self.terms.get((), self.structure.algebra.zero())
        return counit_morphism(self.structure.algebra)(empty).as_constant()

    # -- printing --------------------------------------------------------------

    def _word_str(self, word) -> str:
        if not word:
            return ""
        parts = []
        for letter, run in itertools.groupby(word):
            count = len(list(run))
            name = self.structure.basis_names[letter]
            parts.append(name if count == 1 else f"{name}^{count}")
        return "*".join(parts)

    def __str__(self):
        ordered = sorted(
            self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]), reverse=True
        )
        pieces = []
        for w, c in ordered:
            ws = self._word_str(w)
            cs = coeff_str(c)
            if not ws:
                piece = cs
            elif cs == "1":
                piece = ws
            elif cs == "-1":
                piece = "-" + ws
            else:
                piece = f"{cs}*{ws}"
            pieces.append(piece)
        return signed_sum(pieces)


# -- verification batteries ----------------------------------------------------


def check_pbw(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 500,
              max_word: int = 3, max_degree: int = 2, max_layer: int = 5) -> Report:
    """Certify the normal-form basis.

    * every minimal rewriting ambiguity resolves to the same normal form
      (letter triples, and letter pairs over a coefficient generator);
    * random products associate;
    * for each length p <= max_layer the fully reversed products reduce to
      their sorted word with leading coefficient one, and the number of
      normal words is the stars-and-bars count.
    """
    report = Report()
    m = S.rank
    E = lambda i: EnvElement.generator(S, i)

    def letter_triple(i, j, k):
        # letters arrive as e_i e_j e_k with i > j > k
        left = (E(i) * E(j)) * E(k)
        right = E(i) * (E(j) * E(k))
        if left != right:
            names = tuple(S.basis_names[t] for t in (i, j, k))
            return f"letter triple {names}: {left} != {right}"

    def pair_over_generator(i, j, g):
        a = EnvElement.from_poly(S, S.algebra.gen(g))
        left = (E(i) * E(j)) * a
        right = E(i) * (E(j) * a)
        if left != right:
            return (
                f"pair ({S.basis_names[i]}, {S.basis_names[j]}) over "
                f"{S.algebra.gens[g].name}: {left} != {right}"
            )

    triples = (
        (letter_triple, (i, j, k))
        for i in range(m) for j in range(i) for k in range(j)
    )
    pairs = (
        (pair_over_generator, (i, j, g))
        for i in range(m) for j in range(i) for g in range(S.algebra.ngens)
    )
    # the pairs over a generator are tried only when every triple resolves
    report.law("critical-pairs", itertools.chain(triples, pairs),
               lambda case: case[0](*case[1]))

    rng = sampling.make_rng(seed)

    def associative(_):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        w = sampling.random_env_element(rng, S, max_word, max_degree)
        if (u * v) * w != u * (v * w):
            return f"at u={u}, v={v}, w={w}"

    report.law("random-associativity", range(samples), associative)

    def layer(p):
        words = list(itertools.combinations_with_replacement(range(m), p))
        expected = math.comb(p + m - 1, p)
        if len(words) != expected:
            return f"layer {p} has {len(words)} words, expected {expected}"
        for w in words:
            product = EnvElement.one(S)
            for letter in reversed(w):
                product = product * E(letter)
            top = product.filtration_layer(p)
            if top != EnvElement(S, {w: S.algebra.one()}):
                return (
                    f"reversed product of {w} has leading part {top}, "
                    f"expected the sorted word"
                )

    report.law("layer-dimensions", range(1, max_layer + 1), layer)

    # leading terms multiply like the symmetric algebra
    def graded(_):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        du, dv = u.filtration_degree(), v.filtration_degree()
        if du < 0 or dv < 0:
            return None
        prod_top = (u * v).filtration_layer(du + dv)
        expected_terms: dict = {}
        for w, a in u.filtration_layer(du).terms.items():
            for x, b in v.filtration_layer(dv).terms.items():
                _add_term(expected_terms, tuple(sorted(w + x)), a * b)
        if prod_top != EnvElement(S, expected_terms):
            return f"graded product mismatch at u={u}, v={v}"

    report.law("graded-product", range(max(10, samples // 10)), graded)
    return report


def check_action(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 200,
                 max_word: int = 3, max_degree: int = 2) -> Report:
    """The enveloping algebra acts on coefficients: unital, extends the
    anchor, and turns products into composites."""
    report = Report()
    rng = sampling.make_rng(seed)

    def unital(_):
        a = sampling.random_poly(rng, S.algebra, max_degree)
        if EnvElement.one(S).act_on_A(a) != a:
            return f"1 acts as {EnvElement.one(S).act_on_A(a)} on {a}"

    def extends_anchor(_):
        x = sampling.random_lr_element(rng, S, max_degree)
        a = sampling.random_poly(rng, S.algebra, max_degree)
        if EnvElement.from_lr(x).act_on_A(a) != x.act(a):
            return f"at x={x}, a={a}"

    def composes(_):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        a = sampling.random_poly(rng, S.algebra, max_degree)
        lhs = (u * v).act_on_A(a)
        rhs = u.act_on_A(v.act_on_A(a))
        if lhs != rhs:
            return f"at u={u}, v={v}, a={a}: {lhs} != {rhs}"

    report.law("action-unital", range(samples), unital)
    report.law("action-extends-anchor", range(samples), extends_anchor)
    report.law("action-composes", range(samples), composes)
    return report

"""The universal enveloping algebra of a Lie-Rinehart structure.

Elements are kept in normal form: a finite sum of nondecreasing words in
the module basis, each with a coefficient from A written on the left, an
`EnvElement` being the sparse `Combination` of `lie_rinehart` keyed by
those words.  Multiplication rewrites using two rules until normal:

  * a basis letter moves right past a coefficient, producing the
    derivative term:  e a -> a e + e(a);
  * an out-of-order adjacent pair swaps, producing the bracket term:
    e_j e_i -> e_i e_j - [e_j, e_i]  for j > i.

Both rules strictly decrease (word length, inversion count), so rewriting
terminates; the verification battery checks local confluence on all
minimal ambiguities, which is what makes the monomial basis free.  A
coefficient moves past a whole run of one letter at once, by the first
rule's closed form  x^n a = sum over k of C(n, k) x^k(a) x^(n-k).

Inside the rewriting kernel an exponent vector is one int, packed: a
signed field of `_FIELD` bits per generator, e packed as the sum of
e_i 2^(_FIELD i) (`_Packing`).  Packing is linear, so adding two packed
ints adds the vectors, the zero vector packs to 0, and the vector of a
tensor leg l lands in its place of the concatenated vector by a shift of
n _FIELD l bits, n the number of generators.  Each algebra keeps its
pack memo (exponent tuple -> int) and unpack memo (int -> exponent
tuple) in `A._memo` (`_packing`).  Public values keep exponent tuples:
an operand's monomials are packed where they enter the kernel and a
result's are unpacked where `_wrap` builds its LaurentPolys.

Rewriting is memoized per structure, in four memos that fill lazily and
are never evicted: each grows without bound while its structure lives
(a library caller that keeps one structure keeps every entry its
products made) and dies with it; none is module-level.

  * `S._poly_cache`, the coefficient push (`_word_times_monomial`):
    (word, e) -> word * y^e as a tuple of (word, packed exponents,
    rational) triples, one entry per push, pushed through the word run by
    run;
  * `S._nf_cache`, the letter swap (`_word_times_gen`): (word, i) ->
    word * e_i as the same triples;
  * `S._word_cache`, word times word (`_word_times_word`): (u, v) -> u * v
    for u[-1] > v[0] and v of two letters or more, as one flat tuple
    (u0, p0, x0, u1, p1, x1, ...) whose words and packed exponents are
    interned through `S._word_pool`; a one-letter v reads `_nf_cache`;
  * `S._tensor_cache["legs"]`, the leg memo of the legwise tensor
    product (`hopf`): (e, v) -> a row w -> w * y^e * v as triples whose
    words are wrapped in one-word tuples, ((word,), packed, rational);
  the antipode memo (`hopf`) sits on top: `S._tensor_cache["antipode"]`,
  (w, e) -> S(y^e w) as (word, packed exponents, rational) triples.

Products sum one accumulator grouped by word as it goes, word -> packed
exponents -> rational, from the rewriting memos up: `_word_poly_word`
follows each term y^g u of the `(w, e)` entry by the `(u, v)` entry with
its exponents shifted by g, and sums each term it reaches straight into
the caller's accumulator, once per monomial of a left coefficient and
times a rational, so no LaurentPoly and no dict is built for a partial
term.  It is the one implementation of w y^e v: `_product_into` passes
it the left coefficient's packed monomials and the right monomial's
rational, the bracket term of `_word_times_gen` a bracket coefficient's
rational, the antipode memo and convolution of `hopf` a memo entry's
terms, and the leg memo of `hopf` neither.  The sums run on integers:
the product clears each operand's denominators by their lcm
(`_common_denominator`, `_cleared` of `algebra`, the helpers the legwise
tensor product uses too) and `_wrap` divides once per summed value,
dropping what cancelled, unpacking the exponents and putting each
coefficient back in canonical form (an `int` when integral), one
LaurentPoly per word.  The legwise tensor product of `hopf` sums the
same way, its key a tuple of words: its leg memo holds the same
triples, each word wrapped in a one-word tuple, and `_wrap` wraps its
sum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import sampling
from .algebra import (LaurentPoly, _cleared, _common_denominator, coeff_str,
                      counit_morphism)
from .lie_rinehart import (Combination, LieRinehartAlgebra, LRElement, _add_term,
                           signed_sum)
from .report import Report

# bits per generator in a packed exponent vector; an exponent the kernel
# stores lies in [-_SPAN, _SPAN), an eighth of the field's range
_FIELD = 32
_SPAN = 1 << (_FIELD - 3)


class _Packing(dict):
    """The pack memo of one algebra with n generators: exponent tuple ->
    packed int, filled on a miss; `unpack` is the inverse memo.

    Why a field cannot overflow: every packed value the kernel stores,
    an operand's monomial or a memo entry's term, has each exponent in
    [-_SPAN, _SPAN).  A miss here refuses a tuple outside that range with
    a ValueError, and a memo entry summed from packed values is checked
    (`checked`) as it is frozen.  A kernel sum adds at most three stored
    values per field (a left monomial, a push term and a word product
    term; the tensor layer adds two, its legs lying in disjoint fields),
    so each field of a sum stays in [-3 _SPAN, 3 _SPAN), inside the
    field's [-4 _SPAN, 4 _SPAN), and the packed sum is the exact sum of
    the vectors.  A product's exponents may thus reach beyond _SPAN; such
    a value is refused when it is packed again as an operand."""

    __slots__ = ("unpack", "_bias", "_spill")

    def __init__(self, n: int):
        super().__init__()
        self.unpack = _Unpack(n)
        ones = sum(1 << (_FIELD * i) for i in range(n))
        # a vector lies in range when adding _SPAN to each field leaves
        # every field below 2 _SPAN: no bit of _spill set, none above
        self._bias = _SPAN * ones
        self._spill = ~((2 * _SPAN - 1) * ones)

    def __missing__(self, e) -> int:
        p = 0
        for x in reversed(e):
            if not -_SPAN <= x < _SPAN:
                raise ValueError(f"exponent {x} is outside the packable range "
                                 f"[-2^{_FIELD - 3}, 2^{_FIELD - 3})")
            p = (p << _FIELD) + x
        self[e] = p
        return p

    def checked(self, p: int) -> int:
        """p, a packed sum of at most three values in range, once each of
        its exponents is found in range."""
        if (p + self._bias) & self._spill:
            raise ValueError(f"exponents {self.unpack[p]} are outside the packable range "
                             f"[-2^{_FIELD - 3}, 2^{_FIELD - 3})")
        return p


class _Unpack(dict):
    """The unpack memo of one algebra with n generators: packed int ->
    exponent tuple, filled on a miss, which reads the fields from the
    lowest up; a field whose top bit is set is negative."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, p: int) -> tuple:
        e, q, mask, sign = [], p, (1 << _FIELD) - 1, 1 << (_FIELD - 1)
        for _ in range(self.n):
            x = q & mask
            if x & sign:
                x -= 1 << _FIELD
            e.append(x)
            q = (q - x) >> _FIELD
        e = self[p] = tuple(e)
        return e


def _packing(A) -> _Packing:
    """The pack memo of the algebra A, kept in `A._memo`."""
    memo = A._memo.get("packing")
    if memo is None:
        memo = A._memo["packing"] = _Packing(A.ngens)
    return memo


def _leg_shift(A, leg: int) -> int:
    """The shift that moves a packed exponent vector of A to leg `leg` of
    a packed vector of a tensor power of A, whose slots are copy-major."""
    return A.ngens * _FIELD * leg


def _sum_into(acc: dict, u, g: int, x) -> None:
    """acc += x y^g u, for a sum grouped by word: word -> packed exponents
    -> rational."""
    sums = acc.setdefault(u, {})
    sums[g] = sums[g] + x if g in sums else x


def _word_times_monomial(S: LieRinehartAlgebra, word, e) -> tuple:
    """Normal form of (word * y^e) for a nonempty normal word and a
    nonzero exponent tuple e, as (word, packed exponents, rational) triples.

    Memo key: (word, e) in `S._poly_cache`.  The coefficient of the
    monomial is not part of the key, since rewriting is linear over the
    rationals, and neither is the coefficient algebra, which the structure
    fixes.  y^e moves left through the runs of the word, the last run
    first, by the closed form of the Leibniz rule over a run x^n,

        x^n b = sum over k of C(n, k) x^k(b) x^(n-k),

    x^k(b) the anchor of x applied k times (a term stops once it is 0).
    What a term leaves of each run keeps the runs' order, so every word
    is normal as it stands; the cost follows the number of terms."""
    memo = S._poly_cache
    hit = memo.get((word, e))
    if hit is not None:
        return hit
    # what the terms keep of the runs pushed through so far -> the
    # product of their binomials and the coefficient standing left of it
    pushed = {(): (1, LaurentPoly._trusted(S.algebra, {e: 1}))}
    for x, run in itertools.groupby(reversed(word)):
        n, anchor, nxt = len(list(run)), S.anchor[x], {}
        for tail, (c, b) in pushed.items():
            for k in range(n + 1):
                if k:
                    b = anchor(b)
                    if not b:
                        break
                nxt[(x,) * (n - k) + tail] = c * math.comb(n, k), b
        pushed = nxt
    pack = _packing(S.algebra)
    hit = memo[(word, e)] = _frozen(pack, {
        u: {pack[g]: c * x for g, x in b.terms.items()} for u, (c, b) in pushed.items()})
    return hit


def _frozen(pack: _Packing, acc: dict) -> tuple:
    """A finished sum grouped by word as a memo entry: (word, packed
    exponents, rational) triples, without what cancelled, each rational
    canonical and each exponent checked to be in range (see `_Packing`)."""
    checked = pack.checked
    return tuple((u, checked(g), x.numerator if x.denominator == 1 else x)
                 for u, sums in acc.items() for g, x in sums.items() if x)


def _wrap(A, acc: dict, d: int = 1) -> dict:
    """A sum grouped by word (or by word tuple, for a tensor), word ->
    packed exponents -> rational, as word -> LaurentPoly over A: each
    rational divided by d, what cancelled dropped, exponents unpacked and
    integral values made ints."""
    unpack = _packing(A).unpack
    out = {}
    for u, sums in acc.items():
        # a loop, not a comprehension: most words have one or two monomials
        terms = {}
        for g, x in sums.items():
            if x:
                if d != 1:
                    x = Fraction(x, d) if x % d else x // d
                terms[unpack[g]] = x.numerator if x.denominator == 1 else x
        if terms:
            out[u] = LaurentPoly._trusted(A, terms)
    return out


def _word_poly_word(out: dict, S: LieRinehartAlgebra, w, e, p: int, v,
                    left=((0, 1),), c=1) -> None:
    """out += left * (w * y^e * v) * c, for normal words w, v, an exponent
    tuple e and its packed exponents p, a rational c and left the
    monomials (packed exponents, rational) of a coefficient, into the sum
    out grouped by word: word -> packed exponents -> rational.  Each term
    y^g u of w * y^e (the `S._poly_cache` entry) is followed by u * v:
    the `_word_times_word` entry with its exponents shifted by g, or u v
    itself when the last letter of u is not above the first letter of v;
    each term of it is summed straight into out once per left monomial."""
    cur = _word_times_monomial(S, w, e) if w and p else ((w, p, 1),)
    for u, g, x in cur:
        x *= c
        if v and u and u[-1] > v[0]:
            for u2, h, y in _word_times_word(S, u, v):
                g2, y = g + h, x * y
                sums = out.setdefault(u2, {})
                for f, a in left:
                    key, a = f + g2, a * y
                    sums[key] = sums[key] + a if key in sums else a
        else:
            sums = out.setdefault(u + v, {})
            for f, a in left:
                key, a = f + g, a * x
                sums[key] = sums[key] + a if key in sums else a


def _word_times_word(S: LieRinehartAlgebra, u, v):
    """Normal form of (u * v) for normal words u, v with u[-1] > v[0], as
    an iterable of (word, packed exponents, rational) triples.

    A one-letter v reads `_word_times_gen`'s entry (u, v[0]).  A longer v
    is memoized per structure in `S._word_cache` under (u, v), as one flat
    tuple (u0, p0, x0, u1, p1, x1, ...) whose words and packed exponents
    are interned through `S._word_pool`, so equal ones in different
    entries are one object.  A miss walks v into u one letter at a time
    by `_word_times_gen`, checking each summed exponent (see `_Packing`);
    once a word's last letter is not above the next letter of v, the
    rest of v is appended without rewriting."""
    if len(v) == 1:
        return _word_times_gen(S, u, v[0])
    memo = S._word_cache
    hit = memo.get((u, v))
    if hit is None:
        pack = _packing(S.algebra)
        cur = ((u, 0, 1),)
        done: dict = {}  # word -> packed exponents -> rational
        for t, letter in enumerate(v):
            nxt: dict = {}
            for w, g, x in cur:
                if w and w[-1] > letter:
                    for w2, h, y in _word_times_gen(S, w, letter):
                        _sum_into(nxt, w2, pack.checked(g + h), x * y)
                else:
                    _sum_into(done, w + v[t:], g, x)
            cur = [(w, g, x) for w, sums in nxt.items() for g, x in sums.items() if x]
        for w, g, x in cur:
            _sum_into(done, w, g, x)
        pool = S._word_pool
        flat = []
        for w, g, x in _frozen(pack, done):
            flat += (pool.setdefault(w, w), pool.setdefault(g, g), x)
        hit = memo[(u, v)] = tuple(flat)
    it = iter(hit)
    return zip(it, it, it)


def _product_into(out: dict, S: LieRinehartAlgebra, left: dict, right: dict,
                  d_left: int, d_right: int) -> None:
    """out += d_left d_right times the product of two sums of terms (word
    -> LaurentPoly), as a sum grouped by word (see the module docstring),
    for d_left and d_right common denominators of their coefficients:
    (a w)(c y^e v) = c a (w y^e v) for each monomial c y^e of the right
    coefficient; coefficients stay on the left."""
    pack = _packing(S.algebra)
    right = [(v, _cleared(b.terms, d_right).items()) for v, b in right.items()]
    for w, a in left.items():
        a = [(pack[f], x) for f, x in _cleared(a.terms, d_left).items()]
        for v, b in right:
            for e, c in b:
                _word_poly_word(out, S, w, e, pack[e], v, a, c)


def _is_one(u: "EnvElement") -> bool:
    """True when u is the constant 1."""
    c = u.terms.get(()) if len(u.terms) == 1 else None
    return c is not None and len(c.terms) == 1 and c.terms.get((0,) * c.algebra.ngens) == 1


def _word_times_gen(S: LieRinehartAlgebra, word, i: int) -> tuple:
    """Normal form of (word * e_i), as (word, packed exponents, rational)
    triples.  Cached per structure under (word, i).

    With j the last letter of the word and head the rest (j > i),

        head e_j e_i = (head e_i) e_j + head [e_j, e_i].

    A miss first finds the shortest prefix of the word whose entry is
    missing, then fills the entries from that prefix up to the word, so
    each swap finds (head, i) in the cache: no recursion along the word.
    The bracket term sums c (head y^e e_letter) for each monomial c y^e
    of each bracket coefficient, by `_word_poly_word` straight into the
    entry's sum, the path the product takes."""
    if not word or word[-1] <= i:
        return ((word + (i,), 0, 1),)
    cache = S._nf_cache
    hit = cache.get((word, i))
    if hit is not None:
        return hit
    k = len(word) - 1
    while k and word[k - 1] > i and (word[:k], i) not in cache:
        k -= 1
    pack = _packing(S.algebra)
    for n in range(k + 1, len(word) + 1):
        head, j = word[:n - 1], word[n - 1]
        acc: dict = {}  # word -> packed exponents -> rational
        for u, g, x in _word_times_gen(S, head, i):
            for v, h, y in _word_times_gen(S, u, j):
                _sum_into(acc, v, g + h, x * y)
        for letter, b in S.bracket_of_basis(j, i).terms.items():
            for e, c in b.terms.items():
                _word_poly_word(acc, S, head, e, pack[e], (letter,), c=c)
        cache[(word[:n], i)] = _frozen(pack, acc)
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
        return cls(x.structure, {(i,): c for i, c in x.terms.items()})

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
        """Coefficient counit of the empty-word part; words die.  Each
        monomial's counit is read from the counit morphism's memo (an
        image in Q is {(): value} or 0) and summed with its coefficient."""
        empty = self.terms.get(())
        if empty is None:
            return Fraction(0)
        image = counit_morphism(self.structure.algebra)._monomial_image
        return Fraction(sum(c * image(e).terms.get((), 0) for e, c in empty.terms.items()))

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

    # the reversed products of the layer before: the reversed product of w
    # is that of w[1:] times E(w[0]), associated as if multiplied out from
    # 1; the last layer's are not kept
    reversed_products = {(): EnvElement.one(S)}

    def layer(p):
        nonlocal reversed_products
        words = list(itertools.combinations_with_replacement(range(m), p))
        expected = math.comb(p + m - 1, p)
        if len(words) != expected:
            return f"layer {p} has {len(words)} words, expected {expected}"
        previous, reversed_products = reversed_products, {}
        for w in words:
            product = previous[w[1:]] * E(w[0])
            if p < max_layer:
                reversed_products[w] = product
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

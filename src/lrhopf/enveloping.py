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
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import LaurentPoly, coeff_str, counit_morphism
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


def _word_times_poly(S: LieRinehartAlgebra, word, b: LaurentPoly) -> dict:
    """Normal form of (word * b): push the coefficient to the left.

    Every output word is a subword of the input, so ordering is preserved.
    Anchors are derivations and kill constants, so a constant b passes
    through unchanged.
    """
    if b.is_zero():
        return {}
    if not word or b.is_constant():
        return {word: b}
    head, last = word[:-1], word[-1]
    acc: dict = {}
    for u, p in _word_times_poly(S, head, b).items():
        _add_term(acc, u + (last,), p)
    derived = S.anchor[last](b)
    if not derived.is_zero():
        for u, p in _word_times_poly(S, head, derived).items():
            _add_term(acc, u, p)
    return acc


def _word_poly_word(S: LieRinehartAlgebra, w, b: LaurentPoly, v) -> dict:
    """Normal form of (w * b * v) for normal words w, v.  A letter that is
    not below the last letter of a word is appended without rewriting."""
    cur = _word_times_poly(S, w, b)
    for letter in v:
        nxt: dict = {}
        for u, p in cur.items():
            if not u or u[-1] <= letter:
                _add_term(nxt, u + (letter,), p)
                continue
            for u2, q in _word_times_gen(S, u, letter).items():
                _add_term(nxt, u2, p * q)
        cur = nxt
    return cur


def _word_times_gen(S: LieRinehartAlgebra, word, i: int) -> dict:
    """Normal form of (word * e_i).  Cached per structure."""
    if not word or word[-1] <= i:
        return {word + (i,): S.algebra.one()}
    key = (word, i)
    hit = S._nf_cache.get(key)
    if hit is not None:
        return hit
    head, j = word[:-1], word[-1]  # j > i
    acc: dict = {}
    # swap:  head e_j e_i = (head e_i) e_j + head [e_j, e_i]
    for u, p in _word_times_gen(S, head, i).items():
        for v, q in _word_times_gen(S, u, j).items():
            _add_term(acc, v, p * q)
    correction = S.bracket_of_basis(j, i)
    for k, c in enumerate(correction.coeffs):
        if c.is_zero():
            continue
        for u, p in _word_times_poly(S, head, c).items():
            for v, q in _word_times_gen(S, u, k).items():
                _add_term(acc, v, p * q)
    S._nf_cache[key] = acc
    return acc


class EnvElement:
    """An element of the enveloping algebra in normal form: a map from
    nondecreasing index words to left coefficients.

    Invariant of `terms`, kept by every constructor:
      * each key is a normal (nondecreasing) word in the basis letters
        0 .. rank-1;
      * each value is a nonzero LaurentPoly over the structure's algebra.

    The constructor checks its input, converts scalar coefficients and
    sums repeated keys.  The product builds its result with `_trusted`,
    which stores a dict that already satisfies the invariant without
    looking at it again."""

    __slots__ = ("structure", "terms")

    @classmethod
    def _trusted(cls, structure: LieRinehartAlgebra, terms: dict) -> "EnvElement":
        """Wrap `terms`, which must already satisfy the class invariant and
        must not be shared with code that will mutate it."""
        u = object.__new__(cls)
        u.structure = structure
        u.terms = terms
        return u

    def __init__(self, structure: LieRinehartAlgebra, terms: dict):
        clean = {}
        for word, c in terms.items():
            word = tuple(word)
            if any(word[t] > word[t + 1] for t in range(len(word) - 1)):
                raise ValueError(f"word {word} is not nondecreasing")
            if any(not (0 <= i < structure.rank) for i in word):
                raise ValueError(f"word {word} uses letters outside the basis")
            if not isinstance(c, LaurentPoly):
                c = structure.algebra.const(c)
            if c.algebra != structure.algebra:
                raise ValueError("coefficient lives in the wrong algebra")
            if not c.is_zero():
                clean[word] = clean.get(word, structure.algebra.zero()) + c
        self.structure = structure
        self.terms = {w: c for w, c in clean.items() if not c.is_zero()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, structure) -> "EnvElement":
        return cls(structure, {})

    @classmethod
    def one(cls, structure) -> "EnvElement":
        return cls(structure, {(): structure.algebra.one()})

    @classmethod
    def from_poly(cls, structure, p) -> "EnvElement":
        """The canonical image of a coefficient."""
        if not isinstance(p, LaurentPoly):
            p = structure.algebra.const(p)
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

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def filtration_degree(self) -> int:
        """Length of the longest word; -1 for zero."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def filtration_layer(self, p: int) -> "EnvElement":
        return EnvElement(
            self.structure, {w: c for w, c in self.terms.items() if len(w) == p}
        )

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "EnvElement"):
        if self.structure is not other.structure and self.structure != other.structure:
            raise ValueError("elements of different enveloping algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = EnvElement.from_poly(self.structure, other)
        self._check(other)
        acc = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(acc, w, c)
        return EnvElement(self.structure, acc)

    __radd__ = __add__

    def __neg__(self):
        return EnvElement(self.structure, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = EnvElement.from_poly(self.structure, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return EnvElement(
                self.structure, {w: c * other for w, c in self.terms.items()}
            )
        if isinstance(other, LaurentPoly):
            other = EnvElement.from_poly(self.structure, other)
        if not isinstance(other, EnvElement):
            return NotImplemented
        self._check(other)
        S = self.structure
        result: dict = {}
        for w, a in self.terms.items():
            for v, b in other.terms.items():
                # (a w)(b v) = a (w b v), coefficients stay on the left
                for u, p in _word_poly_word(S, w, b, v).items():
                    _add_term(result, u, a * p)
        return EnvElement._trusted(S, result)

    def __rmul__(self, other):
        # scalars and coefficients commute past nothing: they multiply on
        # the left, which on normal forms is coefficient-wise
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, LaurentPoly):
            if other.algebra != self.structure.algebra:
                raise ValueError("coefficient lives in the wrong algebra")
            return EnvElement(
                self.structure, {w: other * c for w, c in self.terms.items()}
            )
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = EnvElement.one(self.structure)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = EnvElement.from_poly(self.structure, other)
        if not isinstance(other, EnvElement):
            return NotImplemented
        return self.structure == other.structure and self.terms == other.terms

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
        eps = counit_morphism(self.structure.algebra)
        c = self.terms.get(())
        if c is None:
            return Fraction(0)
        return eps(c).as_constant()

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
        if not self.terms:
            return "0"
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
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self):
        return f"<{self}>"


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
    from . import sampling

    report = Report()
    m = S.rank
    E = lambda i: EnvElement.generator(S, i)

    witness = None
    for i in range(m):
        for j in range(i):
            for k in range(j):
                # letters arrive as e_i e_j e_k with i > j > k
                left = (E(i) * E(j)) * E(k)
                right = E(i) * (E(j) * E(k))
                if left != right:
                    names = tuple(S.basis_names[t] for t in (i, j, k))
                    witness = f"letter triple {names}: {left} != {right}"
                    break
            if witness:
                break
        if witness:
            break
    if witness is None:
        for i in range(m):
            for j in range(i):
                for g in range(S.algebra.ngens):
                    a = EnvElement.from_poly(S, S.algebra.gen(g))
                    left = (E(i) * E(j)) * a
                    right = E(i) * (E(j) * a)
                    if left != right:
                        witness = (
                            f"pair ({S.basis_names[i]}, {S.basis_names[j]}) over "
                            f"{S.algebra.gens[g].name}: {left} != {right}"
                        )
                        break
                if witness:
                    break
            if witness:
                break
    report.add("critical-pairs", witness is None, witness)

    rng = sampling.make_rng(seed)
    witness = None
    for _ in range(samples):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        w = sampling.random_env_element(rng, S, max_word, max_degree)
        if (u * v) * w != u * (v * w):
            witness = f"at u={u}, v={v}, w={w}"
            break
    report.add("random-associativity", witness is None, witness)

    witness = None
    for p in range(1, max_layer + 1):
        words = list(itertools.combinations_with_replacement(range(m), p))
        expected = math.comb(p + m - 1, p)
        if len(words) != expected:
            witness = f"layer {p} has {len(words)} words, expected {expected}"
            break
        for w in words:
            product = EnvElement.one(S)
            for letter in reversed(w):
                product = product * E(letter)
            top = product.filtration_layer(p)
            if top != EnvElement(S, {w: S.algebra.one()}):
                witness = (
                    f"reversed product of {w} has leading part {top}, "
                    f"expected the sorted word"
                )
                break
        if witness:
            break
    report.add("layer-dimensions", witness is None, witness)

    # leading terms multiply like the symmetric algebra
    witness = None
    for _ in range(max(10, samples // 10)):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        du, dv = u.filtration_degree(), v.filtration_degree()
        if du < 0 or dv < 0:
            continue
        prod_top = (u * v).filtration_layer(du + dv)
        expected_terms: dict = {}
        for w, a in u.filtration_layer(du).terms.items():
            for x, b in v.filtration_layer(dv).terms.items():
                _add_term(expected_terms, tuple(sorted(w + x)), a * b)
        if prod_top != EnvElement(S, expected_terms):
            witness = f"graded product mismatch at u={u}, v={v}"
            break
    report.add("graded-product", witness is None, witness)
    return report


def check_action(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 200,
                 max_word: int = 3, max_degree: int = 2) -> Report:
    """The enveloping algebra acts on coefficients: unital, extends the
    anchor, and turns products into composites."""
    from . import sampling

    report = Report()
    rng = sampling.make_rng(seed)

    witness = None
    for _ in range(samples):
        a = sampling.random_poly(rng, S.algebra, max_degree)
        if EnvElement.one(S).act_on_A(a) != a:
            witness = f"1 acts as {EnvElement.one(S).act_on_A(a)} on {a}"
            break
    report.add("action-unital", witness is None, witness)

    witness = None
    for _ in range(samples):
        x = sampling.random_lr_element(rng, S, max_degree)
        a = sampling.random_poly(rng, S.algebra, max_degree)
        if EnvElement.from_lr(x).act_on_A(a) != x.act(a):
            witness = f"at x={x}, a={a}"
            break
    report.add("action-extends-anchor", witness is None, witness)

    witness = None
    for _ in range(samples):
        u = sampling.random_env_element(rng, S, max_word, max_degree)
        v = sampling.random_env_element(rng, S, max_word, max_degree)
        a = sampling.random_poly(rng, S.algebra, max_degree)
        lhs = (u * v).act_on_A(a)
        rhs = u.act_on_A(v.act_on_A(a))
        if lhs != rhs:
            witness = f"at u={u}, v={v}, a={a}: {lhs} != {rhs}"
            break
    report.add("action-composes", witness is None, witness)
    return report

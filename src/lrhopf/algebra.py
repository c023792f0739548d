"""Exact commutative coefficient algebras over the rationals.

The base objects are finitely generated (Laurent) polynomial algebras:
each generator may be marked invertible, in which case negative exponents
are allowed in that slot.  Everything is computed with exact rational
arithmetic; there is no floating point anywhere in this package.  A stored
coefficient is in canonical form: a nonzero `int` when it is integral,
otherwise a `Fraction` with denominator > 1 (never a `bool` or a `float`).
Most coefficients are integral, and `int` arithmetic is far cheaper than
`Fraction` arithmetic.  Values are canonicalised where they enter
(`_canon`) and results of arithmetic once, where they are wrapped
(`_nonzero`); public scalar returns (`as_constant`,
`constant_coefficient`) are `Fraction`s.

This module owns the raw-sum kernel of polynomial arithmetic and of
morphism and derivation application: `_add_into` and `_mul_into`
accumulate `exponent tuple -> rational` dicts in place (a constant
factor only scales the other one, exponents otherwise add elementwise),
and `_nonzero` turns a finished sum back into a valid term dict, once
per result.  A raw sum may hold an integral `Fraction` until it is
wrapped.  The enveloping product and the tensor layer do not use it:
they sum one flat (word, exponents) -> rational dict (see `enveloping`).
This module also owns the one set of clearing helpers,
`_common_denominator` and `_cleared`, with which the enveloping product
and the legwise tensor product sum on integers over one denominator per
operand and divide once per summed coefficient.

Generators can additionally carry a Hopf marker ("primitive" or
"group_like") from which comultiplication, counit and antipode morphisms
are built.  An algebra owns its tensor powers and these maps: each is
built once per algebra object and kept on it, so the coproduct of A lands
in `A.tensor_power(2)` itself.  `on_leg` extends one of the maps to one
leg of the tensor square.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from operator import add

from .report import Report

HOPF_KINDS = ("none", "primitive", "group_like")


class GeneratorDecl(namedtuple("GeneratorDecl", "name invertible hopf_kind",
                                defaults=(False, "none"))):
    """A named polynomial generator with optional markers; an immutable,
    hashable value."""

    __slots__ = ()

    def __new__(cls, name: str, invertible: bool = False, hopf_kind: str = "none"):
        if hopf_kind not in HOPF_KINDS:
            raise ValueError(f"unknown hopf_kind {hopf_kind!r}")
        if hopf_kind == "group_like" and not invertible:
            # the antipode must send the generator to its inverse
            raise ValueError(f"group_like generator {name!r} must be invertible")
        if hopf_kind == "primitive" and invertible:
            # counit would send an invertible element to 0
            raise ValueError(f"primitive generator {name!r} cannot be invertible")
        return super().__new__(cls, name, invertible, hopf_kind)


class CommutativeAlgebra:
    """A commutative (Laurent) polynomial algebra over Q with named generators."""

    def __init__(self, gens):
        gens = tuple(gens)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.gens = gens
        self.index = {g.name: i for i, g in enumerate(gens)}
        # k -> k-th tensor power, map name -> Hopf map; built on first use
        self._memo: dict = {}

    @property
    def ngens(self) -> int:
        return len(self.gens)

    @classmethod
    def trivial(cls) -> "CommutativeAlgebra":
        """The base field Q viewed as an algebra with no generators."""
        return cls(())

    def zero(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self, {})

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def const(self, q) -> "LaurentPoly":
        q = _canon(q)
        if q == 0:
            return self.zero()
        return LaurentPoly(self, {(0,) * self.ngens: q})

    def gen(self, which) -> "LaurentPoly":
        """Generator as an element, by name or index."""
        i = self.index[which] if isinstance(which, str) else which
        exps = [0] * self.ngens
        exps[i] = 1
        return LaurentPoly(self, {tuple(exps): 1})

    def monomial(self, exps, coeff=1) -> "LaurentPoly":
        coeff = _canon(coeff)
        if coeff == 0:
            return self.zero()
        return LaurentPoly(self, {tuple(exps): coeff})

    def from_terms(self, terms) -> "LaurentPoly":
        return LaurentPoly(self, dict(terms))

    def tensor_power(self, k: int) -> "CommutativeAlgebra":
        """k-fold tensor product with itself, generators renamed by priming.

        Copy c of generator y is called y followed by c+1 primes.  Slots are
        copy-major: all of copy 0 first, then copy 1, and so on.  Hopf
        markers are not carried over (the product Hopf structure would not
        be generator-wise), invertibility is.  Built once per k.
        """
        if k < 1:
            raise ValueError("tensor power needs k >= 1")
        if k not in self._memo:
            self._memo[k] = CommutativeAlgebra(
                GeneratorDecl(g.name + "'" * (c + 1), invertible=g.invertible)
                for c in range(k) for g in self.gens
            )
        return self._memo[k]

    def monomials_up_to(self, max_degree: int):
        """All monomials of total absolute degree <= max_degree.

        Invertible slots range over negative exponents too.  Yields
        LaurentPoly values, starting with 1.
        """
        ranges = []
        for g in self.gens:
            lo = -max_degree if g.invertible else 0
            ranges.append(range(lo, max_degree + 1))
        for exps in itertools.product(*ranges):
            if sum(abs(e) for e in exps) <= max_degree:
                yield self.monomial(exps)

    def __eq__(self, other):
        return isinstance(other, CommutativeAlgebra) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        if not self.gens:
            return "Q"
        parts = [g.name + ("^±1" if g.invertible else "") for g in self.gens]
        return "Q[" + ", ".join(parts) + "]"


class LaurentPoly:
    """A sparse Laurent polynomial: map from exponent tuples to rationals.

    Invariant of `terms`, kept by every constructor:
      * every exponent tuple has one entry per generator of the algebra;
      * only invertible generators carry negative exponents;
      * every coefficient is nonzero and canonical: an `int` when it is
        integral, otherwise a `Fraction` with denominator > 1.

    The constructor checks and normalises its input (coefficients are
    canonicalised, a `float` is refused, zeros dropped).  Arithmetic
    builds its results with `_trusted`, which stores a dict that already
    satisfies the invariant without looking at it again.  A LaurentPoly is
    never mutated in place, so a product by the constant 1 may return the
    other factor itself.
    """

    __slots__ = ("algebra", "terms")

    @classmethod
    def _trusted(cls, algebra: CommutativeAlgebra, terms: dict) -> "LaurentPoly":
        """Wrap `terms`, which must already satisfy the class invariant and
        must not be shared with code that will mutate it."""
        p = object.__new__(cls)
        p.algebra = algebra
        p.terms = terms
        return p

    def __init__(self, algebra: CommutativeAlgebra, terms: dict):
        clean = {}
        n = algebra.ngens
        for exps, c in terms.items():
            c = _canon(c)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} has wrong length")
            for i, e in enumerate(exps):
                if e < 0 and not algebra.gens[i].invertible:
                    raise ValueError(
                        f"negative exponent on non-invertible generator "
                        f"{algebra.gens[i].name!r}"
                    )
            clean[exps] = c
        self.algebra = algebra
        self.terms = clean

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def as_constant(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(next(iter(self.terms.values())))

    def constant_coefficient(self) -> Fraction:
        return Fraction(self.terms.get((0,) * self.algebra.ngens, 0))

    def is_unit(self) -> bool:
        """True when the element is invertible in the algebra: a single
        monomial supported on invertible slots."""
        if len(self.terms) != 1:
            return False
        exps = next(iter(self.terms))
        return all(
            e == 0 or self.algebra.gens[i].invertible for i, e in enumerate(exps)
        )

    def inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit")
        exps, c = next(iter(self.terms.items()))
        return LaurentPoly(self.algebra, {tuple(-e for e in exps): Fraction(1, c)})

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "LaurentPoly"):
        if not (self.algebra is other.algebra or self.algebra == other.algebra):
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        # the class test first, as in __mul__
        if other.__class__ is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                other = self.algebra.const(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        _add_into(terms, other.terms)
        return LaurentPoly._trusted(self.algebra, _nonzero(terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(
            self.algebra, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                other = self.algebra.const(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # the class test first: Fraction's metaclass is an ABCMeta, so the
        # isinstance test below is costly when it fails
        if other.__class__ is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                if other == 0:
                    return self.algebra.zero()
                return LaurentPoly._trusted(
                    self.algebra, _nonzero({e: c * other for e, c in self.terms.items()})
                )
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        self._check_compatible(other)
        for one, p in ((other, self), (self, other)):
            if len(one.terms) == 1:
                (e, c), = one.terms.items()
                if c == 1 and not any(e):
                    # a product by the constant 1 is the other factor itself
                    return p
        terms: dict = {}
        _mul_into(terms, self.terms, other.terms)
        return LaurentPoly._trusted(self.algebra, _nonzero(terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            return LaurentPoly._trusted(
                self.algebra, _nonzero({tuple(e * n for e in exps): c**n}))
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if other.__class__ is LaurentPoly and other.algebra is self.algebra:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = self.algebra.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    # -- printing -----------------------------------------------------------

    def _sorted_terms(self):
        # graded lexicographic, highest first, so output is deterministic
        return sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self._sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.algebra.gens[i].name
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return f"<{self}>"


def _canon(c):
    """A rational value entering a LaurentPoly, in canonical form: an `int`
    when integral (a `bool` becomes 0 or 1), otherwise a `Fraction`."""
    # the class test first: Fraction's metaclass is an ABCMeta, so the
    # isinstance test is costly when it fails, and most values are ints
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


def _nonzero(terms: dict) -> dict:
    """Drop the entries of a freshly summed term dict that cancelled and
    turn each integral Fraction into its int: sums and products of
    canonical coefficients are ints or Fractions, so this restores the
    canonical form."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in terms.items() if c}


def _add_into(out: dict, terms: dict, c=1) -> None:
    """out += c * terms, for exponent -> rational dicts."""
    if c == 1:
        for e, x in terms.items():
            out[e] = out[e] + x if e in out else x
    else:
        for e, x in terms.items():
            x = x * c
            out[e] = out[e] + x if e in out else x


def _mul_into(out: dict, p: dict, q: dict) -> None:
    """out += p * q, for exponent -> rational dicts: a constant factor only
    scales the other one (q is tried first: the enveloping product passes
    rewriting results there, mostly the constant 1); otherwise exponents
    add elementwise."""
    for const, other in ((q, p), (p, q)):
        if len(const) == 1:
            (e, c), = const.items()
            if not any(e):
                _add_into(out, other, c)
                return
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            x = c1 * c2
            out[e] = out[e] + x if e in out else x


def _common_denominator(polys) -> int:
    """The lcm of the denominators of the coefficients of the given
    LaurentPolys (1 when all are ints)."""
    d = 1
    for p in polys:
        for x in p.terms.values():
            if x.__class__ is Fraction and d % x.denominator:
                d = math.lcm(d, x.denominator)
    return d


def _cleared(terms: dict, d: int) -> dict:
    """d times `terms`, as ints, for d a common denominator of its values."""
    if d == 1:
        return terms
    return {e: x * d if x.__class__ is int else x.numerator * (d // x.denominator)
            for e, x in terms.items()}


def coeff_str(p: LaurentPoly) -> str:
    """Render a coefficient for use in front of a noncommutative word,
    parenthesised when it has more than one term."""
    s = str(p)
    if len(p.terms) > 1:
        return "(" + s + ")"
    return s


# -- tensor bookkeeping ------------------------------------------------------


def split_exponents(exps, n: int):
    """Cut a flat exponent tuple into blocks of length n."""
    if n == 0:
        return ()
    if len(exps) % n:
        raise ValueError("exponent tuple length is not a multiple of the block size")
    return tuple(tuple(exps[i : i + n]) for i in range(0, len(exps), n))

def merge_exponents(blocks):
    return tuple(e for block in blocks for e in block)


def spread_copies(p: LaurentPoly, base: CommutativeAlgebra, copies, target: CommutativeAlgebra) -> LaurentPoly:
    """Reinterpret p, an element of a tensor power of `base`, inside a larger
    tensor power by sending source copy c to target copy copies[c]."""
    n = base.ngens
    copies = tuple(copies)
    if p.algebra.ngens != n * len(copies):
        raise ValueError("copy list does not match the source algebra")
    tn = target.ngens // n if n else 0
    if n and not all(0 <= dest < tn for dest in copies):
        raise ValueError(f"copies {copies} do not all lie in the {tn} copies of {target!r}")
    terms: dict = {}
    for exps, c in p.terms.items():
        blocks = split_exponents(exps, n) if n else ()
        out = [(0,) * n for _ in range(tn)]
        for block, dest in zip(blocks, copies):
            out[dest] = tuple(a + b for a, b in zip(out[dest], block))
        key = merge_exponents(out) if n else ()
        terms[key] = terms[key] + c if key in terms else c
    if not _copies_fit(p.algebra, n, copies, target):
        return LaurentPoly(target, terms)  # reports what does not fit
    return LaurentPoly._trusted(target, _nonzero(terms))


def _copies_fit(source: CommutativeAlgebra, n: int, copies, target: CommutativeAlgebra) -> bool:
    """True when target is made of whole copies of n slots and every
    invertible source slot lands on an invertible target slot, so that
    spread_copies (which has checked that every copy is in range) keeps the
    LaurentPoly invariant."""
    if n == 0:
        return target.ngens == 0
    if target.ngens % n:
        return False
    return all(
        target.gens[dest * n + i].invertible or not source.gens[c * n + i].invertible
        for c, dest in enumerate(copies) for i in range(n)
    )


def tensor_embed(p: LaurentPoly, copy: int, target: CommutativeAlgebra) -> LaurentPoly:
    """Place an element of the base algebra into one copy of a tensor power."""
    return spread_copies(p, p.algebra, (copy,), target)


# -- morphisms ---------------------------------------------------------------


class AlgebraMorphism:
    """A unital algebra map determined by generator images.

    Invertible generators must map to units so that negative exponents
    stay meaningful.
    """

    def __init__(self, source: CommutativeAlgebra, target: CommutativeAlgebra, images):
        images = tuple(images)
        if len(images) != source.ngens:
            raise ValueError("need one image per generator")
        for g, img in zip(source.gens, images):
            if img.algebra != target:
                raise ValueError(f"image of {g.name!r} lives in the wrong algebra")
            if g.invertible and not img.is_unit():
                raise ValueError(f"invertible generator {g.name!r} must map to a unit")
        self.source = source
        self.target = target
        self.images = images
        # exponent tuple -> image of that monomial; sound because a
        # LaurentPoly is never mutated in place
        self._monomial_images: dict = {}
        # leg -> this map on that leg of the tensor square (see on_leg)
        self._legs: dict = {}

    def _monomial_image(self, exps) -> LaurentPoly:
        image = self._monomial_images.get(exps)
        if image is None:
            image = self.target.one()
            for img, e in zip(self.images, exps):
                if e:
                    image = image * img**e
            self._monomial_images[exps] = image
        return image

    def __call__(self, p: LaurentPoly) -> LaurentPoly:
        if not (p.algebra is self.source or p.algebra == self.source):
            raise ValueError("argument lives in the wrong algebra")
        terms: dict = {}
        for exps, c in p.terms.items():
            _add_into(terms, self._monomial_image(exps).terms, c)
        return LaurentPoly._trusted(self.target, _nonzero(terms))

    def then(self, other: "AlgebraMorphism") -> "AlgebraMorphism":
        """Composite: apply self first, then other."""
        if other.source != self.target:
            raise ValueError("morphisms do not compose")
        return AlgebraMorphism(
            self.source, other.target, [other(img) for img in self.images]
        )

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __repr__(self):
        body = ", ".join(
            f"{g.name} -> {img}" for g, img in zip(self.source.gens, self.images)
        )
        return f"AlgebraMorphism({body})"


def identity_morphism(alg: CommutativeAlgebra) -> AlgebraMorphism:
    return AlgebraMorphism(alg, alg, [alg.gen(i) for i in range(alg.ngens)])


def inclusion_of_scalars(alg: CommutativeAlgebra) -> AlgebraMorphism:
    return AlgebraMorphism(CommutativeAlgebra.trivial(), alg, [])


def multiplication_morphism(alg: CommutativeAlgebra) -> AlgebraMorphism:
    """A tensor A -> A, both copies of a generator to the generator itself."""
    doubled = alg.tensor_power(2)
    images = [alg.gen(i % alg.ngens) for i in range(2 * alg.ngens)]
    return AlgebraMorphism(doubled, alg, images)


def _require_hopf_kinds(alg: CommutativeAlgebra):
    missing = [g.name for g in alg.gens if g.hopf_kind == "none"]
    if missing:
        raise ValueError(
            "no Hopf structure declared for generator(s): " + ", ".join(missing)
        )


def _per_algebra(build):
    """Build the map once per algebra object and keep it on the algebra."""
    @functools.wraps(build)
    def get(alg: CommutativeAlgebra) -> AlgebraMorphism:
        if build.__name__ not in alg._memo:
            alg._memo[build.__name__] = build(alg)
        return alg._memo[build.__name__]
    return get


@_per_algebra
def comultiplication(alg: CommutativeAlgebra) -> AlgebraMorphism:
    """Generator-wise coproduct A -> A tensor A from the Hopf markers."""
    _require_hopf_kinds(alg)
    doubled = alg.tensor_power(2)
    images = []
    for i, g in enumerate(alg.gens):
        left = tensor_embed(alg.gen(i), 0, doubled)
        right = tensor_embed(alg.gen(i), 1, doubled)
        if g.hopf_kind == "primitive":
            images.append(left + right)
        else:  # group_like
            images.append(left * right)
    return AlgebraMorphism(alg, doubled, images)


@_per_algebra
def counit_morphism(alg: CommutativeAlgebra) -> AlgebraMorphism:
    """Counit A -> Q (the trivial algebra)."""
    _require_hopf_kinds(alg)
    triv = CommutativeAlgebra.trivial()
    images = []
    for g in alg.gens:
        images.append(triv.zero() if g.hopf_kind == "primitive" else triv.one())
    return AlgebraMorphism(alg, triv, images)


@_per_algebra
def antipode_morphism(alg: CommutativeAlgebra) -> AlgebraMorphism:
    """Antipode A -> A: negation on primitives, inversion on group-likes."""
    _require_hopf_kinds(alg)
    images = []
    for i, g in enumerate(alg.gens):
        x = alg.gen(i)
        images.append(-x if g.hopf_kind == "primitive" else x.inverse())
    return AlgebraMorphism(alg, alg, images)


def on_leg(f: AlgebraMorphism, leg: int) -> AlgebraMorphism:
    """f (x) id (leg 0) or id (x) f (leg 1) on the tensor square of A, for
    f: A -> A^(x)m with m = 0 (the scalars Q), 1 (A itself) or 2.  The
    target is A^(x)(m+1), which is A itself when m = 0.  Built once per map
    and leg."""
    if leg in f._legs:
        return f._legs[leg]
    A = f.source
    m = next((m for m, B in ((1, A), (2, A.tensor_power(2)), (0, CommutativeAlgebra.trivial()))
              if f.target == B), None)
    if m is None:
        raise ValueError("on_leg needs a map from A to Q, A or A (x) A")
    target = A if m == 0 else A.tensor_power(m + 1)
    mapped_to = range(m) if leg == 0 else range(1, m + 1)
    mapped = [spread_copies(f(A.gen(i)), A, mapped_to, target) for i in range(A.ngens)]
    kept = [tensor_embed(A.gen(i), m if leg == 0 else 0, target) for i in range(A.ngens)]
    f._legs[leg] = AlgebraMorphism(A.tensor_power(2), target,
                                   mapped + kept if leg == 0 else kept + mapped)
    return f._legs[leg]


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
    """
    from . import sampling

    delta = comultiplication(alg)
    eps = counit_morphism(alg)
    anti = antipode if antipode is not None else antipode_morphism(alg)
    if anti.source != alg or anti.target != alg:
        raise ValueError("antipode must be a self-map of the algebra")

    dl, dr, el, er, sl, sr = (on_leg(f, leg) for f in (delta, eps, anti) for leg in (0, 1))
    mult = multiplication_morphism(alg)
    eta_eps = eps.then(inclusion_of_scalars(alg))

    elements = list(alg.monomials_up_to(max_degree))
    rng = sampling.make_rng(seed)
    for _ in range(samples):
        elements.append(sampling.random_poly(rng, alg, max_degree=max_degree))

    def equal(f, g):
        def check(p):
            lhs, rhs = f(p), g(p)
            return None if lhs == rhs else f"at {p}: {lhs} != {rhs}"
        return check

    report = Report()
    report.law("coassociativity", elements,
               equal(lambda p: dl(delta(p)), lambda p: dr(delta(p))))
    report.law("counit-left", elements, equal(lambda p: el(delta(p)), lambda p: p))
    report.law("counit-right", elements, equal(lambda p: er(delta(p)), lambda p: p))
    report.law("antipode-left", elements, equal(lambda p: mult(sl(delta(p))), eta_eps))
    report.law("antipode-right", elements, equal(lambda p: mult(sr(delta(p))), eta_eps))
    report.law("antipode-involutive", elements, equal(lambda p: anti(anti(p)), lambda p: p))
    return report


# -- derivations -------------------------------------------------------------


class Derivation:
    """A Q-linear derivation of the algebra, stored by generator values."""

    def __init__(self, algebra: CommutativeAlgebra, values):
        values = tuple(values)
        if len(values) != algebra.ngens:
            raise ValueError("need one value per generator")
        for v in values:
            if v.algebra != algebra:
                raise ValueError("derivation values live in the wrong algebra")
        self.algebra = algebra
        self.values = values

    @classmethod
    def zero(cls, algebra: CommutativeAlgebra) -> "Derivation":
        return cls(algebra, [algebra.zero()] * algebra.ngens)

    def __call__(self, p: LaurentPoly) -> LaurentPoly:
        if p.algebra != self.algebra:
            raise ValueError("argument lives in the wrong algebra")
        terms: dict = {}
        for exps, c in p.terms.items():
            for i, e in enumerate(exps):
                if e == 0 or not self.values[i].terms:
                    continue
                # d(g^e) = e g^(e-1) dg, valid for negative e on Laurent slots
                lowered = list(exps)
                lowered[i] -= 1
                _mul_into(terms, {tuple(lowered): c * e}, self.values[i].terms)
        return LaurentPoly._trusted(self.algebra, _nonzero(terms))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.algebra != other.algebra:
            raise ValueError("derivations of different algebras")
        return Derivation(
            self.algebra, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def __neg__(self) -> "Derivation":
        return Derivation(self.algebra, [-v for v in self.values])

    def __rmul__(self, a) -> "Derivation":
        # module structure: (a·D)(p) = a * D(p)
        if isinstance(a, (int, Fraction)):
            a = self.algebra.const(a)
        if not isinstance(a, LaurentPoly):
            return NotImplemented
        return Derivation(self.algebra, [a * v for v in self.values])

    def commutator(self, other: "Derivation") -> "Derivation":
        if self.algebra != other.algebra:
            raise ValueError("derivations of different algebras")
        return Derivation(
            self.algebra,
            [self(other.values[i]) - other(self.values[i]) for i in range(self.algebra.ngens)],
        )

    def tensor_lift(self, copy: int, power_alg: CommutativeAlgebra) -> "Derivation":
        """Extend to a tensor power of the algebra, acting on one copy only."""
        n = self.algebra.ngens
        k = power_alg.ngens // n if n else 1
        # tensor_embed refuses a copy outside the tensor power
        lifted = [tensor_embed(v, copy, power_alg) for v in self.values]
        zeros = [power_alg.zero()] * n
        return Derivation(power_alg, zeros * copy + lifted + zeros * (k - 1 - copy))

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.algebra == other.algebra
            and self.values == other.values
        )

    def __repr__(self):
        body = ", ".join(
            f"d({g.name})={v}"
            for g, v in zip(self.algebra.gens, self.values)
            if not v.is_zero()
        )
        return f"Derivation({body or '0'})"

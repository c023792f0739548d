"""Lie-Rinehart structures: a commutative algebra together with a free
module of derivations-like elements, a bracket, and an anchor.

The module is always free with a finite ordered basis, brackets are stored
as a table over the basis, one coefficient per basis element for each pair
i < j with a nonzero bracket, and the anchor is stored as one derivation of
the coefficient algebra per basis element.  General elements are handled
by extending the table bilinearly with the two defining compatibility rules:
the anchor is linear over the coefficients, and the bracket obeys the
Leibniz rule in its second slot.

`Combination` is the one sparse sum of the package, keys -> nonzero
coefficients; it lives here, the lowest module that knows a structure.
An element of the module (`LRElement`) is a Combination keyed by basis
index.  The bracket and the anchor of an element visit only its nonzero
slots, sum into one raw `exponent tuple -> rational` dict per slot they
reach (`_mul_into` of `algebra`) and wrap each of those slots once; an
element keeps its anchor once built (`anchor_of`).  The batteries use the
public operators only; the naive arithmetic these sums replaced is their
oracle in `tests/lr_oracle.py`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import sampling
from .algebra import (
    CommutativeAlgebra,
    Derivation,
    LaurentPoly,
    _add_into,
    _mul_into,
    _nonzero,
    coeff_str,
    comultiplication,
    counit_morphism,
)
from .report import Report, shared


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
    `algebra`.  The base of LRElement, EnvElement (`enveloping`),
    TensorEnvElement (`hopf`) and MultiVector (`calculus`).

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
    terms grouped by word, with packed exponents (see the `enveloping`
    module docstring), and wraps the sum once, with `_wrap` and then
    `_trusted`.

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


class LRElement(Combination):
    """An element of the free module underlying a Lie-Rinehart structure: a
    Combination whose keys are basis indices, holding only the nonzero
    coefficients.  The public constructor takes one coefficient per basis
    element.  `_anchor` holds the element's anchored derivation once
    `anchor_of` has built it (unset until then)."""

    __slots__ = ("_anchor",)

    def __init__(self, structure: "LieRinehartAlgebra", coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != structure.rank:
            raise ValueError("need one coefficient per basis element")
        super().__init__(structure, dict(enumerate(coeffs)))

    def _normal_key(self, i):
        return i

    def act(self, p: LaurentPoly) -> LaurentPoly:
        """Apply the anchored derivation of this element to p."""
        return self.structure.anchor_of(self)(p)

    def bracket(self, other: "LRElement") -> "LRElement":
        """Bracket extended from the basis table by bilinearity, the anchor
        acting on coefficients per the Leibniz rule:

            [x, y]_k = sum a_i b_j c^k_ij + sum_i a_i rho_i(b_k)
                       - sum_j b_j rho_j(a_k)

        for x = sum a_i e_i and y = sum b_j e_j, over the nonzero slots of
        both, summed into one dict per basis element it reaches."""
        self._check(other)
        S = self.structure
        table = S.bracket_table
        out: dict = {}  # basis index -> exponent tuple -> rational
        xs, ys = self.terms.items(), other.terms.items()
        for i, a in xs:
            for j, b in ys:
                # the table holds [e_i, e_j] for i < j only
                row = table.get((i, j) if i < j else (j, i))
                if row is None:
                    continue
                ab: dict = {}
                _mul_into(ab, a.terms, b.terms, -1 if i > j else 1)
                for k, c in enumerate(row):
                    if c.terms:
                        _mul_into(out.setdefault(k, {}), ab, c.terms)
        dx = S.anchor_of(self)
        for j, b in ys:
            _add_into(out.setdefault(j, {}), dx(b).terms)
        dy = S.anchor_of(other)
        for i, a in xs:
            _add_into(out.setdefault(i, {}), dy(a).terms, -1)
        A = S.algebra
        terms = {}
        for k in sorted(out):
            t = _nonzero(out[k])
            if t:
                terms[k] = LaurentPoly._trusted(A, t)
        return LRElement._trusted(S, terms)

    def __str__(self):
        names = self.structure.basis_names
        parts = [
            names[i] if c == 1 else f"{coeff_str(c)}*{names[i]}"
            for i, c in sorted(self.terms.items())
        ]
        return " + ".join(parts) if parts else "0"


class LieRinehartAlgebra:
    """A commutative algebra A, a free A-module with ordered basis, a
    bracket table over the basis, and an anchor sending each basis element
    to a derivation of A."""

    def __init__(self, algebra: CommutativeAlgebra, basis_names, bracket_table,
                 anchor, validate: bool = True):
        self.algebra = algebra
        self.basis_names = tuple(basis_names)
        rank = len(self.basis_names)
        if len(set(self.basis_names)) != rank:
            raise ValueError("basis names must be distinct")
        table = {}
        for (i, j), coeffs in bracket_table.items():
            if not (0 <= i < j < rank):
                raise ValueError(f"bracket table key {(i, j)} must have i < j")
            coeffs = tuple(
                c if isinstance(c, LaurentPoly) else algebra.const(c) for c in coeffs
            )
            if len(coeffs) != rank:
                raise ValueError("bracket coefficients have wrong length")
            for c in coeffs:
                if c.algebra != algebra:
                    raise ValueError("bracket coefficient in the wrong algebra")
            if any(not c.is_zero() for c in coeffs):
                table[(i, j)] = coeffs
        self.bracket_table = table
        anchor = tuple(anchor)
        if len(anchor) != rank:
            raise ValueError("need one anchor derivation per basis element")
        for d in anchor:
            if d.algebra != algebra:
                raise ValueError("anchor derivation on the wrong algebra")
        self.anchor = anchor
        # the rewriting memos of the enveloping algebra, filled lazily (see
        # lrhopf.enveloping): (word, letter) -> word * e_letter and (word,
        # exponents) -> word * y^e as (word, packed exponents, rational)
        # triples, (u, v) -> u * v as one flat tuple, its words and packed
        # exponents interned through the pool
        self._nf_cache = {}
        self._poly_cache = {}
        self._word_cache = {}
        self._word_pool = {}
        # the coalgebra layer's per-structure caches, built on demand (see
        # lrhopf.hopf): the leg memo "legs", the antipode memo "antipode",
        # (w, e) -> S(y^e w) as the triples above, the standard coproduct
        # "std" and the flat tensor power structures by number of legs
        self._tensor_cache = {}
        if validate:
            _require_basis_laws(check_lr_axioms(self, samples=0))

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    def element(self, coeffs) -> LRElement:
        return LRElement(self, coeffs)

    def zero_element(self) -> LRElement:
        return LRElement._trusted(self, {})

    def _basis_index(self, i: int) -> int:
        if not 0 <= i < self.rank:
            raise ValueError(f"basis index {i} outside 0..{self.rank - 1}")
        return i

    def basis_element(self, i: int) -> LRElement:
        return LRElement._trusted(self, {self._basis_index(i): self.algebra.one()})

    def bracket_of_basis(self, i: int, j: int) -> LRElement:
        self._basis_index(i)
        self._basis_index(j)
        if i > j:
            return -self.bracket_of_basis(j, i)
        row = self.bracket_table.get((i, j), ())
        return LRElement._trusted(self, {k: c for k, c in enumerate(row) if c.terms})

    def anchor_of(self, x: LRElement) -> Derivation:
        """The derivation sum a_i rho_i for x = sum a_i e_i, its value on
        each generator summed into one dict.  An element of this very
        structure keeps it in its `_anchor` slot, built on first use; sound
        because an element is never mutated.  The derivation of an element
        of an equal but distinct structure is built afresh and not kept."""
        A = self.algebra
        own = x.structure is self
        if own:
            try:
                return x._anchor
            except AttributeError:
                pass
        elif x.structure != self:
            if x.structure.algebra != A:
                raise ValueError("element lives over the wrong algebra")
            raise ValueError("element of a different structure")
        out = [{} for _ in range(A.ngens)]
        anchor = self.anchor
        for i, a in x.terms.items():
            for g, v in enumerate(anchor[i].values):
                if v.terms:
                    _mul_into(out[g], a.terms, v.terms)
        # the slots no term reached share one zero, as in Derivation.zero
        zero = A.zero()
        d = Derivation._trusted(
            A, tuple(LaurentPoly._trusted(A, _nonzero(t)) if t else zero for t in out)
        )
        if own:
            x._anchor = d
        return d

    # structural equality so that elements built from equal structures mix

    def _key(self):
        return (
            self.algebra,
            self.basis_names,
            tuple(sorted(self.bracket_table.items())),
            tuple(tuple(d.values) for d in self.anchor),
        )

    def __eq__(self, other):
        # identity first: operands nearly always share one structure object
        return self is other or (
            isinstance(other, LieRinehartAlgebra) and self._key() == other._key()
        )

    def __hash__(self):
        return hash(
            (
                self.algebra,
                self.basis_names,
                frozenset(self.bracket_table.items()),
                tuple(tuple(d.values) for d in self.anchor),
            )
        )

    def __repr__(self):
        return f"LieRinehart(algebra={self.algebra!r}, basis={list(self.basis_names)})"


# -- axiom batteries ---------------------------------------------------------


def _require_basis_laws(report: Report) -> None:
    """Refuse a structure whose check_lr_axioms report fails a law on
    basis elements (those that run with samples=0): the constructor's
    validation."""
    for c in report.failures():
        if c.name.endswith("-basis"):
            raise ValueError(f"not a Lie-Rinehart structure: {c.name}: {c.witness}")


def check_lr_axioms(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 50,
                    max_degree: int = 2) -> Report:
    """Verify the defining identities: antisymmetry, the Jacobi identity
    (with anchor contributions), linearity of the anchor over coefficients,
    the Leibniz rule, and that the anchor respects brackets.

    Basis cases are checked exhaustively, then `samples` random element
    triples (x, y, z, a) are drawn from the given seed.  The bracket [x, y]
    of each triple is computed once, on first use, and read by the
    antisymmetry, Jacobi, Leibniz and anchor-homomorphism laws; the
    anchors of x, y and [x, y] are kept on the elements (see `anchor_of`).
    The battery stays independent of what it certifies: each law still
    reads the value that `LRElement.bracket` computes, so a wrong bracket
    fails the same laws as when each law recomputed it.
    """
    report = Report()
    rank = S.rank

    def jacobi(x, y, z, xy):
        """[x, [y, z]] + [y, [z, x]] + [z, [x, y]], given xy = [x, y]."""
        return x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(xy)

    def jacobi_basis(ijk):
        x, y, z = (S.basis_element(t) for t in ijk)
        val = jacobi(x, y, z, x.bracket(y))
        if not val.is_zero():
            names = tuple(S.basis_names[t] for t in ijk)
            return f"basis triple {names} gives {val}"

    report.law("jacobi-basis", itertools.combinations(range(rank), 3), jacobi_basis)

    def anchor_homomorphism_basis(ij):
        i, j = ij
        lhs = S.anchor_of(S.bracket_of_basis(i, j))
        rhs = S.anchor_of(S.basis_element(i)).commutator(
            S.anchor_of(S.basis_element(j))
        )
        if lhs != rhs:
            names = (S.basis_names[i], S.basis_names[j])
            return f"anchor of bracket {names} is not the commutator"

    report.law("anchor-homomorphism-basis", itertools.combinations(range(rank), 2),
               anchor_homomorphism_basis)

    if samples <= 0:
        return report

    # all triples are drawn whatever fails, and every random law reads them
    rng = sampling.make_rng(seed)
    triples = [
        (
            sampling.random_lr_element(rng, S, max_degree),
            sampling.random_lr_element(rng, S, max_degree),
            sampling.random_lr_element(rng, S, max_degree),
            sampling.random_poly(rng, S.algebra, max_degree),
        )
        for _ in range(samples)
    ]
    xy = shared(lambda xyza: xyza[0].bracket(xyza[1]), triples)

    def antisymmetric(k):
        x, y, _, _ = triples[k]
        if not (xy(k) + y.bracket(x)).is_zero():
            return f"[x,y] + [y,x] != 0 at x={x}, y={y}"

    def jacobi_random(k):
        x, y, z, _ = triples[k]
        if not jacobi(x, y, z, xy(k)).is_zero():
            return f"at x={x}, y={y}, z={z}"

    def anchor_linear(k):
        x, _, _, a = triples[k]
        da = S.anchor_of(a * x)
        scaled = [a * v for v in S.anchor_of(x).values]
        if list(da.values) != scaled:
            return f"anchor of {a}*x is not {a}*(anchor of x) at x={x}"

    def leibniz(k):
        x, y, _, a = triples[k]
        lhs = x.bracket(a * y)
        rhs = a * xy(k) + x.act(a) * y
        if not (lhs - rhs).is_zero():
            return f"[x, a*y] != a*[x,y] + x(a)*y at x={x}, y={y}, a={a}"

    def anchor_homomorphism(k):
        x, y, _, _ = triples[k]
        lhs_d = S.anchor_of(xy(k))
        rhs_d = S.anchor_of(x).commutator(S.anchor_of(y))
        if lhs_d != rhs_d:
            return f"anchor([x,y]) != [anchor x, anchor y] at x={x}, y={y}"

    cases = range(samples)
    report.law("bracket-antisymmetry", cases, antisymmetric)
    report.law("jacobi-random", cases, jacobi_random)
    report.law("anchor-linearity", cases, anchor_linear)
    report.law("leibniz-rule", cases, leibniz)
    report.law("anchor-homomorphism-random", cases, anchor_homomorphism)
    return report


# -- constructions -----------------------------------------------------------


def make_opposite(S: LieRinehartAlgebra) -> LieRinehartAlgebra:
    """Same module with the negated bracket and negated anchor."""
    table = {
        key: tuple(-c for c in coeffs) for key, coeffs in S.bracket_table.items()
    }
    return LieRinehartAlgebra(
        S.algebra,
        S.basis_names,
        table,
        [-d for d in S.anchor],
    )


class _TensorSquareError(ValueError):
    """The diagonal action gives no structure on the tensor square; carries
    a human-readable witness."""


def _diagonal_action(S: LieRinehartAlgebra):
    """Each anchor derivation acting on both legs of the tensor square of A."""
    doubled = S.algebra.tensor_power(2)
    return [d.tensor_lift(0, doubled) + d.tensor_lift(1, doubled) for d in S.anchor]


def tensor_square(S: LieRinehartAlgebra, validate: bool = True) -> LieRinehartAlgebra:
    """Extend coefficients along the comultiplication of A with the diagonal
    action: same basis, bracket table pushed through the comultiplication,
    each anchor derivation acting on both tensor legs at once.

    Two hypotheses are verified on generators before construction, raising
    a ValueError with a witness on failure:
      * the diagonal action restricts to the anchor through the
        comultiplication;
      * the diagonal action turns the pushed bracket into the commutator.
    """
    T = _tensor_square(S, _diagonal_action(S), validate, validate)
    if validate:
        _require_basis_laws(check_lr_axioms(T, samples=0))
    return T


def _tensor_square(S: LieRinehartAlgebra, lifted, restricts: bool,
                   commutes: bool) -> LieRinehartAlgebra:
    """The tensor square with the diagonal action `lifted`, built
    unvalidated, after checking the first and the second hypothesis of
    `tensor_square` when asked."""
    delta = comultiplication(S.algebra)
    doubled = delta.target
    table = {
        key: tuple(delta(c) for c in coeffs)
        for key, coeffs in S.bracket_table.items()
    }
    if restricts:
        for i, g in itertools.product(range(S.rank), range(S.algebra.ngens)):
            a = S.algebra.gen(g)
            lhs = lifted[i](delta(a))
            rhs = delta(S.anchor[i](a))
            if lhs != rhs:
                raise _TensorSquareError(
                    f"lift of {S.basis_names[i]} does not extend its anchor: "
                    f"on {S.algebra.gens[g].name}: {lhs} != {rhs}"
                )
    if commutes:
        for i, j in itertools.combinations(range(S.rank), 2):
            expected = Derivation.zero(doubled)
            for c, d in zip(table.get((i, j), ()), lifted):
                expected = expected + c * d
            if expected != lifted[i].commutator(lifted[j]):
                names = (S.basis_names[i], S.basis_names[j])
                raise _TensorSquareError(
                    f"lift of bracket {names} is not the commutator of lifts"
                )
    return LieRinehartAlgebra(doubled, S.basis_names, table, lifted, validate=False)


# -- compatibility of the coalgebra with the module structure ----------------


def check_bi_lr(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 50,
                max_degree: int = 2) -> Report:
    """Verify that the declared coalgebra structure on the coefficients is
    compatible with the module action:

      * comultiplication intertwines each anchored derivation with its
        diagonal extension to the tensor square;
      * the counit kills every anchor value;
      * the tensor-square structure exists and satisfies the axioms.

    Needs every coefficient generator to carry a Hopf marker.
    """
    report = Report()
    delta = comultiplication(S.algebra)
    eps = counit_morphism(S.algebra)
    doubled = delta.target
    diag = _diagonal_action(S)

    generators = list(itertools.product(range(S.rank), range(S.algebra.ngens)))

    def comultiplication_equivariant(ig):
        i, g = ig
        a = S.algebra.gen(g)
        lhs = diag[i](delta(a))
        rhs = delta(S.anchor[i](a))
        if lhs != rhs:
            return (
                f"{S.basis_names[i]} on {S.algebra.gens[g].name}: "
                f"diagonal action gives {lhs}, comultiplied action gives {rhs}"
            )

    def counit_annihilates(ig):
        i, g = ig
        val = eps(S.anchor[i](S.algebra.gen(g)))
        if not val.is_zero():
            return (
                f"counit of {S.basis_names[i]}({S.algebra.gens[g].name}) "
                f"= {val} != 0"
            )

    unequal = report.law("comultiplication-equivariance", generators,
                         comultiplication_equivariant)
    report.law("counit-annihilates-action", generators, counit_annihilates)

    rng = sampling.make_rng(seed)

    def equivariant(_):
        x = sampling.random_lr_element(rng, S, max_degree)
        a = sampling.random_poly(rng, S.algebra, max_degree)
        xa = S.anchor_of(x)(a)
        da = delta(a)
        # the diagonal extension of x applied to delta(a): the sum of
        # delta(c_i) diag[i](delta(a)), no derivation summed
        lifted = doubled.zero()
        for i, c in x.terms.items():
            lifted = lifted + delta(c) * diag[i](da)
        if lifted != delta(xa):
            return f"at x={x}, a={a}"
        if not eps(xa).is_zero():
            return f"counit of x(a) nonzero at x={x}, a={a}"

    report.law("equivariance-random", range(samples), equivariant)

    try:
        # the law has made the first hypothesis's comparisons one for one;
        # it runs again only when the law failed, for its own witness
        TS = _tensor_square(S, diag, restricts=unequal is not None, commutes=True)
    except _TensorSquareError as exc:
        report.add("tensor-square-structure", False, str(exc))
        return report
    report.add("tensor-square-structure", True)
    # one pass of the axioms: a failed basis law refuses the tensor square
    # as its validating constructor would
    axioms = check_lr_axioms(TS, seed=seed, samples=max(10, samples // 5), max_degree=1)
    _require_basis_laws(axioms)
    report.extend(axioms, prefix="tensor-square.")
    return report

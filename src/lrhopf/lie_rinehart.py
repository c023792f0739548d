"""Lie-Rinehart structures: a commutative algebra together with a free
module of derivations-like elements, a bracket, and an anchor.

The module is always free with a finite ordered basis, brackets are stored
as a sparse table over the basis, and the anchor is stored as one derivation
of the coefficient algebra per basis element.  General elements are handled
by extending the table bilinearly with the two defining compatibility rules:
the anchor is linear over the coefficients, and the bracket obeys the
Leibniz rule in its second slot.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import sampling
from .algebra import (
    CommutativeAlgebra,
    Derivation,
    LaurentPoly,
    coeff_str,
    comultiplication,
    counit_morphism,
)
from .report import Report


class LRElement:
    """An element of the free module underlying a Lie-Rinehart structure,
    stored as one coefficient per basis element."""

    __slots__ = ("structure", "coeffs")

    def __init__(self, structure: "LieRinehartAlgebra", coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != structure.rank:
            raise ValueError("need one coefficient per basis element")
        for c in coeffs:
            if c.algebra != structure.algebra:
                raise ValueError("coefficient lives in the wrong algebra")
        self.structure = structure
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "LRElement") -> "LRElement":
        self._check(other)
        return LRElement(
            self.structure, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "LRElement") -> "LRElement":
        return self + (-other)

    def __neg__(self) -> "LRElement":
        return LRElement(self.structure, [-c for c in self.coeffs])

    def __rmul__(self, a) -> "LRElement":
        if isinstance(a, (int, Fraction)):
            a = self.structure.algebra.const(a)
        if not isinstance(a, LaurentPoly):
            return NotImplemented
        return LRElement(self.structure, [a * c for c in self.coeffs])

    def _check(self, other: "LRElement"):
        if self.structure != other.structure:
            raise ValueError("elements of different structures")

    def act(self, p: LaurentPoly) -> LaurentPoly:
        """Apply the anchored derivation of this element to p."""
        return self.structure.anchor_of(self)(p)

    def bracket(self, other: "LRElement") -> "LRElement":
        """Bracket extended from the basis table by bilinearity, the anchor
        acting on coefficients per the Leibniz rule."""
        self._check(other)
        S = self.structure
        out = [S.algebra.zero()] * S.rank
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                for k, c in enumerate(S.bracket_of_basis(i, j).coeffs):
                    if not c.is_zero():
                        out[k] = out[k] + a * b * c
        dx = S.anchor_of(self)
        dy = S.anchor_of(other)
        for j, b in enumerate(other.coeffs):
            if not b.is_zero():
                out[j] = out[j] + dx(b)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                out[i] = out[i] - dy(a)
        return LRElement(S, out)

    def __eq__(self, other):
        return (
            isinstance(other, LRElement)
            and self.structure == other.structure
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.structure, self.coeffs))

    def __str__(self):
        parts = []
        for name, c in zip(self.structure.basis_names, self.coeffs):
            if c.is_zero():
                continue
            if c == 1:
                parts.append(name)
            else:
                parts.append(f"{coeff_str(c)}*{name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self}>"


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
        # normal-form rewrite cache, filled lazily by the enveloping algebra
        self._nf_cache = {}
        # (word, exponents) -> normal form of word * y^e, filled lazily by
        # the enveloping algebra
        self._poly_cache = {}
        # one coefficient object per distinct value the caches hold
        self._coefficient_pool = {}
        # the coalgebra layer's per-structure caches, built on demand
        self._tensor_cache = {}
        if validate:
            self._validate()

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    def element(self, coeffs) -> LRElement:
        coeffs = [
            c if isinstance(c, LaurentPoly) else self.algebra.const(c) for c in coeffs
        ]
        return LRElement(self, coeffs)

    def zero_element(self) -> LRElement:
        return LRElement(self, [self.algebra.zero()] * self.rank)

    def basis_element(self, i: int) -> LRElement:
        coeffs = [self.algebra.zero()] * self.rank
        coeffs[i] = self.algebra.one()
        return LRElement(self, coeffs)

    def bracket_of_basis(self, i: int, j: int) -> LRElement:
        if i == j:
            return self.zero_element()
        if i < j:
            coeffs = self.bracket_table.get((i, j))
            if coeffs is None:
                return self.zero_element()
            return LRElement(self, coeffs)
        return -self.bracket_of_basis(j, i)

    def anchor_of(self, x: LRElement) -> Derivation:
        d = Derivation.zero(self.algebra)
        for a, base in zip(x.coeffs, self.anchor):
            if not a.is_zero():
                d = d + a * base
        return d

    def _validate(self):
        rep = check_lr_axioms(self, samples=0)
        if not rep.ok:
            bad = rep.failures()[0]
            raise ValueError(f"not a Lie-Rinehart structure: {bad.name}: {bad.witness}")

    # structural equality so that elements built from equal structures mix

    def _key(self):
        return (
            self.algebra,
            self.basis_names,
            tuple(sorted(self.bracket_table.items())),
            tuple(tuple(d.values) for d in self.anchor),
        )

    def __eq__(self, other):
        return isinstance(other, LieRinehartAlgebra) and self._key() == other._key()

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


def check_lr_axioms(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 50,
                    max_degree: int = 2) -> Report:
    """Verify the defining identities: antisymmetry, the Jacobi identity
    (with anchor contributions), linearity of the anchor over coefficients,
    the Leibniz rule, and that the anchor respects brackets.

    Basis cases are checked exhaustively, then `samples` random element
    triples are drawn from the given seed.
    """
    report = Report()
    rank = S.rank

    def jacobi(x, y, z):
        return (
            x.bracket(y.bracket(z))
            + y.bracket(z.bracket(x))
            + z.bracket(x.bracket(y))
        )

    def jacobi_basis(ijk):
        val = jacobi(*(S.basis_element(t) for t in ijk))
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

    def antisymmetric(xyza):
        x, y, _, _ = xyza
        if not (x.bracket(y) + y.bracket(x)).is_zero():
            return f"[x,y] + [y,x] != 0 at x={x}, y={y}"

    def jacobi_random(xyza):
        x, y, z, _ = xyza
        if not jacobi(x, y, z).is_zero():
            return f"at x={x}, y={y}, z={z}"

    def anchor_linear(xyza):
        x, _, _, a = xyza
        da = S.anchor_of(a * x)
        scaled = [a * v for v in S.anchor_of(x).values]
        if list(da.values) != scaled:
            return f"anchor of {a}*x is not {a}*(anchor of x) at x={x}"

    def leibniz(xyza):
        x, y, _, a = xyza
        lhs = x.bracket(a * y)
        rhs = a * x.bracket(y) + x.act(a) * y
        if not (lhs - rhs).is_zero():
            return f"[x, a*y] != a*[x,y] + x(a)*y at x={x}, y={y}, a={a}"

    def anchor_homomorphism(xyza):
        x, y, _, _ = xyza
        lhs_d = S.anchor_of(x.bracket(y))
        rhs_d = S.anchor_of(x).commutator(S.anchor_of(y))
        if lhs_d != rhs_d:
            return f"anchor([x,y]) != [anchor x, anchor y] at x={x}, y={y}"

    report.law("bracket-antisymmetry", triples, antisymmetric)
    report.law("jacobi-random", triples, jacobi_random)
    report.law("anchor-linearity", triples, anchor_linear)
    report.law("leibniz-rule", triples, leibniz)
    report.law("anchor-homomorphism-random", triples, anchor_homomorphism)
    return report


# -- constructions -----------------------------------------------------------


def make_opposite(S: LieRinehartAlgebra, validate: bool = True) -> LieRinehartAlgebra:
    """Same module with the negated bracket and negated anchor."""
    table = {
        key: tuple(-c for c in coeffs) for key, coeffs in S.bracket_table.items()
    }
    return LieRinehartAlgebra(
        S.algebra,
        S.basis_names,
        table,
        [-d for d in S.anchor],
        validate=validate,
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
    delta = comultiplication(S.algebra)
    doubled = delta.target
    lifted = _diagonal_action(S)
    table = {
        key: tuple(delta(c) for c in coeffs)
        for key, coeffs in S.bracket_table.items()
    }
    if validate:
        for i, g in itertools.product(range(S.rank), range(S.algebra.ngens)):
            a = S.algebra.gen(g)
            lhs = lifted[i](delta(a))
            rhs = delta(S.anchor[i](a))
            if lhs != rhs:
                raise _TensorSquareError(
                    f"lift of {S.basis_names[i]} does not extend its anchor: "
                    f"on {S.algebra.gens[g].name}: {lhs} != {rhs}"
                )
        for i, j in itertools.combinations(range(S.rank), 2):
            expected = Derivation.zero(doubled)
            for c, d in zip(table.get((i, j), ()), lifted):
                expected = expected + c * d
            if expected != lifted[i].commutator(lifted[j]):
                names = (S.basis_names[i], S.basis_names[j])
                raise _TensorSquareError(
                    f"lift of bracket {names} is not the commutator of lifts"
                )
    return LieRinehartAlgebra(doubled, S.basis_names, table, lifted, validate=validate)


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

    report.law("comultiplication-equivariance", generators, comultiplication_equivariant)
    report.law("counit-annihilates-action", generators, counit_annihilates)

    rng = sampling.make_rng(seed)

    def equivariant(_):
        x = sampling.random_lr_element(rng, S, max_degree)
        a = sampling.random_poly(rng, S.algebra, max_degree)
        d = S.anchor_of(x)
        lifted = Derivation.zero(doubled)
        for c, base in zip(x.coeffs, diag):
            if not c.is_zero():
                lifted = lifted + delta(c) * base
        if lifted(delta(a)) != delta(d(a)):
            return f"at x={x}, a={a}"
        if not eps(d(a)).is_zero():
            return f"counit of x(a) nonzero at x={x}, a={a}"

    report.law("equivariance-random", range(samples), equivariant)

    try:
        TS = tensor_square(S)
    except _TensorSquareError as exc:
        report.add("tensor-square-structure", False, str(exc))
        return report
    report.add("tensor-square-structure", True)
    report.extend(
        check_lr_axioms(TS, seed=seed, samples=max(10, samples // 5), max_degree=1),
        prefix="tensor-square.",
    )
    return report

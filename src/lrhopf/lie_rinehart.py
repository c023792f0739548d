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

from fractions import Fraction

from .algebra import (
    AlgebraMorphism,
    CommutativeAlgebra,
    Derivation,
    LaurentPoly,
    check_hopf_axioms,
    coeff_str,
    comultiplication,
    counit_morphism,
)
from .report import Report


class LieAlgebra:
    """A finite dimensional Lie algebra over Q given by structure constants.

    The table maps index pairs (i, j) with i < j to coefficient tuples;
    missing pairs bracket to zero.
    """

    def __init__(self, names, table, validate: bool = True):
        self.names = tuple(names)
        dim = len(self.names)
        self.table = {}
        for (i, j), coeffs in table.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad index pair {(i, j)}")
            coeffs = tuple(Fraction(c) for c in coeffs)
            if len(coeffs) != dim:
                raise ValueError("bracket coefficients have wrong length")
            if any(coeffs):
                self.table[(i, j)] = coeffs
        if validate:
            ok, witness = self.check_jacobi()
            if not ok:
                raise ValueError(f"Jacobi identity fails: {witness}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket_coeffs(self, i: int, j: int):
        """Coefficients of [x_i, x_j], any index order."""
        zero = (Fraction(0),) * self.dim
        if i == j:
            return zero
        if i < j:
            return self.table.get((i, j), zero)
        return tuple(-c for c in self.table.get((j, i), zero))

    def bracket_vec(self, v, w):
        """Bracket of two coefficient vectors."""
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(v):
            if not a:
                continue
            for j, b in enumerate(w):
                if not b:
                    continue
                for k, c in enumerate(self.bracket_coeffs(i, j)):
                    out[k] += a * b * c
        return tuple(out)

    def check_jacobi(self):
        dim = self.dim
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    total = [Fraction(0)] * dim
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket_coeffs(b, c)
                        unit = [Fraction(0)] * dim
                        unit[a] = Fraction(1)
                        for t, val in enumerate(self.bracket_vec(unit, inner)):
                            total[t] += val
                    if any(total):
                        names = (self.names[i], self.names[j], self.names[k])
                        return False, f"triple {names} sums to {tuple(total)}"
        return True, None


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
        # tensor-power realizations, built on demand by the coalgebra layer
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
    from . import sampling

    report = Report()
    rank = S.rank
    gens = [S.algebra.gen(i) for i in range(S.algebra.ngens)]

    def jacobi(x, y, z):
        return (
            x.bracket(y.bracket(z))
            + y.bracket(z.bracket(x))
            + z.bracket(x.bracket(y))
        )

    witness = None
    for i in range(rank):
        for j in range(i + 1, rank):
            for k in range(j + 1, rank):
                val = jacobi(S.basis_element(i), S.basis_element(j), S.basis_element(k))
                if not val.is_zero():
                    names = (S.basis_names[i], S.basis_names[j], S.basis_names[k])
                    witness = f"basis triple {names} gives {val}"
                    break
            if witness:
                break
        if witness:
            break
    report.add("jacobi-basis", witness is None, witness)

    witness = None
    for i in range(rank):
        for j in range(i + 1, rank):
            lhs = S.anchor_of(S.bracket_of_basis(i, j))
            rhs = S.anchor_of(S.basis_element(i)).commutator(
                S.anchor_of(S.basis_element(j))
            )
            if lhs != rhs:
                names = (S.basis_names[i], S.basis_names[j])
                witness = f"anchor of bracket {names} is not the commutator"
                break
        if witness:
            break
    report.add("anchor-homomorphism-basis", witness is None, witness)

    if samples <= 0:
        return report

    rng = sampling.make_rng(seed)

    def triples():
        for _ in range(samples):
            yield (
                sampling.random_lr_element(rng, S, max_degree),
                sampling.random_lr_element(rng, S, max_degree),
                sampling.random_lr_element(rng, S, max_degree),
                sampling.random_poly(rng, S.algebra, max_degree),
            )

    anti = jac = lin = leib = hom = None
    for x, y, z, a in triples():
        if anti is None and not (x.bracket(y) + y.bracket(x)).is_zero():
            anti = f"[x,y] + [y,x] != 0 at x={x}, y={y}"
        if jac is None and not jacobi(x, y, z).is_zero():
            jac = f"at x={x}, y={y}, z={z}"
        if lin is None:
            da = S.anchor_of(a * x)
            scaled = [a * v for v in S.anchor_of(x).values]
            if list(da.values) != scaled:
                lin = f"anchor of {a}*x is not {a}*(anchor of x) at x={x}"
        if leib is None:
            lhs = x.bracket(a * y)
            rhs = a * x.bracket(y) + x.act(a) * y
            if not (lhs - rhs).is_zero():
                leib = f"[x, a*y] != a*[x,y] + x(a)*y at x={x}, y={y}, a={a}"
        if hom is None:
            lhs_d = S.anchor_of(x.bracket(y))
            rhs_d = S.anchor_of(x).commutator(S.anchor_of(y))
            if lhs_d != rhs_d:
                hom = f"anchor([x,y]) != [anchor x, anchor y] at x={x}, y={y}"
    report.add("bracket-antisymmetry", anti is None, anti)
    report.add("jacobi-random", jac is None, jac)
    report.add("anchor-linearity", lin is None, lin)
    report.add("leibniz-rule", leib is None, leib)
    report.add("anchor-homomorphism-random", hom is None, hom)
    return report


# -- constructions -----------------------------------------------------------


def make_crossed_product(algebra: CommutativeAlgebra, lie: LieAlgebra, action,
                         validate: bool = True) -> LieRinehartAlgebra:
    """The crossed product of a commutative algebra with a Lie algebra
    acting on it by derivations.

    `action` lists one derivation of `algebra` per Lie algebra basis
    element.  The module is free on the Lie basis, the bracket restricts to
    the structure constants, and the anchor is the action itself.
    """
    action = tuple(action)
    if len(action) != lie.dim:
        raise ValueError("need one action derivation per Lie basis element")
    if validate:
        for i in range(lie.dim):
            for j in range(i + 1, lie.dim):
                expected = Derivation.zero(algebra)
                for k, c in enumerate(lie.bracket_coeffs(i, j)):
                    if c:
                        expected = expected + algebra.const(c) * action[k]
                got = action[i].commutator(action[j])
                if expected != got:
                    raise ValueError(
                        f"action of [{lie.names[i]}, {lie.names[j]}] is not the "
                        f"commutator of the actions"
                    )
    table = {}
    for (i, j), coeffs in lie.table.items():
        table[(i, j)] = tuple(algebra.const(c) for c in coeffs)
    return LieRinehartAlgebra(
        algebra, lie.names, table, action, validate=validate
    )


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


class InducedStructureError(ValueError):
    """Raised when the hypotheses for transporting a structure along a
    coefficient morphism fail; carries a human-readable witness."""


def induce(S: LieRinehartAlgebra, coeff_map: AlgebraMorphism, lifted_anchor,
           basis_names=None, validate: bool = True) -> LieRinehartAlgebra:
    """Transport a Lie-Rinehart structure along an algebra morphism.

    Given phi: A -> A' and, for each basis element, a derivation of A'
    extending its anchor through phi, this builds the structure on the
    extended module: same basis, bracket table pushed through phi, anchor
    replaced by the lifted derivations.

    Two hypotheses are verified on generators before construction, raising
    InducedStructureError on failure:
      * the lifted derivations restrict to the original anchor through phi;
      * lifting turns the pushed bracket into the commutator.
    """
    if coeff_map.source != S.algebra:
        raise ValueError("coefficient map must start at the structure's algebra")
    target = coeff_map.target
    lifted = tuple(lifted_anchor)
    if len(lifted) != S.rank:
        raise ValueError("need one lifted derivation per basis element")
    for d in lifted:
        if d.algebra != target:
            raise ValueError("lifted derivation on the wrong algebra")

    if validate:
        for i in range(S.rank):
            for g in range(S.algebra.ngens):
                a = S.algebra.gen(g)
                lhs = lifted[i](coeff_map(a))
                rhs = coeff_map(S.anchor[i](a))
                if lhs != rhs:
                    raise InducedStructureError(
                        f"lift of {S.basis_names[i]} does not extend its anchor: "
                        f"on {S.algebra.gens[g].name}: {lhs} != {rhs}"
                    )
        for i in range(S.rank):
            for j in range(i + 1, S.rank):
                expected = Derivation.zero(target)
                bracket = S.bracket_of_basis(i, j)
                for k, c in enumerate(bracket.coeffs):
                    if not c.is_zero():
                        expected = expected + coeff_map(c) * lifted[k]
                got = lifted[i].commutator(lifted[j])
                if expected != got:
                    names = (S.basis_names[i], S.basis_names[j])
                    raise InducedStructureError(
                        f"lift of bracket {names} is not the commutator of lifts"
                    )

    table = {
        key: tuple(coeff_map(c) for c in coeffs)
        for key, coeffs in S.bracket_table.items()
    }
    return LieRinehartAlgebra(
        target,
        basis_names if basis_names is not None else S.basis_names,
        table,
        lifted,
        validate=validate,
    )


def diagonal_action(S: LieRinehartAlgebra, doubled: CommutativeAlgebra):
    """Each anchor derivation acting on both tensor legs at once."""
    return [
        d.tensor_lift(0, doubled) + d.tensor_lift(1, doubled) for d in S.anchor
    ]


def tensor_square(S: LieRinehartAlgebra, validate: bool = True) -> LieRinehartAlgebra:
    """Extend coefficients along the comultiplication of A with the diagonal
    action.  Fails with InducedStructureError when the action does not
    commute with comultiplication."""
    delta = comultiplication(S.algebra)
    doubled = delta.target
    return induce(S, delta, diagonal_action(S, doubled), validate=validate)


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
    from . import sampling

    report = Report()
    delta = comultiplication(S.algebra)
    eps = counit_morphism(S.algebra)
    doubled = delta.target
    diag = diagonal_action(S, doubled)

    witness = None
    for i in range(S.rank):
        for g in range(S.algebra.ngens):
            a = S.algebra.gen(g)
            lhs = diag[i](delta(a))
            rhs = delta(S.anchor[i](a))
            if lhs != rhs:
                witness = (
                    f"{S.basis_names[i]} on {S.algebra.gens[g].name}: "
                    f"diagonal action gives {lhs}, comultiplied action gives {rhs}"
                )
                break
        if witness:
            break
    report.add("comultiplication-equivariance", witness is None, witness)

    witness = None
    for i in range(S.rank):
        for g in range(S.algebra.ngens):
            a = S.algebra.gen(g)
            val = eps(S.anchor[i](a))
            if not val.is_zero():
                witness = (
                    f"counit of {S.basis_names[i]}({S.algebra.gens[g].name}) "
                    f"= {val} != 0"
                )
                break
        if witness:
            break
    report.add("counit-annihilates-action", witness is None, witness)

    rng = sampling.make_rng(seed)
    witness = None
    for _ in range(samples):
        x = sampling.random_lr_element(rng, S, max_degree)
        a = sampling.random_poly(rng, S.algebra, max_degree)
        d = S.anchor_of(x)
        lifted = Derivation.zero(doubled)
        for c, base in zip(x.coeffs, diag):
            if not c.is_zero():
                lifted = lifted + delta(c) * base
        if lifted(delta(a)) != delta(d(a)):
            witness = f"at x={x}, a={a}"
            break
        if not eps(d(a)).is_zero():
            witness = f"counit of x(a) nonzero at x={x}, a={a}"
            break
    report.add("equivariance-random", witness is None, witness)

    try:
        TS = tensor_square(S)
    except InducedStructureError as exc:
        report.add("tensor-square-structure", False, str(exc))
        return report
    report.add("tensor-square-structure", True)
    report.extend(
        check_lr_axioms(TS, seed=seed, samples=max(10, samples // 5), max_degree=1),
        prefix="tensor-square.",
    )
    return report

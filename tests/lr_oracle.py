"""The naive Lie-Rinehart arithmetic that the raw-sum paths of lrhopf
replaced, kept in the tests as their oracles.

Every result goes through the validating public constructors
(`Derivation(...)`, `LRElement(...)`) or LaurentPoly arithmetic, one
operation at a time, the way the code read before it summed raw exponent
-> rational dicts.  `apply` is the derivation application: d(g^e) =
e g^(e-1) dg, slot by slot, for every term.  Everything here applies
derivations through `apply`, never through `Derivation.__call__`, so no
oracle calls the code it checks.  Otherwise the bodies are the earlier
methods verbatim.
"""

from lrhopf.algebra import Derivation, LaurentPoly, _mul_into, _nonzero
from lrhopf.lie_rinehart import LRElement


# -- derivations -------------------------------------------------------------


def apply(D: Derivation, p: LaurentPoly) -> LaurentPoly:
    if p.algebra != D.algebra:
        raise ValueError("argument lives in the wrong algebra")
    terms: dict = {}
    for exps, c in p.terms.items():
        for i, e in enumerate(exps):
            if e == 0 or not D.values[i].terms:
                continue
            # d(g^e) = e g^(e-1) dg, valid for negative e on Laurent slots
            lowered = list(exps)
            lowered[i] -= 1
            _mul_into(terms, {tuple(lowered): c * e}, D.values[i].terms)
    return LaurentPoly._trusted(D.algebra, _nonzero(terms))


def add(D: Derivation, E: Derivation) -> Derivation:
    if D.algebra != E.algebra:
        raise ValueError("derivations of different algebras")
    return Derivation(D.algebra, [a + b for a, b in zip(D.values, E.values)])


def scale(a: LaurentPoly, D: Derivation) -> Derivation:
    # module structure: (a·D)(p) = a * D(p)
    return Derivation(D.algebra, [a * v for v in D.values])


def commutator(D: Derivation, E: Derivation) -> Derivation:
    if D.algebra != E.algebra:
        raise ValueError("derivations of different algebras")
    return Derivation(
        D.algebra,
        [apply(D, E.values[i]) - apply(E, D.values[i]) for i in range(D.algebra.ngens)],
    )


# -- module elements ---------------------------------------------------------


def dense(x: LRElement) -> list:
    """One coefficient per basis element, zeros included."""
    zero = x.structure.algebra.zero()
    return [x.terms.get(i, zero) for i in range(x.structure.rank)]


def anchor_of(S, x: LRElement) -> Derivation:
    d = Derivation.zero(S.algebra)
    for a, base in zip(dense(x), S.anchor):
        if not a.is_zero():
            d = add(d, scale(a, base))
    return d


def act(x: LRElement, p: LaurentPoly) -> LaurentPoly:
    return apply(anchor_of(x.structure, x), p)


def bracket(x: LRElement, y: LRElement) -> LRElement:
    """Bracket extended from the basis table by bilinearity, the anchor
    acting on coefficients per the Leibniz rule."""
    if x.structure != y.structure:
        raise ValueError("elements of different structures")
    S = x.structure
    out = [S.algebra.zero()] * S.rank
    for i, a in enumerate(dense(x)):
        if a.is_zero():
            continue
        for j, b in enumerate(dense(y)):
            if b.is_zero():
                continue
            for k, c in enumerate(dense(S.bracket_of_basis(i, j))):
                if not c.is_zero():
                    out[k] = out[k] + a * b * c
    dx = anchor_of(S, x)
    dy = anchor_of(S, y)
    for j, b in enumerate(dense(y)):
        if not b.is_zero():
            out[j] = out[j] + apply(dx, b)
    for i, a in enumerate(dense(x)):
        if not a.is_zero():
            out[i] = out[i] - apply(dy, a)
    return LRElement(S, out)


"""The differential that lrhopf.calculus.ce_differential replaced, kept in
the tests as its oracle beside the sympy one.

`ce_differential` here evaluates the defining alternating sum on every
(p+1)-subset of the basis, whatever the form holds: anchor applications
plus bracketed pairs, each read back through `eval_signed`, the
MultiVector method that was its only caller, written as a function.
Otherwise the body is the earlier function verbatim.
"""

import itertools

from lrhopf.algebra import LaurentPoly
from lrhopf.calculus import MultiVector, _sort_sign
from lrhopf.lie_rinehart import LieRinehartAlgebra


def eval_signed(phi: MultiVector, idx) -> LaurentPoly:
    """Value on an arbitrary index tuple, alternating in its arguments."""
    sgn, key = _sort_sign(tuple(idx))
    if sgn is None:
        return phi.structure.algebra.zero()
    c = phi.terms.get(key)
    if c is None:
        return phi.structure.algebra.zero()
    return c if sgn > 0 else -c


def ce_differential(S: LieRinehartAlgebra, phi: MultiVector) -> MultiVector:
    """The degree-raising differential of the structure, acting on grade-p
    tuples of values: an alternating sum of anchor applications plus an
    alternating double sum over bracketed pairs."""
    if phi.structure != S:
        raise ValueError("form over the wrong structure")
    p = phi.grade
    rank = S.rank
    out: dict = {}
    for T in itertools.combinations(range(rank), p + 1):
        val = S.algebra.zero()
        for r in range(p + 1):
            rest = T[:r] + T[r + 1 :]
            c = phi.terms.get(rest)
            if c is not None:
                term = S.anchor[T[r]](c)
                val = val + (term if r % 2 == 0 else -term)
        for r in range(p + 1):
            for s in range(r + 1, p + 1):
                bracket = S.bracket_of_basis(T[r], T[s])
                rest = tuple(T[t] for t in range(p + 1) if t != r and t != s)
                inner = S.algebra.zero()
                for k, c in bracket.terms.items():
                    inner = inner + c * eval_signed(phi, (k,) + rest)
                val = val + (-inner if (r + s) % 2 else inner)
        if not val.is_zero():
            out[T] = val
    return MultiVector._trusted(S, out, p + 1)

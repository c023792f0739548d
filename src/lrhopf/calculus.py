"""Exterior calculus over a Lie-Rinehart structure.

Multivectors are graded elements of the exterior module over the basis,
stored as increasing index tuples with coefficients.  The same container
doubles as the space of alternating forms with coefficient values, which
is how the complex of a dual structure is transported: grade-p elements
over the module are exactly grade-p forms on its dual.

This module provides the differential of the structure, summed over the
terms of a form rather than over subsets of the basis, the odd bracket
extending the module bracket to multivectors, the induced differential
from a dual structure, and compatibility batteries for a dual pair.
"""

from __future__ import annotations

from . import sampling
from .algebra import coeff_str
from .lie_rinehart import (Combination, LieRinehartAlgebra, LRElement, _add_term,
                           signed_sum)
from .report import Report


def _sort_sign(idx):
    """Sign of the permutation sorting idx; (None, ()) when an index repeats."""
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j] < lst[j - 1]:
            lst[j], lst[j - 1] = lst[j - 1], lst[j]
            sign = -sign
            j -= 1
    for t in range(len(lst) - 1):
        if lst[t] == lst[t + 1]:
            return None, ()
    return sign, tuple(lst)


class MultiVector(Combination):
    """A homogeneous exterior element: a Combination whose keys are
    strictly increasing index tuples of length `grade`.  The grade grades
    one space: a zero of any grade adds as the identity and equals every
    other zero, and `wedge` and the bracket combine grades."""

    __slots__ = ("grade",)
    _shape = "grade"
    _graded = True

    def __init__(self, structure: LieRinehartAlgebra, grade: int, terms: dict):
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        super().__init__(structure, terms, grade)

    def _normal_key(self, idx):
        idx = tuple(idx)
        if len(idx) != self.grade:
            raise ValueError(f"index tuple {idx} has wrong length for grade {self.grade}")
        if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
            raise ValueError(f"index tuple {idx} is not strictly increasing")
        if any(not (0 <= i < self.structure.rank) for i in idx):
            raise ValueError(f"index tuple {idx} is out of range")
        return idx

    @classmethod
    def zero(cls, structure, grade: int) -> "MultiVector":
        return cls(structure, grade, {})

    @classmethod
    def single(cls, structure, idx, coeff=None) -> "MultiVector":
        if coeff is None:
            coeff = structure.algebra.one()
        return cls(structure, len(tuple(idx)), {tuple(idx): coeff})

    @classmethod
    def from_scalar(cls, structure, c) -> "MultiVector":
        return cls(structure, 0, {(): c})

    @classmethod
    def from_lr(cls, x: LRElement) -> "MultiVector":
        return cls(x.structure, 1, {(i,): c for i, c in x.terms.items()})

    def wedge(self, other: "MultiVector") -> "MultiVector":
        if self.structure != other.structure:
            raise ValueError("multivectors over different structures")
        acc: dict = {}
        for I, a in self.terms.items():
            for J, b in other.terms.items():
                sgn, key = _sort_sign(I + J)
                if sgn is not None:
                    _add_term(acc, key, sgn * (a * b))
        return MultiVector._trusted(self.structure, acc, self.grade + other.grade)

    def __str__(self):
        names = self.structure.basis_names
        pieces = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            body = "^".join(names[i] for i in idx) if idx else "1"
            cs = coeff_str(c)
            if cs == "1" and idx:
                pieces.append(body)
            elif cs == "-1" and idx:
                pieces.append("-" + body)
            elif idx:
                pieces.append(f"{cs}*{body}")
            else:
                pieces.append(cs)
        return signed_sum(pieces)


# -- differentials -------------------------------------------------------------


def ce_differential(S: LieRinehartAlgebra, phi: MultiVector) -> MultiVector:
    """The degree-raising differential of the structure, term by term:
    d(c x_I) = dc ^ x_I + c d(x_I) with dc = sum_t rho_t(c) x_t, and d(x_I)
    from d(x_k) = -sum_{a<b} c^k_ab x_a ^ x_b by the graded Leibniz rule.
    This only regroups the defining alternating sum over (p+1)-tuples of
    basis elements and uses no Jacobi identity, so it holds on every structure."""
    if phi.structure != S:
        raise ValueError("form over the wrong structure")
    out: dict = {}
    for I, c in phi.terms.items():
        for t, rho in enumerate(S.anchor):
            sgn, key = _sort_sign((t,) + I)
            if sgn is not None:
                _add_term(out, key, sgn * rho(c))
        for j, k in enumerate(I):
            for (a, b), coeffs in S.bracket_table.items():
                if coeffs[k].terms:
                    sgn, key = _sort_sign(I[:j] + (a, b) + I[j + 1 :])
                    if sgn is not None:
                        _add_term(out, key, (sgn if j % 2 else -sgn) * (c * coeffs[k]))
    return MultiVector._trusted(S, out, phi.grade + 1)


def dual_differential(P: MultiVector, dual: LieRinehartAlgebra) -> MultiVector:
    """The differential induced on the module side by a dual structure:
    transport through the basis pairing, apply the dual's differential,
    transport back."""
    S = P.structure
    if dual.rank != S.rank or dual.algebra != S.algebra:
        raise ValueError("dual structure must share the algebra and the rank")
    dP = ce_differential(dual, MultiVector._trusted(dual, P.terms, P.grade))
    return MultiVector._trusted(S, dP.terms, dP.grade)


# -- the odd bracket -----------------------------------------------------------


def schouten_bracket(P: MultiVector, Q: MultiVector) -> MultiVector:
    """Extension of the module bracket to multivectors: biderivation with
    respect to the wedge, signed by the shifted grades."""
    if P.structure != Q.structure:
        raise ValueError("multivectors over different structures")
    S = P.structure
    p, q = P.grade, Q.grade
    if p + q == 0:
        return MultiVector.zero(S, 0)
    acc: dict = {}
    outer = -1 if ((p - 1) * (q - 1)) % 2 else 1
    for I, a in P.terms.items():
        for J, b in Q.terms.items():
            # letter-letter brackets
            for r in range(p):
                for s in range(q):
                    bracket = S.bracket_of_basis(I[r], J[s])
                    sign_rs = -1 if (r + s) % 2 else 1  # (-1)^{(r+1)+(s+1)}
                    rest = I[:r] + I[r + 1 :] + J[:s] + J[s + 1 :]
                    for k, c in bracket.terms.items():
                        sgn, key = _sort_sign((k,) + rest)
                        if sgn is not None:
                            _add_term(acc, key, (sign_rs * sgn) * (a * b * c))
            # letters of the first factor derive the second coefficient
            for r in range(p):
                db = S.anchor[I[r]](b)
                if db.is_zero():
                    continue
                rest = I[:r] + I[r + 1 :] + J
                sgn, key = _sort_sign(rest)
                if sgn is not None:
                    sign_r = -1 if (p - (r + 1)) % 2 else 1
                    _add_term(acc, key, (sign_r * sgn) * (a * db))
            # and symmetrically, with the graded twist
            for s in range(q):
                da = S.anchor[J[s]](a)
                if da.is_zero():
                    continue
                rest = J[:s] + J[s + 1 :] + I
                sgn, key = _sort_sign(rest)
                if sgn is not None:
                    sign_s = -1 if (q - (s + 1)) % 2 else 1
                    _add_term(acc, key, (outer * sign_s * sgn) * (-(b * da)))
    return MultiVector._trusted(S, acc, p + q - 1)


def check_gerstenhaber(S: LieRinehartAlgebra, *, seed: int = 0, samples: int = 40,
                       max_grade: int = 2) -> Report:
    """The differential squares to zero and the odd bracket satisfies the
    graded identities, on seeded random multivectors."""
    report = Report()
    rng = sampling.make_rng(seed)
    top = min(max_grade, S.rank)

    def rand_mv(grade):
        if grade == 0:
            return MultiVector.from_scalar(
                S, sampling.random_poly(rng, S.algebra, 2)
            )
        return sampling.random_multivector(rng, S, grade)

    def shifted_sign(u, w):
        return -1 if ((u - 1) * (w - 1)) % 2 else 1

    def squares_to_zero(_):
        g = rng.randint(0, top)
        phi = rand_mv(g)
        dd = ce_differential(S, ce_differential(S, phi))
        if not dd.is_zero():
            return f"d(d(phi)) = {dd} at phi={phi} (grade {g})"

    def extends_module_bracket(_):
        x = sampling.random_lr_element(rng, S)
        y = sampling.random_lr_element(rng, S)
        lhs = schouten_bracket(MultiVector.from_lr(x), MultiVector.from_lr(y))
        rhs = MultiVector.from_lr(x.bracket(y))
        if lhs != rhs:
            return f"at x={x}, y={y}"

    def acts_by_anchor(_):
        x = sampling.random_lr_element(rng, S)
        b = sampling.random_poly(rng, S.algebra, 2)
        lhs = schouten_bracket(MultiVector.from_lr(x), MultiVector.from_scalar(S, b))
        rhs = MultiVector.from_scalar(S, x.act(b))
        if lhs != rhs:
            return f"at x={x}, b={b}"

    def antisymmetric(_):
        p, q = rng.randint(0, top), rng.randint(0, top)
        P, Q = rand_mv(p), rand_mv(q)
        total = schouten_bracket(P, Q) + shifted_sign(p, q) * schouten_bracket(Q, P)
        if not total.is_zero():
            return f"at P={P} (grade {p}), Q={Q} (grade {q})"

    def jacobi(_):
        p, q, r = (rng.randint(1, max(1, top)) for _ in range(3))
        P, Q, R = rand_mv(p), rand_mv(q), rand_mv(r)
        total = (
            shifted_sign(p, r) * schouten_bracket(schouten_bracket(P, Q), R)
            + shifted_sign(q, p) * schouten_bracket(schouten_bracket(Q, R), P)
            + shifted_sign(r, q) * schouten_bracket(schouten_bracket(R, P), Q)
        )
        if not total.is_zero():
            return f"grades ({p},{q},{r}) at P={P}, Q={Q}, R={R}"

    def wedge_leibniz(_):
        p = rng.randint(1, max(1, top))
        q = rng.randint(0, top - 1) if top > 1 else 0
        r = rng.randint(0, max(0, top - q))
        P, Q, R = rand_mv(p), rand_mv(q), rand_mv(r)
        lhs = schouten_bracket(P, Q.wedge(R))
        sign = -1 if ((p - 1) * q) % 2 else 1
        rhs = schouten_bracket(P, Q).wedge(R) + sign * Q.wedge(schouten_bracket(P, R))
        if lhs != rhs:
            return f"grades ({p},{q},{r}) at P={P}, Q={Q}, R={R}"

    report.law("differential-squares-to-zero", range(samples), squares_to_zero)
    report.law("bracket-extends-module-bracket", range(samples), extends_module_bracket)
    report.law("bracket-acts-by-anchor", range(samples), acts_by_anchor)
    report.law("graded-antisymmetry", range(samples), antisymmetric)
    report.law("graded-jacobi", range(samples), jacobi)
    report.law("wedge-leibniz", range(samples), wedge_leibniz)
    return report


# -- dual pairs ----------------------------------------------------------------


def check_lr_bialgebra(S: LieRinehartAlgebra, dual: LieRinehartAlgebra, *,
                       seed: int = 0, samples: int = 40) -> Report:
    """Compatibility of a structure with a dual structure on the same
    algebra and rank, stated two equivalent ways:

      * the induced differential is a cocycle for the module bracket;
      * the structure's differential is a graded derivation of the dual's
        odd bracket.

    Both verdicts are reported, along with whether they agree, and both
    differentials are checked to square to zero.
    """
    if dual.rank != S.rank or dual.algebra != S.algebra:
        raise ValueError("dual structure must share the algebra and the rank")
    report = Report()
    rng = sampling.make_rng(seed)

    def dstar(P):
        return dual_differential(P, dual)

    def d(xi):
        return dual_differential(xi, S)

    pairs = [
        (S.basis_element(i), S.basis_element(j))
        for i in range(S.rank)
        for j in range(S.rank)
    ]
    for _ in range(samples):
        pairs.append(
            (sampling.random_lr_element(rng, S), sampling.random_lr_element(rng, S))
        )

    def cocycle(pair):
        x, y = pair
        lhs = dstar(MultiVector.from_lr(x.bracket(y)))
        rhs = schouten_bracket(dstar(MultiVector.from_lr(x)), MultiVector.from_lr(y)) + \
            schouten_bracket(MultiVector.from_lr(x), dstar(MultiVector.from_lr(y)))
        if lhs != rhs:
            return f"at x={x}, y={y}: {lhs} != {rhs}"

    witness_a = report.law("cobracket-cocycle", pairs, cocycle)

    dual_pairs = [
        (dual.basis_element(i), dual.basis_element(j))
        for i in range(dual.rank)
        for j in range(dual.rank)
    ]
    for _ in range(samples):
        dual_pairs.append(
            (
                sampling.random_lr_element(rng, dual),
                sampling.random_lr_element(rng, dual),
            )
        )

    def derives_dual_bracket(pair):
        xi, eta = pair
        mxi, meta = MultiVector.from_lr(xi), MultiVector.from_lr(eta)
        lhs = d(schouten_bracket(mxi, meta))
        rhs = schouten_bracket(d(mxi), meta) + schouten_bracket(mxi, d(meta))
        if lhs != rhs:
            return f"at xi={xi}, eta={eta}: {lhs} != {rhs}"

    witness_b = report.law("differential-derives-dual-bracket", dual_pairs,
                           derives_dual_bracket)

    agree = (witness_a is None) == (witness_b is None)
    report.add(
        "formulations-agree",
        agree,
        None
        if agree
        else f"cocycle says {'pass' if witness_a is None else 'fail'}, "
        f"derivation says {'pass' if witness_b is None else 'fail'}",
    )

    top = min(2, dual.rank)

    def derivation_graded(_):
        g1, g2 = rng.randint(1, top), rng.randint(1, top)
        xi = sampling.random_multivector(rng, dual, g1)
        eta = sampling.random_multivector(rng, dual, g2)
        lhs = d(schouten_bracket(xi, eta))
        sign = 1 if (g1 - 1) % 2 == 0 else -1
        rhs = schouten_bracket(d(xi), eta) + sign * schouten_bracket(xi, d(eta))
        if lhs != rhs:
            return f"grades ({g1},{g2}) at xi={xi}, eta={eta}"

    # the graded extension of the derivation property, meaningful only when
    # the grade-one statement already holds
    if witness_b is not None:
        report.add_na("derivation-compatibility-graded", "grade-one statement fails")
    else:
        report.law("derivation-compatibility-graded", range(samples), derivation_graded)

    def random_form(T):
        g = rng.randint(0, min(2, T.rank))
        if g == 0:
            return MultiVector.from_scalar(T, sampling.random_poly(rng, T.algebra, 2))
        return sampling.random_multivector(rng, T, g)

    def dual_squares_to_zero(_):
        P = random_form(S)
        if not dstar(dstar(P)).is_zero():
            return f"at P={P}"

    def squares_to_zero(_):
        xi = random_form(dual)
        if not d(d(xi)).is_zero():
            return f"at xi={xi}"

    report.law("dual-differential-squares-to-zero", range(samples), dual_squares_to_zero)
    report.law("differential-squares-to-zero", range(samples), squares_to_zero)
    return report

"""The flat encoding of tensor powers, kept in the tests as the oracle of
the legwise product and of the one-leg application of a coproduct.

The k-th tensor power of an enveloping algebra is the enveloping algebra of
`tensor_power_structure(S, k)`: k commuting copies of the basis over the
k-th tensor power of A, copy c of letter l being the flat letter
c * rank + l.  A word tuple (w_0, ..., w_{k-1}) is the flat word w_0 w_1'
... w_{k-1}^(k-1), which is normal because copy c letters sort before copy
c + 1 letters.  Products there rewrite in the tensor power structure
itself, independently of the legwise product in lrhopf.hopf.
"""

from lrhopf import EnvElement, TensorEnvElement
from lrhopf.algebra import comultiplication, spread_copies, tensor_embed
from lrhopf.hopf import tensor_power_structure


def to_flat(t: TensorEnvElement) -> EnvElement:
    m = t.structure.rank
    terms = {}
    for words, c in t.terms.items():
        terms[tuple(l + leg * m for leg, w in enumerate(words) for l in w)] = c
    return EnvElement(tensor_power_structure(t.structure, t.legs), terms)


def from_flat(S, u: EnvElement, legs: int = 2) -> TensorEnvElement:
    """Split the flat words of u into their copies; distinct normal flat
    words give distinct normal word tuples."""
    if u.structure != tensor_power_structure(S, legs):
        raise ValueError("element outside the tensor power")
    m = S.rank
    terms = {}
    for w, c in u.terms.items():
        terms[tuple(tuple(l - leg * m for l in w if l // m == leg) for leg in range(legs))] = c
    return TensorEnvElement(S, terms, legs)


def flat_product(a: TensorEnvElement, b: TensorEnvElement) -> TensorEnvElement:
    """a * b computed in the tensor power structure."""
    return from_flat(a.structure, to_flat(a) * to_flat(b), a.legs)


def flat_apply_to_leg(dmap, t, leg):
    """dmap applied to one leg of t, multiplied out in the tripled structure
    from the letter images: the oracle of CoproductLikeMap.apply_to_leg."""
    S, A, m, n = dmap.S, dmap.S.algebra, dmap.S.rank, dmap.S.algebra.ngens
    T3 = tensor_power_structure(S, 3)
    A3 = T3.algebra
    delta = comultiplication(A)
    copies = (0, 1) if leg == 0 else (1, 2)

    def coefficient(c):
        # the coproduct of A on the mapped leg, monomial by monomial
        total = A3.zero()
        for exps, q in c.terms.items():
            y0, y1 = A.monomial(exps[:n], q), A.monomial(exps[n:])
            if leg == 0:
                total += spread_copies(delta(y0), A, copies, A3) * tensor_embed(y1, 2, A3)
            else:
                total += tensor_embed(y0, 0, A3) * spread_copies(delta(y1), A, copies, A3)
        return total

    def mapped(letter):
        terms = {}
        for (w0, w1), c in dmap.images[letter].terms.items():
            word = tuple(l + copies[0] * m for l in w0) + tuple(l + copies[1] * m for l in w1)
            terms[word] = spread_copies(c, A, copies, A3)
        return EnvElement(T3, terms)

    out = EnvElement.zero(T3)
    for (w0, w1), c in t.terms.items():
        cur = EnvElement.from_poly(T3, coefficient(c))
        for l in w0:
            cur = cur * (mapped(l) if leg == 0 else EnvElement.generator(T3, l))
        for l in w1:
            cur = cur * (EnvElement.generator(T3, 2 * m + l) if leg == 0 else mapped(l))
        out = out + cur
    return from_flat(S, out, 3)

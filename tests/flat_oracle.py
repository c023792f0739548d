"""The flat encoding of tensor powers, kept in the tests as the oracle of
the legwise product.

The k-th tensor power of an enveloping algebra is the enveloping algebra of
`tensor_power_structure(S, k)`: k commuting copies of the basis over the
k-th tensor power of A, copy c of letter l being the flat letter
c * rank + l.  A word tuple (w_0, ..., w_{k-1}) is the flat word w_0 w_1'
... w_{k-1}^(k-1), which is normal because copy c letters sort before copy
c + 1 letters.  Products there rewrite in the tensor power structure
itself, independently of the legwise product in lrhopf.hopf.
"""

from lrhopf import EnvElement, TensorEnvElement, tensor_power_structure


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

"""The letter-by-letter rewriting that the memoized paths of lrhopf
replaced, kept in the tests as their oracles.

`word_times_poly` pushes a coefficient left through a word by recursion
on the last letter, e a -> a e + e(a), without any cache: 2^L calls on a
word of length L whose anchors never kill the coefficient.
`word_times_gen` swaps a letter left through a word by the same recursion,
e_j e_i -> e_i e_j + [e_j, e_i], also without a cache, so its depth is the
length of the word.  `antipode`
builds each reversed word by multiplying one generator at a time onto the
left of the coefficient's antipode, then signs it by the word's length.
`product` multiplies two elements with every partial coefficient a
LaurentPoly, summed as it comes, the way the enveloping product did before
it summed raw exponent -> rational dicts.
"""

from lrhopf import EnvElement, antipode_morphism

from lr_oracle import dense


def _add(acc: dict, word, coeff):
    s = acc[word] + coeff if word in acc else coeff
    if s.is_zero():
        acc.pop(word, None)
    else:
        acc[word] = s


def word_times_poly(S, word, b) -> dict:
    """Normal form of (word * b) as a dict from words to coefficients."""
    if b.is_zero():
        return {}
    if not word or b.is_constant():
        return {word: b}
    head, last = word[:-1], word[-1]
    acc: dict = {}
    for u, p in word_times_poly(S, head, b).items():
        _add(acc, u + (last,), p)
    derived = S.anchor[last](b)
    if not derived.is_zero():
        for u, p in word_times_poly(S, head, derived).items():
            _add(acc, u, p)
    return acc


def word_times_gen(S, word, i: int) -> dict:
    """Normal form of (word * e_i) as a dict from words to coefficients."""
    if not word or word[-1] <= i:
        return {word + (i,): S.algebra.one()}
    head, j = word[:-1], word[-1]
    acc: dict = {}
    # head e_j e_i = (head e_i) e_j + head [e_j, e_i]
    for u, p in word_times_gen(S, head, i).items():
        for v, q in word_times_gen(S, u, j).items():
            _add(acc, v, p * q)
    for k, c in enumerate(dense(S.bracket_of_basis(j, i))):
        for u, p in word_times_poly(S, head, c).items():
            for v, q in word_times_gen(S, u, k).items():
                _add(acc, v, p * q)
    return acc


def product(x: EnvElement, y: EnvElement) -> EnvElement:
    """x * y: (a w)(b v) = a (w b v), the coefficient b pushed left through
    w, then the letters of v swapped in one at a time."""
    S = x.structure
    acc: dict = {}
    for w, a in x.terms.items():
        for v, b in y.terms.items():
            cur = word_times_poly(S, w, b)
            for letter in v:
                nxt: dict = {}
                for u, p in cur.items():
                    for u2, q in word_times_gen(S, u, letter).items():
                        _add(nxt, u2, p * q)
                cur = nxt
            for u, p in cur.items():
                _add(acc, u, a * p)
    return EnvElement(S, acc)


def antipode(u: EnvElement) -> EnvElement:
    """Reverse each word letter by letter, sign it by its length, and send
    the coefficient through the antipode of A."""
    S = u.structure
    anti_A = antipode_morphism(S.algebra)
    out = EnvElement.zero(S)
    for w, a in u.terms.items():
        cur = EnvElement.from_poly(S, anti_A(a))
        for letter in w:
            # each letter lands on the left: e_{w_L} .. e_{w_1} S_A(a)
            cur = EnvElement.generator(S, letter) * cur
        out = out + (cur if len(w) % 2 == 0 else -cur)
    return out

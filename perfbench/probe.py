"""The reference computation that speed.py times.  It imports nothing but
fractions, so a process that runs it starts quickly."""

from fractions import Fraction


def _poly(n: int, scale: int) -> dict:
    return {(i % 3, (i // 3) % 4, i // 12): Fraction((i * scale) % 9 - 4 or 1, i % 4 + 1)
            for i in range(n)}


_P, _Q = _poly(20, 5), _poly(20, 7)


def poly_probe() -> int:
    """Fixed interpreter work like lrhopf's own: a product of two sparse
    polynomials with rational coefficients, kept in dicts keyed by
    exponent tuples."""
    out: dict = {}
    for e1, c1 in _P.items():
        for e2, c2 in _Q.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, 0) + c1 * c2
    return len(out)

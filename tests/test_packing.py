"""Packed exponent vectors, the rewriting kernel's layout (see the
`lrhopf.enveloping` module docstring): one int per vector, a signed
32-bit field per generator.  Packing round-trips, adds exactly (negative
Laurent exponents too), moves a tensor leg into place by one shift,
serves an algebra with no generators, and refuses an exponent outside
its range; products of large operands with several monomials per
coefficient, and with negative exponents, match the letter-by-letter
oracle of tests/rewriting_oracle.py."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from lrhopf import CommutativeAlgebra, EnvElement, GeneratorDecl  # noqa: E402
from lrhopf.dsl import parse_structure_file  # noqa: E402
from lrhopf.enveloping import _leg_shift, _packing  # noqa: E402
from lrhopf.sampling import make_rng, random_env_element  # noqa: E402

from conftest import read_fixture  # noqa: E402
import rewriting_oracle as oracle  # noqa: E402

# the packable range: every exponent the kernel stores lies in it
LOW, HIGH = -2 ** 29, 2 ** 29


def _algebra(n):
    """n generators, the even ones invertible, so that negative exponents occur."""
    return CommutativeAlgebra([GeneratorDecl(f"y{i}", invertible=i % 2 == 0)
                               for i in range(n)])


EDGES = (0, 1, -1, 2, -2, 31, -32, 10 ** 8, -10 ** 8, HIGH - 1, LOW)
VECTORS = [(), (0,), (HIGH - 1,), (LOW,), (-1, 0), (0, -1), (3, -5),
           (LOW, HIGH - 1), (HIGH - 1, LOW, -1, 1), (-10 ** 8, 7, 0, -(2 ** 28))]


def _assert_round_trip(e):
    pack = _packing(_algebra(len(e)))
    assert type(pack[e]) is int
    assert pack.unpack[pack[e]] == e
    # a fresh memo unpacks the same int to the same tuple
    assert _packing(_algebra(len(e))).unpack[pack[e]] == e


@pytest.mark.parametrize("e", VECTORS + [(x,) for x in EDGES] + [(x, -1 - x) for x in EDGES])
def test_pack_and_unpack_round_trip(e):
    _assert_round_trip(e)
    # the zero vector packs to 0, so an exponent-free term costs nothing to add
    assert (_packing(_algebra(len(e)))[e] == 0) == (not any(e))


def _add(*vectors):
    return tuple(map(sum, zip(*vectors)))


@pytest.mark.parametrize("vectors", [
    [(1, 2), (3, 4)],
    [(-1, 0), (0, -1)],
    [(-5, 3), (5, -3)],
    [(HIGH - 1, LOW), (HIGH - 1, LOW)],
    [(HIGH - 1, LOW, 0), (HIGH - 1, LOW, -1), (HIGH - 1, LOW, 1)],
    [(LOW, -1), (LOW, -1), (LOW, -1)],
    [(-7,), (-(10 ** 8),), (2,)],
])
def test_adding_packed_ints_adds_the_vectors_exactly(vectors):
    # up to three values in range, as in a kernel sum: the fields reach
    # three times the packable range and still unpack to the exact sum
    pack = _packing(_algebra(len(vectors[0])))
    total = sum(pack[e] for e in vectors)
    assert pack.unpack[total] == _add(*vectors)


@pytest.mark.parametrize("legs", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_the_leg_shift_is_tuple_concatenation(legs, n):
    A = _algebra(n)
    Ak = A.tensor_power(legs)
    pack, pack_k = _packing(A), _packing(Ak)
    rng = make_rng(7 * legs + n)
    for _ in range(30):
        blocks = [tuple(rng.randrange(LOW, HIGH) for _ in range(n)) for _ in range(legs)]
        flat = tuple(x for block in blocks for x in block)
        shifted = sum(pack[block] << _leg_shift(A, l) for l, block in enumerate(blocks))
        assert shifted == pack_k[flat]
        assert pack_k.unpack[shifted] == flat


def test_an_algebra_with_no_generators_packs_every_vector_to_0():
    A = CommutativeAlgebra.trivial()
    pack = _packing(A)
    assert pack[()] == 0 and pack.unpack[0] == ()
    assert _leg_shift(A, 2) == 0
    assert pack.checked(0) == 0


@pytest.mark.parametrize("e", [(HIGH,), (LOW - 1,), (0, HIGH), (LOW - 1, 0), (2 ** 40, 1),
                               (3, -(2 ** 31))])
def test_an_exponent_outside_the_range_is_refused_where_it_is_packed(e):
    pack = _packing(_algebra(len(e)))
    with pytest.raises(ValueError, match="outside the packable range"):
        pack[e]
    assert e not in pack


def test_a_summed_exponent_outside_the_range_is_refused_where_it_is_stored():
    # a memo entry is summed from packed values and checked as it is frozen
    pack = _packing(_algebra(2))
    assert pack.checked(pack[(HIGH - 2, 5)] + pack[(1, -5)]) == pack[(HIGH - 1, 0)]
    assert pack.checked(pack[(LOW + 1, -1)] + pack[(-1, 1)]) == pack[(LOW, 0)]
    for parts in ([(HIGH - 1, 0), (1, 0)], [(0, LOW), (0, -1)], [(3, LOW), (2, LOW)]):
        with pytest.raises(ValueError, match="outside the packable range"):
            pack.checked(sum(pack[e] for e in parts))


def test_a_product_refuses_an_operand_exponent_outside_the_range():
    S = parse_structure_file(read_fixture("torus.lra")).build()[0]
    A = S.algebra
    x = EnvElement.generator(S, 0)
    for e in (HIGH, LOW - 1):
        big = EnvElement.from_poly(S, A.monomial((e,)))
        with pytest.raises(ValueError, match="outside the packable range"):
            x * big
    # at the edge of the range the product is exact
    edge = EnvElement.from_poly(S, A.monomial((LOW,), Fraction(1, 3)))
    assert (x * edge).terms == oracle.product(x, edge).terms


def _large(S):
    """The benchmark's large operand: (sum of the basis + sum of the
    generators)^4."""
    A = S.algebra
    lin = EnvElement(S, {(i,): A.one() for i in range(S.rank)})
    for g in range(A.ngens):
        lin = lin + EnvElement.from_poly(S, A.gen(g))
    return lin ** 4


@pytest.mark.parametrize("name, seed", [("gl2.lra", 3), ("torus.lra", 5)])
def test_large_products_match_the_letter_by_letter_oracle(name, seed):
    # gl2's coefficients have several monomials, torus's exponents go negative
    S = parse_structure_file(read_fixture(name)).build()[0]
    large = _large(S)
    assert any(len(c.terms) > 1 for c in large.terms.values())
    rng = make_rng(seed)
    smalls = [random_env_element(rng, S, max_word=2, max_degree=2, terms=3) * Fraction(2, 3)
              for _ in range(3)]
    if name == "torus.lra":
        assert any(e[0] < 0 for u in smalls for c in u.terms.values() for e in c.terms)
    for u in smalls:
        for a, b in ((large, u), (u, large)):
            assert (a * b).terms == oracle.product(a, b).terms, f"{name}: {a} times {b}"


_exponent = st.integers(LOW, HIGH - 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.tuples(*[_exponent] * n), min_size=1, max_size=3)))
def test_packing_round_trips_and_adds_exactly(vectors):
    pack = _packing(_algebra(len(vectors[0])))
    for e in vectors:
        assert pack.unpack[pack[e]] == e
    assert pack.unpack[sum(pack[e] for e in vectors)] == _add(*vectors)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 3).flatmap(
    lambda n: st.lists(st.tuples(*[_exponent] * n), min_size=2, max_size=3)))
def test_leg_shifts_concatenate(blocks):
    A = _algebra(len(blocks[0]))
    flat = tuple(x for block in blocks for x in block)
    shifted = sum(_packing(A)[b] << _leg_shift(A, l) for l, b in enumerate(blocks))
    assert shifted == _packing(A.tensor_power(len(blocks)))[flat]

"""Structure axioms, constructions (opposite, tensor square), and compatibility with the coefficient coproduct."""

import re

import pytest

from lrhopf import (
    CommutativeAlgebra,
    Derivation,
    GeneratorDecl,
    LieRinehartAlgebra,
    LRElement,
    check_bi_lr,
    check_lr_axioms,
    make_opposite,
    tensor_square,
)
from lrhopf import sampling
from lrhopf.dsl import parse_structure_file
from lrhopf.sampling import make_rng, random_lr_element, random_poly

from conftest import build_aff2, build_euler


def test_lie_algebra_table_and_jacobi():
    # sl2 over the scalars with zero anchors:
    # [e, f] = h, [e, h] = -2e, [f, h] = 2f
    A = CommutativeAlgebra.trivial()
    sl2 = LieRinehartAlgebra(
        A,
        ["e", "f", "h"],
        {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)},
        [Derivation.zero(A)] * 3,
    )
    assert sl2.bracket_of_basis(0, 1) == sl2.element([0, 0, 1])
    assert sl2.bracket_of_basis(1, 0) == sl2.element([0, 0, -1])
    assert sl2.bracket_of_basis(2, 2).is_zero()
    # jacobi-basis, bracket-antisymmetry and the rest all pass
    report = check_lr_axioms(sl2, seed=0, samples=20)
    assert report.ok, str(report)


def test_axioms_pass_for_core_structures(euler, aff2, gl2):
    for S in (euler, aff2, gl2):
        report = check_lr_axioms(S, seed=0, samples=50)
        assert report.ok, str(report)


@pytest.mark.parametrize("square", [False, True], ids=["gl2", "tensor-square-aff2"])
def test_the_lr_battery_brackets_each_triple_once(monkeypatch, gl2, aff2, square):
    # [x, y] of a random triple is computed once and read by the
    # antisymmetry, Jacobi, Leibniz and anchor-homomorphism laws
    S = tensor_square(aff2) if square else gl2
    drawn, pairs = [], []
    draw, bracket = sampling.random_lr_element, LRElement.bracket
    monkeypatch.setattr(sampling, "random_lr_element",
                        lambda *args: drawn.append(draw(*args)) or drawn[-1])
    monkeypatch.setattr(LRElement, "bracket", lambda x, y: pairs.append((x, y)) or bracket(x, y))
    assert check_lr_axioms(S, seed=0, samples=12).ok
    assert len(drawn) == 3 * 12
    for x, y in zip(drawn[0::3], drawn[1::3]):
        assert sum(a is x and b is y for a, b in pairs) == 1


def test_the_lr_battery_builds_each_anchor_once(monkeypatch, gl2):
    built = {}  # id(x) -> (x, {id(d): d} for every derivation returned for x)
    anchor_of = LieRinehartAlgebra.anchor_of

    def spy(S, x):
        d = anchor_of(S, x)
        built.setdefault(id(x), (x, {}))[1][id(d)] = d
        return d

    monkeypatch.setattr(LieRinehartAlgebra, "anchor_of", spy)
    assert check_lr_axioms(gl2, seed=0, samples=12).ok
    assert built and all(len(ds) == 1 for _, ds in built.values())


def test_the_anchor_is_kept_only_on_an_element_of_the_structure_itself(aff2):
    twin = build_aff2()
    assert twin == aff2 and twin is not aff2
    x = LRElement(aff2, [aff2.algebra.gen(0), 1])
    d = twin.anchor_of(x)
    assert d.algebra is twin.algebra
    assert not hasattr(x, "_anchor")
    assert d == aff2.anchor_of(x)
    assert x._anchor is aff2.anchor_of(x)


def test_bracket_general_elements(aff2):
    A = aff2.algebra
    y = A.gen(0)
    x1 = LRElement(aff2, [A.one(), A.zero()])
    x2 = LRElement(aff2, [A.zero(), A.one()])
    yx2 = LRElement(aff2, [A.zero(), y])
    # [x1, y x2] = x1(y) x2 + y [x1, x2] = y x2 + y x2
    assert x1.bracket(yx2) == LRElement(aff2, [A.zero(), y * 2])
    assert x2.bracket(x2).is_zero()
    assert x1.act(y * y) == y * y * 2


def test_anchor_is_bracket_homomorphism_random(gl2):
    rng = make_rng(3)
    for _ in range(30):
        x = random_lr_element(rng, gl2)
        w = random_lr_element(rng, gl2)
        p = random_poly(rng, gl2.algebra)
        assert x.bracket(w).act(p) == x.act(w.act(p)) - w.act(x.act(p))


def test_validation_rejects_broken_jacobi_table():
    A = CommutativeAlgebra([])
    z, o = A.zero(), A.one()
    with pytest.raises(ValueError):
        LieRinehartAlgebra(
            A,
            ["x1", "x2", "x3"],
            {(0, 1): [z, z, o], (0, 2): [o, z, z]},
            [Derivation(A, []), Derivation(A, []), Derivation(A, [])],
        )


def test_validation_rejects_non_homomorphic_anchor():
    # abelian bracket but non-commuting anchors
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    y = A.gen(0)
    with pytest.raises(ValueError):
        LieRinehartAlgebra(
            A,
            ["x1", "x2"],
            {},
            [Derivation(A, [y]), Derivation(A, [y * y])],
        )


def test_opposite_negates_brackets(aff2):
    op = make_opposite(aff2)
    report = check_lr_axioms(op, seed=1, samples=30)
    assert report.ok, str(report)
    x1 = LRElement(op, [op.algebra.one(), op.algebra.zero()])
    x2 = LRElement(op, [op.algebra.zero(), op.algebra.one()])
    assert x1.bracket(x2) == LRElement(op, [op.algebra.zero(), -op.algebra.one()])


def test_tensor_square_structure(euler):
    # coefficients extend to the doubled algebra, the rank stays the same,
    # and the lifted anchor acts on both tensor legs at once
    T = tensor_square(euler)
    assert T.basis_names == euler.basis_names
    assert T.algebra == euler.algebra.tensor_power(2)
    report = check_lr_axioms(T, seed=0, samples=30)
    assert report.ok, str(report)
    T2 = T.algebra
    prod = T2.gen(0) * T2.gen(1)
    x = LRElement(T, [T2.one()])
    assert x.act(prod) == prod * 2


def test_bi_compatibility_passes_for_core_structures(euler, aff2, gl2):
    for S in (euler, aff2, gl2):
        report = check_bi_lr(S, seed=0, samples=40)
        assert report.ok, str(report)


def test_bi_compatibility_fails_for_translation():
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    S = LieRinehartAlgebra(A, ["x"], {}, [Derivation(A, [A.one()])])
    report = check_bi_lr(S, seed=0, samples=40)
    assert not report.ok
    failed = {c.name: c.witness for c in report.failures()}
    assert "counit-annihilates-action" in failed
    assert "comultiplication-equivariance" in failed


def test_bi_compatibility_fails_for_unit_scaling():
    A = CommutativeAlgebra(
        [GeneratorDecl("t", invertible=True, hopf_kind="group_like")]
    )
    S = LieRinehartAlgebra(A, ["x"], {}, [Derivation(A, [A.gen(0)])])
    assert check_lr_axioms(S, seed=0, samples=30).ok
    report = check_bi_lr(S, seed=0, samples=30)
    assert not report.ok


def test_equality_is_structural(euler):
    assert euler == build_euler()
    assert hash(euler) == hash(build_euler())


# the diagonal action extends every anchor through the comultiplication,
# but the pushed bracket [x1, x2] = (z' + z'')*x3 - (y' + y'')*x4 acts on
# y' as z''*y' - y''*z', while the lifts of x1 and x2 commute
SECOND_TENSOR_SQUARE_WITNESS = """
algebra A { gens: y primitive, z primitive }
lie g {
    basis: x1, x2, x3, x4;
    bracket [x1, x2] = z*x3 - y*x4;
    bracket [x3, x4] = -x4;
}
action {
    x3(y) = y;
    x4(y) = z;
}
"""


def test_tensor_square_fails_when_the_lifted_bracket_is_not_the_commutator():
    S, _ = parse_structure_file(SECOND_TENSOR_SQUARE_WITNESS).build()
    assert check_lr_axioms(S, seed=0, samples=50).ok
    witness = "lift of bracket ('x1', 'x2') is not the commutator of lifts"
    report = check_bi_lr(S, seed=0, samples=50)
    assert {c.name: c.witness for c in report.failures()} == {
        "tensor-square-structure": witness
    }
    with pytest.raises(ValueError, match=re.escape(witness)):
        tensor_square(S)


def _other_algebra_and_structure():
    """Q[z] and a rank-two structure over it, both foreign to aff2."""
    B = CommutativeAlgebra([GeneratorDecl("z", hopf_kind="primitive")])
    T = LieRinehartAlgebra(B, ["x1", "x2"], {}, [Derivation.zero(B)] * 2)
    return B, T


def test_arithmetic_refuses_operands_of_another_algebra_or_structure(aff2, euler):
    # results are built trusted, so each operator checks its operand once
    B, T = _other_algebra_and_structure()
    z = B.gen(0)
    x = aff2.basis_element(0)
    d = aff2.anchor[0]
    with pytest.raises(ValueError, match="wrong algebra"):
        z * x
    with pytest.raises(ValueError, match="wrong algebra"):
        z * d
    with pytest.raises(ValueError, match="different structures"):
        x + T.basis_element(0)
    with pytest.raises(ValueError, match="different structures"):
        x + make_opposite(aff2).basis_element(0)
    with pytest.raises(ValueError, match="different structures"):
        x.bracket(T.basis_element(1))
    with pytest.raises(ValueError, match="different algebras"):
        d + Derivation.zero(B)
    with pytest.raises(ValueError, match="different algebras"):
        d.commutator(Derivation.zero(B))
    with pytest.raises(ValueError, match="wrong algebra"):
        d(z)
    with pytest.raises(ValueError, match="wrong algebra"):
        aff2.zero_element().act(z)
    with pytest.raises(ValueError, match="wrong algebra"):
        aff2.anchor_of(T.basis_element(0))
    # same algebra, another structure: the opposite's anchor is d(y) = -y
    with pytest.raises(ValueError, match="different structure"):
        aff2.anchor_of(make_opposite(aff2).basis_element(0))
    # same generators, a different object: equal algebras still mix
    A2 = CommutativeAlgebra(aff2.algebra.gens)
    assert A2.gen(0) * x == aff2.algebra.gen(0) * x
    assert d(A2.gen(0)) == d(aff2.algebra.gen(0))


def test_elements_are_sparse_over_basis_indices(aff2):
    A = aff2.algebra
    x = LRElement(aff2, [A.zero(), A.gen(0)])
    assert x.terms == {1: A.gen(0)}
    assert aff2.zero_element().terms == {}
    assert aff2.basis_element(1).terms == {1: A.one()}
    assert aff2.element([0, 0]) == aff2.zero_element()
    assert str(aff2.element([2, -1])) == "2*x1 + -1*x2"


@pytest.mark.parametrize(
    "call",
    [
        lambda S: S.basis_element(-1),
        lambda S: S.basis_element(5),
        lambda S: S.bracket_of_basis(0, 7),
        lambda S: S.bracket_of_basis(-1, 0),
    ],
    ids=["basis-negative", "basis-past-rank", "bracket-past-rank", "bracket-negative"],
)
def test_basis_indices_outside_the_basis_are_refused(aff2, call):
    with pytest.raises(ValueError, match=r"basis index -?\d+ outside 0\.\.1"):
        call(aff2)


def test_public_constructors_keep_validating(aff2):
    B, _ = _other_algebra_and_structure()
    A = aff2.algebra
    with pytest.raises(ValueError, match="wrong algebra"):
        LRElement(aff2, [A.one(), B.one()])
    with pytest.raises(ValueError, match="one coefficient per basis element"):
        LRElement(aff2, [A.one()])
    with pytest.raises(ValueError, match="wrong algebra"):
        Derivation(A, [B.one()])
    with pytest.raises(ValueError, match="one value per generator"):
        Derivation(A, [])

"""Structure axioms, constructions (opposite, induced, tensor square), and compatibility with the coefficient coproduct."""

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
from lrhopf.sampling import make_rng, random_lr_element, random_poly

from conftest import build_euler


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

"""`ce_differential` sums over the terms of a form.  Its value must be,
term for term, what the subset sweep of `calculus_oracle` makes of the
same form, on every fixture structure (dual blocks and broken_jacobi
included), on gl3 (rank 9, from tests/fixtures_large), and at every grade
from 0 to the rank; and its cost must follow the form's terms, not the
subsets of the basis."""

import itertools
import os
from fractions import Fraction

import pytest

from lrhopf import (
    CommutativeAlgebra,
    Derivation,
    GeneratorDecl,
    LieRinehartAlgebra,
    MultiVector,
    ce_differential,
    check_gerstenhaber,
)
from lrhopf.dsl import parse_structure_file
from lrhopf.sampling import make_rng, random_poly

from conftest import FIXTURES, read_fixture
import calculus_oracle

LARGE = os.path.join(os.path.dirname(__file__), "fixtures_large")


def _structures():
    out = {}
    for fname in sorted(f for f in os.listdir(FIXTURES) if f.endswith(".lra")):
        S, D = parse_structure_file(read_fixture(fname)).build()
        out[fname] = S
        if D is not None:
            out[fname + ":dual"] = D
    with open(os.path.join(LARGE, "gl3.lra"), encoding="utf-8") as fh:
        out["gl3.lra"] = parse_structure_file(fh.read()).build()[0]
    return out


STRUCTURES = _structures()


def random_form(rng, S, grade, density):
    """A grade-`grade` form holding each index tuple with probability
    `density`, each with a random coefficient of up to two terms."""
    return MultiVector(S, grade, {
        idx: random_poly(rng, S.algebra, 2)
        for idx in itertools.combinations(range(S.rank), grade)
        if rng.random() < density
    })


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_ce_differential_agrees_with_the_subset_sweep(name):
    S = STRUCTURES[name]
    rng = make_rng(sum(map(ord, name)))
    for grade in range(S.rank + 1):
        for density in (0.2, 0.7):
            phi = random_form(rng, S, grade, density)
            got = ce_differential(S, phi)
            want = calculus_oracle.ce_differential(S, phi)
            assert got.grade == want.grade == grade + 1
            assert got.terms == want.terms, f"{name}: d of {phi}"
            assert str(got) == str(want)
            assert ce_differential(S, got) == calculus_oracle.ce_differential(S, want)


def test_broken_jacobi_keeps_its_golden_witness():
    # the structure constants break Jacobi, and the term-by-term sum uses no
    # Jacobi identity either: d(d(phi)) is the gerstenhaber golden's witness
    S = STRUCTURES["broken_jacobi.lra"]
    A = S.algebra
    phi = MultiVector(S, 1, {(0,): A.const(Fraction(-3, 2)), (2,): A.const(-2)})
    dd = ce_differential(S, ce_differential(S, phi))
    assert str(dd) == "2*x1^x2^x3"
    assert dd == calculus_oracle.ce_differential(S, calculus_oracle.ce_differential(S, phi))


def build_abelian(rank):
    """Rank `rank` over Q[y] with zero bracket, x0(y) = y and every other
    anchor zero."""
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    anchor = [Derivation(A, [A.gen(0)])] + [Derivation(A, [A.zero()])] * (rank - 1)
    return LieRinehartAlgebra(A, [f"x{i}" for i in range(rank)], {}, anchor)


def test_the_differential_of_one_term_costs_one_anchor_per_letter(monkeypatch):
    # the subset sweep made comb(40, 3) * 3 = 29,640 bracket_of_basis calls here
    S = build_abelian(40)
    calls = {"anchor": 0, "bracket": 0}
    apply, bracket = Derivation.__call__, LieRinehartAlgebra.bracket_of_basis

    def counted_apply(self, p):
        calls["anchor"] += 1
        return apply(self, p)

    def counted_bracket(self, i, j):
        calls["bracket"] += 1
        return bracket(self, i, j)

    monkeypatch.setattr(Derivation, "__call__", counted_apply)
    monkeypatch.setattr(LieRinehartAlgebra, "bracket_of_basis", counted_bracket)
    y = S.algebra.gen(0)
    d_phi = ce_differential(S, MultiVector(S, 2, {(3, 7): y}))
    assert d_phi == MultiVector(S, 3, {(0, 3, 7): y})
    assert calls["anchor"] <= 40
    assert calls["bracket"] == 0


def test_a_rank_40_gerstenhaber_battery_passes():
    # the subset sweep took about half a minute on this structure
    report = check_gerstenhaber(build_abelian(40), seed=0, samples=40)
    assert report.ok, str(report)

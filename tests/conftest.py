"""Shared builders for the test suite.

The three workhorse structures are built programmatically here so tests
do not depend on the declaration parser; the parser gets its own tests
against these as references.
"""

import os
import subprocess
import sys

import pytest

from lrhopf import (
    CommutativeAlgebra,
    Derivation,
    GeneratorDecl,
    LieRinehartAlgebra,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def run_python(*args, **kwargs):
    """Run a Python subprocess that imports this checkout's lrhopf."""
    import lrhopf

    src = os.path.dirname(os.path.dirname(os.path.abspath(lrhopf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def read_fixture(name):
    """The text of a fixture file, read with the file closed again."""
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


def build_euler():
    """One basis element x over Q[y] with x(y) = y."""
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    return LieRinehartAlgebra(A, ["x"], {}, [Derivation(A, [A.gen(0)])])


def build_aff2():
    """Rank two over Q[y]: [x1, x2] = x2, x1(y) = y, x2(y) = 0."""
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    z, o = A.zero(), A.one()
    return LieRinehartAlgebra(
        A,
        ["x1", "x2"],
        {(0, 1): [z, o]},
        [Derivation(A, [A.gen(0)]), Derivation(A, [z])],
    )


def build_gl2():
    """The four matrix units acting linearly on Q[y1, y2]."""
    A = CommutativeAlgebra(
        [GeneratorDecl("y1", hopf_kind="primitive"),
         GeneratorDecl("y2", hopf_kind="primitive")]
    )
    y1, y2 = A.gen(0), A.gen(1)
    z, o = A.zero(), A.one()
    return LieRinehartAlgebra(
        A,
        ["E11", "E12", "E21", "E22"],
        {
            (0, 1): [z, o, z, z],
            (0, 2): [z, z, -o, z],
            (1, 2): [o, z, z, -o],
            (1, 3): [z, o, z, z],
            (2, 3): [z, z, -o, z],
        },
        [
            Derivation(A, [y1, z]),
            Derivation(A, [z, y1]),
            Derivation(A, [y2, z]),
            Derivation(A, [z, y2]),
        ],
    )


def build_a_valued():
    """[x1, x2] = y*x2 over Q[y], y primitive: a bracket with a coefficient."""
    A = CommutativeAlgebra([GeneratorDecl("y", hopf_kind="primitive")])
    y, z = A.gen(0), A.zero()
    return LieRinehartAlgebra(
        A, ["x1", "x2"], {(0, 1): [z, y]}, [Derivation(A, [y]), Derivation(A, [z])]
    )


# fractional structure constants and anchor: the rewriting memos and the
# leg products hold Fractions
FRACTIONAL = """\
algebra A { gens: y primitive }
lie g {
    basis: x1, x2;
    bracket [x1, x2] = 1/2*x2;
}
action {
    x1(y) = 1/3*y;
}
"""


@pytest.fixture(scope="session")
def euler():
    return build_euler()


@pytest.fixture(scope="session")
def aff2():
    return build_aff2()


@pytest.fixture(scope="session")
def gl2():
    return build_gl2()

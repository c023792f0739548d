"""The gl_n generator (tests/make_gln.py) and the rank 9 structure gl3 it
writes to tests/fixtures_large/, which the fixture loops of the other
tests leave out."""

import contextlib
import io
import os

from lrhopf.cli import main

from conftest import fixture_path
from make_gln import gln_text

LARGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures_large")


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_generated_gl2_reports_what_the_gl2_fixture_reports(tmp_path):
    path = tmp_path / "gl2.lra"
    path.write_text(gln_text(2), encoding="utf-8")
    generated = cli("check-hopf", str(path), "--json")
    assert generated == cli("check-hopf", fixture_path("gl2.lra"), "--json")
    assert generated[0] == 0


def test_gl3_fixture_is_what_the_generator_writes():
    with open(os.path.join(LARGE, "gl3.lra"), encoding="utf-8") as fh:
        assert fh.read() == gln_text(3)


def test_gl3_passes_the_hopf_battery_at_word_length_two():
    code, out, err = cli("check-hopf", os.path.join(LARGE, "gl3.lra"), "--max-word", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("check-hopf: PASS (27 checks,")


def test_generated_gl11_has_distinct_names_and_rewrites(tmp_path):
    # from gl11 on, E_1,11 and E_11,1 need the separator to stay apart
    from lrhopf.dsl import parse_structure_file

    text = gln_text(11)
    S = parse_structure_file(text).build()[0]
    assert S.rank == 121
    assert len(set(S.basis_names)) == 121
    assert {"E1_11", "E11_1"} <= set(S.basis_names)
    path = tmp_path / "gl11.lra"
    path.write_text(text, encoding="utf-8")
    assert cli("nf", str(path), "E1_11*E11_1") == (0, "E1_11*E11_1\n", "")

"""Record the golden CLI outputs that tests/test_goldens.py compares against.

    PYTHONPATH=src python3 tests/make_goldens.py

Run it from a checkout root on a commit whose outputs are trusted.  For
every fixture it runs each battery command and the four value commands
on the square of the sum of the basis, all with --json, in process, and
writes stdout, stderr and the exit code of each to
tests/goldens/<fixture>.json.  The file name keeps it out of pytest's
collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDENS = os.path.join(HERE, "goldens")

BATTERIES = {
    "check": [],
    "check-bi": [],
    "check-hopf": ["--max-word", "2"],
    "pbw": ["--samples", "100"],
    "gerstenhaber": [],
    "bialgebroid": [],
    "probe-conjecture": [],
}
VALUES = ("nf", "coproduct", "counit", "antipode")


def fixture_names():
    return sorted(f[: -len(".lra")] for f in os.listdir(FIXTURES) if f.endswith(".lra"))


def cases(fixture: str) -> dict:
    """Case name -> argv, with the fixture given by its file name."""
    from lrhopf.dsl import parse_structure_file

    file = f"{fixture}.lra"
    with open(os.path.join(FIXTURES, file), encoding="utf-8") as fh:
        S, _ = parse_structure_file(fh.read()).build()
    square = "(" + " + ".join(S.basis_names) + ")^2"
    out = {cmd: [cmd, file, *flags, "--json"] for cmd, flags in BATTERIES.items()}
    out.update({cmd: [cmd, file, square, "--json"] for cmd in VALUES})
    return out


def run(argv) -> dict:
    """Run the CLI in process; the fixture's file name is resolved here."""
    from lrhopf.cli import main

    cmd, file, *rest = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cmd, os.path.join(FIXTURES, file), *rest])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_path(fixture: str) -> str:
    return os.path.join(GOLDENS, f"{fixture}.json")


def main():
    os.makedirs(GOLDENS, exist_ok=True)
    for fixture in fixture_names():
        record = {name: {"argv": argv, **run(argv)} for name, argv in cases(fixture).items()}
        with open(golden_path(fixture), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(fixture, {name: r["exit"] for name, r in record.items()}, flush=True)


if __name__ == "__main__":
    sys.exit(main())

"""Every fixture x command CLI output stays byte for byte what was recorded
in tests/goldens/ (regenerate with tests/make_goldens.py): stdout, stderr
and the exit code of each battery command and of the value commands on the
square of the sum of the basis, all with --json."""

import json

import pytest

from make_goldens import cases, fixture_names, golden_path, run

CASES = [(f, name) for f in fixture_names() for name in cases(f)]


def _golden(fixture):
    with open(golden_path(fixture), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("fixture, name", CASES, ids=[f"{f}-{n}" for f, n in CASES])
def test_cli_output_matches_golden(fixture, name):
    want = _golden(fixture)[name]
    assert want["argv"] == cases(fixture)[name]
    assert run(want["argv"]) == {k: want[k] for k in ("exit", "stdout", "stderr")}


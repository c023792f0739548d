"""Structured pass/fail reports for the verification batteries."""

from __future__ import annotations

from collections import namedtuple


class CheckResult(namedtuple("CheckResult", "name verdict witness", defaults=(None,))):
    """One named check: its verdict, "pass", "fail" or "not-applicable",
    and the witness of a failure."""

    __slots__ = ()

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "verdict": self.verdict}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def shared(f, cases):
    """k -> f(cases[k]), computed on first use and kept: a value that
    several laws of one battery read is computed once per case (f must not
    return None).  Each law still reads the value of the code it checks."""
    values = [None] * len(cases)

    def value(k):
        v = values[k]
        if v is None:
            v = values[k] = f(cases[k])
        return v
    return value


class Report:
    """An ordered list of named checks with an overall verdict."""

    def __init__(self, command: str = "", checks: list[CheckResult] | None = None):
        self.command = command
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.command, self.checks) == (other.command, other.checks)

    def __repr__(self):
        return f"Report(command={self.command!r}, checks={self.checks!r})"

    def add(self, name: str, ok: bool, witness: str | None = None) -> None:
        self.checks.append(
            CheckResult(name, "pass" if ok else "fail", None if ok else witness)
        )

    def law(self, name: str, cases, check) -> str | None:
        """Record one battery law: `check(case)` returns None when the law
        holds at `case`, else a witness string.

        Cases are drawn one at a time, and none is drawn after the first
        failure: a generator that samples from a shared random source
        therefore leaves it exactly where the failing case left it, and the
        next law draws from that point.  The first witness is recorded as
        a fail and returned; with no failing case (or no case at all) the
        law passes and None is returned.
        """
        for case in cases:
            witness = check(case)
            if witness is not None:
                self.checks.append(CheckResult(name, "fail", witness))
                return witness
        self.checks.append(CheckResult(name, "pass"))
        return None

    def add_na(self, name: str, witness: str | None = None) -> None:
        self.checks.append(CheckResult(name, "not-applicable", witness))

    def extend(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.name if prefix else c.name, c.verdict, c.witness)
            )

    @property
    def ok(self) -> bool:
        return all(c.verdict != "fail" for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.verdict != "pass"]

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "checks": [c.to_dict() for c in self.checks],
        }

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            mark = {"pass": "ok", "fail": "FAIL", "not-applicable": "n/a"}[c.verdict]
            line = f"[{mark:>4}] {c.name}"
            if c.witness:
                line += f"\n       witness: {c.witness}"
            lines.append(line)
        return "\n".join(lines)

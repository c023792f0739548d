"""The law contract of Report: first witness wins, cases are drawn lazily."""

from lrhopf import CheckResult, Report


def counted(cases, drawn):
    for case in cases:
        drawn.append(case)
        yield case


def odd_witness(n):
    return f"{n} is odd" if n % 2 else None


def test_first_witness_is_recorded_and_returned():
    report = Report()
    witness = report.law("even", [2, 4, 5, 7], odd_witness)
    assert witness == "5 is odd"
    (check,) = report.checks
    assert (check.name, check.verdict, check.witness) == ("even", "fail", "5 is odd")
    assert not report.ok


def test_no_case_is_drawn_after_the_first_failure():
    drawn = []
    Report().law("even", counted(range(2, 100), drawn), odd_witness)
    assert drawn == [2, 3]


def test_passing_law_draws_every_case():
    drawn = []
    report = Report()
    assert report.law("even", counted([0, 2, 4], drawn), odd_witness) is None
    assert drawn == [0, 2, 4]
    assert report.checks[0].verdict == "pass"


def test_empty_cases_pass():
    report = Report()
    assert report.law("vacuous", [], odd_witness) is None
    (check,) = report.checks
    assert (check.verdict, check.witness) == ("pass", None)
    assert report.ok


def test_reports_and_checks_compare_by_value():
    def report():
        r = Report("check")
        r.law("even", [2, 3], odd_witness)
        r.add_na("vacuous")
        return r

    assert report() == report()
    assert report().checks[0] == CheckResult("even", "fail", "3 is odd")
    assert CheckResult("even", "pass") != CheckResult("even", "pass", "")
    assert report() != Report("pbw", report().checks)
    assert Report() == Report("", [])

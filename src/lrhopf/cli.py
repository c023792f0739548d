"""Command line front end.

Every command reads a structure file, runs either a verification battery
or a single computation, and prints a human-readable report or, with
--json, a machine-readable one.  JSON output is deterministic for a fixed
(file, command, seed) triple; the elapsed-time field is zeroed there so
reports can be compared byte for byte.

Exit status: 0 when all checks pass (or the value was computed), 1 when a
check fails, 2 on input errors (unreadable file, parse error, a command
that needs declarations the file does not provide, a sample count below 1
or a negative bound).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .calculus import check_gerstenhaber, check_lr_bialgebra, conjecture_probe
from .dsl import ParseError, parse_env_element, parse_structure_file
from .enveloping import check_action, check_pbw
from .hopf import antipode, check_hopf_lr, coproduct, counit
from .lie_rinehart import check_bi_lr, check_lr_axioms
from .report import Report

_BATTERY_SAMPLES = {
    "check": 50,
    "check-bi": 50,
    "check-hopf": 200,
    "pbw": 500,
    "gerstenhaber": 40,
    "bialgebroid": 40,
    "probe-conjecture": 25,
}


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _add_common(p, *, samples=False, max_degree=False, max_word=False, max_grade=False):
    p.add_argument("file", help="structure declaration file")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    if samples:
        p.add_argument("--samples", type=_int_at_least(1), default=None,
                       help="number of random samples per sampled check")
    if max_degree:
        p.add_argument("--max-degree", type=_int_at_least(0), default=2,
                       help="polynomial degree bound for random coefficients")
    if max_word:
        p.add_argument("--max-word", type=_int_at_least(0), default=None,
                       help="word length bound for exhaustive and random words")
    if max_grade:
        p.add_argument("--max-grade", type=_int_at_least(0), default=2,
                       help="highest multivector grade exercised")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrhopf",
        description="verify Lie-Rinehart structures and compute in their "
        "enveloping algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="module axioms: brackets, anchor, Leibniz")
    _add_common(p, samples=True, max_degree=True)

    p = sub.add_parser("check-bi", help="compatibility with the coefficient coproduct")
    _add_common(p, samples=True, max_degree=True)

    p = sub.add_parser("check-hopf", help="full coproduct/counit/antipode battery")
    _add_common(p, samples=True, max_degree=True, max_word=True)

    p = sub.add_parser("pbw", help="normal-form confluence, layers, module action")
    _add_common(p, samples=True, max_degree=True, max_word=True)

    p = sub.add_parser("gerstenhaber", help="differential and bracket on multivectors")
    _add_common(p, samples=True, max_grade=True)

    p = sub.add_parser("bialgebroid", help="dual-pair compatibility (needs a dual block)")
    _add_common(p, samples=True)

    p = sub.add_parser("probe-conjecture",
                       help="measure the perturbed coproduct (needs a dual block)")
    _add_common(p, samples=True, max_word=True)

    for name, help_text in (
        ("nf", "rewrite an expression to normal form"),
        ("coproduct", "apply the coproduct to an expression"),
        ("counit", "apply the counit to an expression"),
        ("antipode", "apply the antipode to an expression"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="structure declaration file")
        p.add_argument("expr", help="expression in the declared names")
        p.add_argument("--seed", type=int, default=0, help="recorded in the report")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    return parser


def _battery(args, S, dual) -> Report:
    cmd = args.command
    samples = args.samples if args.samples is not None else _BATTERY_SAMPLES[cmd]
    if cmd == "check":
        return check_lr_axioms(S, seed=args.seed, samples=samples,
                               max_degree=args.max_degree)
    if cmd == "check-bi":
        return check_bi_lr(S, seed=args.seed, samples=samples,
                           max_degree=args.max_degree)
    if cmd == "check-hopf":
        max_word = args.max_word if args.max_word is not None else 3
        return check_hopf_lr(S, seed=args.seed, samples=samples,
                             max_word=max_word, max_degree=args.max_degree)
    if cmd == "pbw":
        max_word = args.max_word if args.max_word is not None else 3
        rep = check_pbw(S, seed=args.seed, samples=samples,
                        max_word=max_word, max_degree=args.max_degree)
        action_samples = args.samples if args.samples is not None else 200
        rep.extend(check_action(S, seed=args.seed, samples=action_samples,
                                max_word=max_word, max_degree=args.max_degree))
        return rep
    if cmd == "gerstenhaber":
        return check_gerstenhaber(S, seed=args.seed, samples=samples,
                                  max_grade=args.max_grade)
    if cmd == "bialgebroid":
        if dual is None:
            raise ParseError("the bialgebroid command needs a dual block")
        return check_lr_bialgebra(S, dual, seed=args.seed, samples=samples)
    if cmd == "probe-conjecture":
        if dual is None:
            raise ParseError("the probe-conjecture command needs a dual block")
        max_word = args.max_word if args.max_word is not None else 2
        return conjecture_probe(S, dual, seed=args.seed, samples=samples,
                                max_word=max_word)
    raise AssertionError(cmd)


def _value(args, S) -> str:
    u = parse_env_element(args.expr, S)
    if args.command == "nf":
        return str(u)
    if args.command == "coproduct":
        return str(coproduct(u))
    if args.command == "counit":
        return str(counit(u))
    if args.command == "antipode":
        return str(antipode(u))
    raise AssertionError(args.command)


def _emit_json(command, seed, checks, result=None):
    payload = {"command": command, "seed": seed, "checks": checks}
    if result is not None:
        payload["result"] = result
    payload["elapsed_ms"] = 0
    print(json.dumps(payload, indent=2))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        decl = parse_structure_file(text)
        S, dual = decl.build()
        if args.command in _BATTERY_SAMPLES:
            report = _battery(args, S, dual)
            result = None
        else:
            report = None
            result = _value(args, S)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.monotonic() - started) * 1000)

    if report is not None:
        if args.json:
            _emit_json(args.command, args.seed,
                       report.to_dict()["checks"])
        else:
            print(report)
            verdict = "PASS" if report.ok else "FAIL"
            print(f"{args.command}: {verdict} "
                  f"({len(report.checks)} checks, {elapsed_ms} ms)")
        return 0 if report.ok else 1

    if args.json:
        _emit_json(args.command, args.seed, [], result=result)
    else:
        print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

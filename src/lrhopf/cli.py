"""Command line front end.

Every command reads a structure file, runs either a verification battery
or a single computation, and prints a human-readable report or, with
--json, a machine-readable one.  JSON output is deterministic for a fixed
(file, command, seed) triple; the elapsed-time field is zeroed there so
reports can be compared byte for byte.

Exit status: 0 when all checks pass (or the value was computed), 1 when a
check fails, 2 on input errors (a file that cannot be read or is not
UTF-8, a parse error, a command that needs declarations the file does
not provide, a sample count below 1 or a negative bound, a battery
larger than its ceiling: see MAX_SAMPLES and MAX_WORD_PAIRS), 3 on any
other exception, which is a fault of lrhopf itself: it prints the one
line `error: internal error: <exception type>: <message>` and no
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .calculus import check_gerstenhaber, check_lr_bialgebra, conjecture_probe
from .dsl import ParseError, parse_env_element, parse_structure_file
from .enveloping import check_action, check_pbw
from .hopf import antipode, check_hopf_lr, coproduct, counit
from .lie_rinehart import check_bi_lr, check_lr_axioms
from .report import Report


def _needs_dual(dual, command: str):
    if dual is None:
        raise ParseError(f"the {command} command needs a dual block")
    return dual


# battery command -> (help, its options with their defaults, its batteries).
# A battery is (default sample count, runner); the runner takes the
# structure, its dual block (None when the file declares none) and the
# keyword arguments seed, samples and the command's options.  --samples
# overrides every default, and the batteries' reports are joined in order.
_COMMANDS = {
    "check": (
        "module axioms: brackets, anchor, Leibniz", {"max_degree": 2},
        [(50, lambda S, dual, **kw: check_lr_axioms(S, **kw))],
    ),
    "check-bi": (
        "compatibility with the coefficient coproduct", {"max_degree": 2},
        [(50, lambda S, dual, **kw: check_bi_lr(S, **kw))],
    ),
    "check-hopf": (
        "full coproduct/counit/antipode battery", {"max_degree": 2, "max_word": 3},
        [(200, lambda S, dual, **kw: check_hopf_lr(S, **kw))],
    ),
    "pbw": (
        "normal-form confluence, layers, module action", {"max_degree": 2, "max_word": 3},
        [(500, lambda S, dual, **kw: check_pbw(S, **kw)),
         (200, lambda S, dual, **kw: check_action(S, **kw))],
    ),
    "gerstenhaber": (
        "differential and bracket on multivectors", {"max_grade": 2},
        [(40, lambda S, dual, **kw: check_gerstenhaber(S, **kw))],
    ),
    "bialgebroid": (
        "dual-pair compatibility (needs a dual block)", {},
        [(40, lambda S, dual, **kw: check_lr_bialgebra(
            S, _needs_dual(dual, "bialgebroid"), **kw))],
    ),
    "probe-conjecture": (
        "measure the perturbed coproduct (needs a dual block)", {"max_word": 2},
        [(25, lambda S, dual, **kw: conjecture_probe(
            S, _needs_dual(dual, "probe-conjecture"), **kw))],
    ),
}

# every battery option: flag and help, in the order the parsers list them
_OPTIONS = {
    "max_degree": ("--max-degree", "polynomial degree bound for random coefficients"),
    "max_word": ("--max-word", "word length bound for exhaustive and random words"),
    "max_grade": ("--max-grade", "highest multivector grade exercised"),
}


# Ceilings on the size of a battery request, so that a huge one ends at once
# with exit 2 instead of running for hours: a --samples count, and the
# number of pairs of normal words up to --max-word, C(rank + max_word,
# rank)^2, which check-hopf's exhaustive multiplicativity law runs over
# (gl3, rank 9, at --max-word 3 has 48,400).  The library batteries take
# any size.
MAX_SAMPLES = 10_000
MAX_WORD_PAIRS = 100_000


def _refuse_huge(args, S) -> None:
    if args.samples is not None and args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples {args.samples} is above the ceiling of {MAX_SAMPLES}")
    max_word = getattr(args, "max_word", None)
    if max_word is not None and math.comb(S.rank + max_word, S.rank) ** 2 > MAX_WORD_PAIRS:
        raise ValueError(f"--max-word {max_word} gives more pairs of normal words on this "
                         f"structure (rank {S.rank}) than the ceiling of {MAX_WORD_PAIRS}")


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


def _add_battery_options(p, options: dict):
    p.add_argument("file", help="structure declaration file")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--samples", type=_int_at_least(1), default=None,
                   help="number of random samples per sampled check")
    for name, (flag, help_text) in _OPTIONS.items():
        if name in options:
            p.add_argument(flag, type=_int_at_least(0), default=options[name],
                           help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrhopf",
        description="verify Lie-Rinehart structures and compute in their "
        "enveloping algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, options, _) in _COMMANDS.items():
        _add_battery_options(sub.add_parser(name, help=help_text), options)

    for name, help_text in (
        ("nf", "rewrite an expression to normal form"),
        ("coproduct", "apply the coproduct to an expression"),
        ("counit", "apply the counit to an expression"),
        ("antipode", "apply the antipode to an expression"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="structure declaration file")
        p.add_argument("expr", help="expression in the declared names; one that "
                       "starts with '-' goes after '--'")
        p.add_argument("--seed", type=int, default=0, help="recorded in the report")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    return parser


def _battery(args, S, dual) -> Report:
    _, options, batteries = _COMMANDS[args.command]
    _refuse_huge(args, S)
    kwargs = {name: getattr(args, name) for name in options}
    report = Report()
    for default, run in batteries:
        samples = args.samples if args.samples is not None else default
        report.extend(run(S, dual, seed=args.seed, samples=samples, **kwargs))
    return report


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
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        decl = parse_structure_file(text)
        S, dual = decl.build()
        if args.command in _COMMANDS:
            report = _battery(args, S, dual)
            result = None
        else:
            report = None
            result = _value(args, S)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
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

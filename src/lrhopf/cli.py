"""Command line front end.

Every command reads a structure file, runs either a verification battery
or a single computation, and prints a human-readable report or, with
--json, a machine-readable one.  JSON output is deterministic for a fixed
(file, command, seed) triple; the elapsed-time field is zeroed there so
reports can be compared byte for byte.

Exit status: 0 when all checks pass (or the value was computed), 1 when a
check fails, 2 on input errors (a file that cannot be read or is not
UTF-8, a parse error, a command that needs declarations the file does
not provide, a sample count below 1 or a negative bound, a battery or
a coproduct or an antipode larger than its ceiling: see MAX_SAMPLES,
MAX_WORD_PAIRS, MAX_BASIS_TRIPLES, MAX_PBW_WORD, MAX_PBW_LAYER_WORDS,
MAX_DEGREE, MAX_COPRODUCT_TERMS and MAX_ANTIPODE_INVERSIONS, and an
expression over the limits of `dsl`, MAX_INVERSIONS among them), 3 on any
other exception, which is a fault of lrhopf itself: it prints the one line
`error: internal error: <exception type>: <message>` and no traceback.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time

from .algebra import comultiplication
from .calculus import check_gerstenhaber, check_lr_bialgebra
from .dsl import ParseError, parse_env_element, parse_structure_file
from .enveloping import check_action, check_pbw
from .hopf import antipode, check_hopf_lr, conjecture_probe, coproduct, counit
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
        [(500, lambda S, dual, **kw: check_pbw(S, max_layer=PBW_LAYERS, **kw)),
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
# rank)^2, which the exhaustive word x word laws of check-hopf
# (multiplicativity) and probe-conjecture run over (gl3, rank 9, at
# --max-word 3 has 48,400).  The library batteries take any size.
MAX_SAMPLES = 10_000
MAX_WORD_PAIRS = 100_000
# The rank alone bounds these commands too: check runs the Jacobi law on all
# C(rank, 3) basis triples, check-bi and check-hopf run it once more on the
# tensor square, and bialgebroid sends every basis pair through the dual
# differential.  With one primitive generator and no brackets, one CPU took
# 16.6 s (check), 18.5 s (check-bi) and 26.8 s (bialgebroid) at rank 120
# (280,840 triples) and 38 s for check at rank 160; gl8 (rank 64, 41,664
# triples) takes 4.1 s for check.
MAX_BASIS_TRIPLES = 50_000
# pbw runs no word x word law: its --max-word bounds the random words of
# its random laws, and its cost grows with the rank through its layer law,
# which multiplies out the reversed product of each of the C(rank +
# PBW_LAYERS, rank) - 1 normal words of length 1 to PBW_LAYERS.  In one
# process on an x86_64 CPU the pbw battery took 2.0 s on gl4 (rank 16,
# 20,348 words), 13.4 s on gl5 (rank 25, 142,505 words) and 71 s on gl6,
# against a budget of 10 s; and at --max-word 5 it took 7.2 s on gl4 and
# 3.5 s on gl3, at 6 14.9 s on gl3, at 40 61 s on aff2.  Since the layer
# law builds each reversed product on the layer before's, gl5 took 8.0 s
# where it had taken 16.7 s on the same host.
PBW_LAYERS = 5
MAX_PBW_LAYER_WORDS = 50_000
MAX_PBW_WORD = 5
# A --max-degree too, the degree bound of the random coefficients.  On
# an x86_64 CPU, check-hopf took 19 s on gl3 (rank 9) at 10 and 29 s at
# 12, and 2-5 s on gl2.lra at 10 (seeds 0-3) but up to 17 s at 16,
# against a budget of 30 s per structure.
MAX_DEGREE = 10
# Ceilings on the argument of the coproduct command, checked before it is
# computed: the number of monomials of its closed form, at most the sum
# over terms a w of the splits of w (the product over the runs x^n of w
# of n + 1) times the monomials of coproduct_A(a) (the sum over the
# monomials of a of the product over their generators y^e of the
# monomials of coproduct_A(y^e): e + 1 for a primitive y, 1 for a
# group-like one), and the degree of a coefficient's monomial, since
# coproduct_A(y^n) takes about n^2 big-integer steps.
MAX_COPRODUCT_TERMS = 20_000
MAX_COPRODUCT_DEGREE = 200
# A ceiling on the argument of the antipode command, checked before it is
# computed: the inversions of its words reversed (the pairs of letters out
# of order), summed over the monomials c y^e of each term a w.  S(w)
# reverses w and rewrites it back to normal form, at a cost that grows
# steeply with the inversions, and each monomial of a costs one more
# product S(w) S_A(y^e): on an x86_64 CPU, 400 took 0.26 s (e^20*f^20 on
# sl2), 600 took 1.1 s and 1,536 took 12.9 s (E11^k*E12^k*E21^k*E22^k on
# gl2, k = 10 and 16), and the 61 monomials of (1+y1)^60 on gl2's word of
# 600 took 19 s.
MAX_ANTIPODE_INVERSIONS = 800


def _refuse_huge(args, S) -> None:
    if args.samples is not None and args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples {args.samples} is above the ceiling of {MAX_SAMPLES}")
    max_degree = getattr(args, "max_degree", None)
    if max_degree is not None and max_degree > MAX_DEGREE:
        raise ValueError(f"--max-degree {max_degree} is above the ceiling of {MAX_DEGREE}")
    triples = math.comb(S.rank, 3)
    if args.command in ("check", "check-bi", "check-hopf", "bialgebroid") and \
            triples > MAX_BASIS_TRIPLES:
        raise ValueError(f"{args.command} would run over {triples} basis triples on this "
                         f"structure (rank {S.rank}), above the ceiling of {MAX_BASIS_TRIPLES}")
    max_word = getattr(args, "max_word", None)
    if args.command == "pbw":
        if max_word > MAX_PBW_WORD:
            raise ValueError(f"--max-word {max_word} is above pbw's ceiling of {MAX_PBW_WORD}")
        words = math.comb(S.rank + PBW_LAYERS, S.rank) - 1
        if words > MAX_PBW_LAYER_WORDS:
            raise ValueError(f"pbw's layer law would multiply out {words} normal words on this "
                             f"structure (rank {S.rank}), above the ceiling of "
                             f"{MAX_PBW_LAYER_WORDS}")
    elif max_word is not None and math.comb(S.rank + max_word, S.rank) ** 2 > MAX_WORD_PAIRS:
        raise ValueError(f"--max-word {max_word} gives more pairs of normal words on this "
                         f"structure (rank {S.rank}) than the ceiling of {MAX_WORD_PAIRS}")


def _refuse_huge_coproduct(u) -> None:
    degree = max((sum(map(abs, e)) for a in u.terms.values() for e in a.terms), default=0)
    if degree > MAX_COPRODUCT_DEGREE:
        raise ValueError(f"a coefficient of degree {degree} is above the coproduct's "
                         f"ceiling of {MAX_COPRODUCT_DEGREE}")
    # coproduct_A(y^e) has at most C(|e| + t - 1, |e|) monomials when
    # coproduct_A(y) has t
    sizes = [len(img.terms) for img in comultiplication(u.structure.algebra).images]
    size = 0
    for w, a in u.terms.items():
        splits = math.prod(len(list(run)) + 1 for _, run in itertools.groupby(w))
        for e in a.terms:
            size += splits * math.prod(math.comb(abs(n) + t - 1, abs(n))
                                       for n, t in zip(e, sizes))
    if size > MAX_COPRODUCT_TERMS:
        raise ValueError(f"a coproduct of up to {size} terms is above the ceiling of "
                         f"{MAX_COPRODUCT_TERMS}")


def _refuse_huge_antipode(u) -> None:
    inversions = 0
    for w, a in u.terms.items():
        runs = [len(list(run)) for _, run in itertools.groupby(w)]
        pairs = math.comb(len(w), 2) - sum(math.comb(n, 2) for n in runs)
        inversions += pairs * len(a.terms)
    if inversions > MAX_ANTIPODE_INVERSIONS:
        raise ValueError(f"an antipode with {inversions} letter pairs to reorder is above the "
                         f"ceiling of {MAX_ANTIPODE_INVERSIONS}")


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
        _refuse_huge_coproduct(u)
        return str(coproduct(u))
    if args.command == "counit":
        return str(counit(u))
    if args.command == "antipode":
        _refuse_huge_antipode(u)
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

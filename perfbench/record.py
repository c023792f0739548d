"""Record the expected values of every workload into expected.json.

    python3 perfbench/record.py [workload ...]

Run it from a checkout root on a commit whose outputs are trusted; the
committed expected.json was recorded on the commit that introduced the
benchmark.  Verdicts and exit codes are not recorded: they are the
hand-written tables in workloads.py, and this script stops if the code
disagrees with them.  What is recorded are digests of values: the ordered
(check, verdict) list of each battery report, the stdout of each value
command, and str() of every envalg-stream universe item's result.  Named
workloads are recorded again and the others kept as they are.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def record_hopf_verify(lr) -> dict:
    out = {}
    for f in wl.HopfVerify.FIXTURES:
        sigs = set()
        for seed in (0, 1):
            S, _ = lr.parse_structure_file(wl.fixture_text(f)).build()
            report = lr.check_hopf_lr(S, seed=seed, **wl.HopfVerify.SETTINGS)
            if report.ok != wl.HopfVerify.PASSES[f]:
                sys.exit(f"hopf-verify: {f} verdict disagrees with the table")
            sigs.add(wl.check_signature((c.name, c.verdict) for c in report.checks))
        if len(sigs) != 1:
            sys.exit(f"hopf-verify: {f} report depends on the battery seed")
        out[f] = sigs.pop()
        print("hopf-verify", f, out[f], flush=True)
    return out


def record_cli_sweep() -> dict:
    out = {}
    for f in wl.ALL_FIXTURES:
        for cmd in wl.BATTERY_COMMANDS:
            want = wl.expected_exit(f, cmd)
            sigs = set()
            for seed in (0, 1):
                code, stdout, _ = wl.run_cli([cmd, wl.fixture_arg(f), "--json",
                                              "--seed", str(seed)], wl.OP_TIMEOUT_S)
                if code != want:
                    sys.exit(f"cli-sweep: {f} {cmd} exits {code}, table says {want}")
                if code != 2:
                    checks = json.loads(stdout)["checks"]
                    sigs.add(wl.check_signature((c["name"], c["verdict"]) for c in checks))
            if len(sigs) > 1:
                sys.exit(f"cli-sweep: {f} {cmd} report depends on the battery seed")
            if sigs:
                out[f"{f} {cmd}"] = sigs.pop()
        for cmd in wl.VALUE_COMMANDS:
            code, stdout, _ = wl.run_cli([cmd, wl.fixture_arg(f), wl.EXPRESSIONS[f],
                                          "--json"], wl.OP_TIMEOUT_S)
            if code != 0:
                sys.exit(f"cli-sweep: {f} {cmd} exits {code}")
            out[f"{f} {cmd}"] = wl.digest(stdout)
        print("cli-sweep", f, flush=True)
    return out


def record_envalg_stream(lr) -> dict:
    out = {}
    for f in wl.STREAM_STRUCTURES:
        universe = wl.Universe(lr, f)
        for kind in wl.STREAM_KINDS:
            for size, count in wl.UNIVERSE.items():
                out[f"{f}/{kind}/{size}"] = "".join(
                    wl.digest(str(wl.stream_apply(lr, kind, universe.operands(kind, size, i))))
                    for i in range(count))
                print("envalg-stream", f, kind, size, flush=True)
    return out


def main(argv: list[str]) -> int:
    lr = wl.import_lrhopf()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=wl.ROOT,
                            capture_output=True, text=True).stdout.strip()
    recorders = {
        "hopf-verify": lambda: record_hopf_verify(lr),
        "cli-sweep": record_cli_sweep,
        "envalg-stream": lambda: record_envalg_stream(lr),
    }
    names = argv or list(recorders)
    unknown = set(names) - set(recorders)
    if unknown:
        sys.exit(f"unknown workload: {', '.join(sorted(unknown))}")
    expected = {"recorded_at": commit}
    if argv:
        with open(wl.BENCH / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)
        if expected["recorded_at"] != commit:
            sys.exit(f"expected.json was recorded at {expected['recorded_at']}, not {commit}")
    for name in names:
        expected[name] = recorders[name]()
    with open(wl.BENCH / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark for lrhopf.  Run from the root of a checkout:

    python3 perfbench/run.py --workload hopf-verify --seed 1 --seconds 20 --trace 0

Workloads: hopf-verify, cli-sweep, envalg-stream (see workloads.py).  A run
pins itself to one CPU, sets the workload up several times and reports the
median set-up time, then measures whole rounds of requests until --seconds
have passed; a round is never cut short.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Times are calibrated (see speed.py): each wall time is rescaled by how fast
the host ran a fixed reference computation around it, so that the noise of
a shared host does not swamp the program's own changes.  The same metrics
from raw wall-clock times are printed on the "# wall" line.

--trace 0 reports the end-to-end metrics, on every workload:
  setup_s        median set-up: import, parsing, input generation, warm-up
  verdict_s      busy time of one round, median over rounds
                 (hopf-verify: the five verdicts)
  verdict_max_s  the slowest fixture's share of a round, median over rounds
                 (hopf-verify: the gl2 verdict)
  ops_per_s      requests per second of busy time (closed loop, one client)
  op_p50_ms, op_p90_ms  request latency percentiles over the run
                 (hopf-verify: of each round, median over rounds)
  peak_rss_mb    peak resident memory; the children's peak for cli-sweep
Failed requests (a wrong verdict, exit code or value, a timeout or a crash)
are the result's "failed" count; fail_ratio is printed on the "# env" line,
with the median time of the reference computation (probe_median_s), which
shows how fast the host was during the run.

--trace 1 is a separate run: it
measures the same number of rounds untraced and then traced, reports the
per-layer metrics and the tracing overhead, and writes every span to
.perfbench_out/.  Per-layer times are wall clock.

Only the standard library is used.  The package is imported from ./src;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from speed import Calibrator, pin_to_one_cpu  # noqa: E402
from tracer import REPORTED, Tracer, layer_metrics, merge_summaries  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("verdict_max_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# new rounds stop starting after this much wall time, to end within 180 s
HARD_STOP_S = 120.0
# Rounds this large leave at least ten requests beyond p90, so the latency
# percentiles pool every request of the run.  Smaller rounds (hopf-verify's
# five verdicts) give each round's percentiles, median over rounds, which
# do not jump with the number of rounds that fitted in the run.
POOLED_PERCENTILES_FROM = 100


def load_expected() -> dict:
    with open(wl.BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def cpu_seconds(since: float = 0.0) -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime - since


def measure(workload, seconds: float, started: float, first_round: int = 0,
            rounds: int | None = None, tracer=None) -> list[list]:
    """Whole rounds until `seconds` have passed, or exactly `rounds`."""
    done: list[list] = []
    t0 = perf_counter()
    r = first_round
    while True:
        if rounds is not None:
            if len(done) >= rounds:
                break
        elif done and perf_counter() - t0 >= seconds:
            break
        if done and perf_counter() - started > HARD_STOP_S:
            break
        done.append(workload.run_round(r, tracer))
        r += 1
    return done


def slowest_fixture_s(ops, attr: str) -> float:
    per_fixture: dict[str, float] = {}
    for op in ops:
        per_fixture[op.fixture] = per_fixture.get(op.fixture, 0.0) + getattr(op, attr)
    return max(per_fixture.values())


def deciles(latencies: list[float]) -> tuple[float, float]:
    d = statistics.quantiles(latencies, n=10, method="inclusive")
    return d[4], d[8]


def end_to_end(rounds: list[list], setup_s: float, peak_rss_mb: float,
               attr: str = "cal") -> dict:
    """The end-to-end metrics from calibrated latencies, or from wall
    latencies with attr="latency".  Per-round figures are medians over the
    rounds, so they do not depend on how many rounds fitted in the run."""
    lat = [[getattr(op, attr) for op in ops] for ops in rounds]
    if len(lat[0]) >= POOLED_PERCENTILES_FROM:
        p50, p90 = deciles([x for r in lat for x in r])
    else:
        p50, p90 = (statistics.median(d) for d in zip(*map(deciles, lat)))
    values = {
        "setup_s": setup_s,
        "verdict_s": statistics.median(sum(r) for r in lat),
        "verdict_max_s": statistics.median(slowest_fixture_s(ops, attr) for ops in rounds),
        "ops_per_s": sum(map(len, lat)) / sum(map(sum, lat)),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def trace_rounds(workload, seconds: float, started: float) -> tuple[list, list, Tracer]:
    """Untraced rounds, then as many traced rounds."""
    untraced = measure(workload, seconds, started)
    wl.OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    if not isinstance(workload, wl.CliSweep):  # the CLI's children trace themselves
        tracer.install(workload.structures())
    first = 0 if workload.replay_in_trace else len(untraced)
    try:
        traced = measure(workload, seconds, started, first_round=first,
                         rounds=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


def traced_metrics(workload, untraced: list, traced: list, tracer: Tracer,
                   cpu0: float) -> dict:
    """Per-layer metrics of a traced run; writes its spans to OUT_DIR."""
    def busy(rounds):
        return sum(op.cal for ops in rounds for op in ops)

    parts = [tracer.summary()]
    extra = {
        "trace.overhead_ratio": busy(traced) / busy(untraced[:len(traced)]) - 1.0,
        "run.cpu_s": cpu_seconds(cpu0),
    }
    processes = [("parent", 0, tracer.names, tracer.spans)]
    if isinstance(workload, wl.CliSweep):
        parts += [child["summary"] for child in workload.children]
        processes += [(f"request {i}", i, child["names"], child["spans"])
                      for i, child in enumerate(workload.children)]
        process_s, main_s = workload.child_process_s, workload.child_main_s
        extra.update({
            "cli.process_s": statistics.median(process_s),
            "cli.main_s": statistics.median(main_s),
            "cli.startup_s": statistics.median(p - m for p, m in zip(process_s, main_s)),
        })
        hostile = workload.hostile()
        for request, code in hostile:
            print(f"# hostile request failed: {request} -> "
                  f"{'timeout' if code is None else f'exit {code}'} (want exit 2)")
        extra["cli.hostile_failed"] = len(hostile)
    if isinstance(workload, wl.EnvalgStream):
        extra["stream.repeat_ratio"] = workload.repeat_ratio()

    path = wl.OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for label, request, names, spans in processes:
            # span: (name index, start, end, parent span index, request id)
            fh.write(json.dumps({"process": label, "request": request,
                                 "names": names, "spans": spans}) + "\n")
    print(f"# spans written to {os.path.relpath(path, wl.ROOT)}")
    layers = layer_metrics(merge_summaries(parts), extra)
    print("# layers " + json.dumps({k: m["value"] for k, m in layers.items()}))
    return {k: layers[k] for k in REPORTED}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 expected: dict | None = None, **options) -> dict:
    """One benchmark run; returns the result object (and prints notes)."""
    started = perf_counter()
    cpu0 = cpu_seconds()
    load_1m = os.getloadavg()[0]
    expected = expected or load_expected()
    kind = wl.WORKLOADS[name]
    setups = []
    with Calibrator(start_up=kind is wl.CliSweep) as calibrator:
        for _ in range(1 if trace else kind.setup_reps):
            # the previous repetition's objects are freed before timing
            workload = None
            gc.collect()
            workload = kind(seed, expected, **options)
            t0 = perf_counter()
            workload.setup()
            setups.append((t0, perf_counter()))
            calibrator.between_requests()
        workload.calibrator = calibrator
        if trace:
            untraced, traced, tracer = trace_rounds(workload, seconds, started)
            rounds = untraced + traced
        else:
            rounds = measure(workload, seconds, started)
    ops = [op for r in rounds for op in r]
    for op in ops:
        op.cal = calibrator.calibrate(op.start, op.start + op.latency)
    if trace:
        metrics = traced_metrics(workload, untraced, traced, tracer, cpu0)
    else:
        rss = peak_rss_mb(children=isinstance(workload, wl.CliSweep))
        metrics = end_to_end(rounds, statistics.median(calibrator.calibrate(*s) for s in setups),
                             rss)
        raw = end_to_end(rounds, statistics.median(b - a for a, b in setups), rss, "latency")
        print("# wall " + json.dumps({k: m["value"] for k, m in raw.items()}))
    failed = [op.label for op in ops if not op.ok]
    env = {
        "workload": name, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_1m_start": load_1m, "rounds": len(rounds),
        "wall_s": perf_counter() - started, "cpu_s": cpu_seconds(cpu0),
        "probe_median_s": statistics.median(calibrator.compute.durations),
        "fail_ratio": len(failed) / len(ops),
    }
    print("# env " + json.dumps(env))
    for label in failed[:20]:
        print(f"# failed: {label}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (wl.SRC / "lrhopf" / "__init__.py").is_file():
        print(f"error: no lrhopf package under {wl.SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

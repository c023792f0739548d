"""Measure the baseline kept in baseline.json.

    python3 perfbench/baseline.py FIRST_SEED [workload ...]   (from a checkout root)

For each workload (all by default) it makes ten --trace 0 runs, seeds
FIRST_SEED to FIRST_SEED + 9, and one --trace 1 run on FIRST_SEED, each as
its own `python3 perfbench/run.py` process at BENCHMARK.json's run_seconds.
It rewrites the measured parts of baseline.json: median, quartiles and
IQR/median of every end-to-end metric, calibrated and wall clock (the
"# wall" line), requests per run, failures, wall and CPU time per run, the
median probe time, the traced run's per-layer values and the measured
repeat shares of the mix.  The rest of the mix description is kept.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run; returns its result object and its "# ..." note lines."""
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=wl.ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    notes = {}
    for line in lines[:-1]:
        for tag in ("env", "wall", "layers"):
            if line.startswith(f"# {tag} "):
                notes[tag] = json.loads(line[len(tag) + 3:])
    return json.loads(lines[-1]), notes


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def measure(workload: str, first_seed: int, seconds: int) -> dict:
    seeds = list(range(first_seed, first_seed + RUNS))
    results, notes = zip(*(run(workload, seed, seconds, 0) for seed in seeds))
    if not all(r["correct"] for r in results):
        sys.exit(f"{workload}: a run had failed requests")
    units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
    traced, traced_notes = run(workload, first_seed, seconds, 1)
    return {
        "seeds": seeds,
        "end_to_end": {name: {"unit": unit,
                              **summary([r["metrics"][name]["value"] for r in results])}
                       for name, unit in units.items()},
        "end_to_end_wall": {name: summary([n["wall"][name] for n in notes]) for name in units},
        "attempted_per_run": statistics.median(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "wall_s_median": statistics.median(n["env"]["wall_s"] for n in notes),
        "cpu_s_median": statistics.median(n["env"]["cpu_s"] for n in notes),
        "probe_s_median": statistics.median(n["env"]["probe_median_s"] for n in notes),
        "traced_run": {"seed": first_seed, "layers": traced_notes["layers"],
                       "correct": traced["correct"]},
    }


def main(argv: list[str]) -> int:
    first_seed, names = int(argv[0]), argv[1:] or list(wl.WORKLOADS)
    seconds = json.loads((wl.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    path = wl.BENCH / "baseline.json"
    baseline = json.loads(path.read_text())
    for name in names:
        entry = baseline["workloads"][name]
        entry.update(measure(name, first_seed, seconds))
        entry["mix"]["measured_repeat_share"] = {
            k: v for k, v in entry["traced_run"]["layers"].items() if k.endswith("repeat_ratio")}
        print(name, json.dumps({k: round(m["iqr_over_median"], 3)
                                for k, m in entry["end_to_end"].items()}), flush=True)
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

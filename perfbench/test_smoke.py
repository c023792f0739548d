"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/test_smoke.py      (from a checkout root)

Each workload runs one small round; the test checks the metric names and
units against BENCHMARK.json and that a deliberately wrong expectation
is counted as a failed request.  A last test checks the calibration's
arithmetic on made-up probe samples.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402

TINY = {
    "hopf-verify": {"fixtures": ("euler", "torus")},
    "cli-sweep": {"fixtures": ("euler", "torus")},
    "envalg-stream": {"fixtures": ("aff2", "torus"), "small_per_round": 2},
}
# one recorded value per workload, corrupted to prove the check bites
CORRUPT = {
    "hopf-verify": "euler",
    "cli-sweep": "torus check-bi",
    "envalg-stream": "torus/antipode/small",
}


def flip(digests: str) -> str:
    """Change every 8-digit digest in a string of them."""
    return "".join("%08x" % (int(digests[i:i + 8], 16) ^ 1)
                   for i in range(0, len(digests), 8))


def declared(kind):
    spec = json.loads((run.wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class SmokeTest(unittest.TestCase):
    def metrics(self, result):
        return {name: m["unit"] for name, m in result["metrics"].items()}

    def test_end_to_end_metrics(self):
        for name, options in TINY.items():
            with self.subTest(workload=name):
                result = run.run_workload(name, 1, 0.001, False, **options)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(self.metrics(result), declared("end_to_end"))
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_metrics(self):
        for name in ("envalg-stream", "cli-sweep"):
            with self.subTest(workload=name):
                result = run.run_workload(name, 2, 0.001, True, **TINY[name])
                self.assertTrue(result["correct"])
                self.assertEqual(self.metrics(result), declared("per_layer"))

    def test_wrong_expectation_is_a_failure(self):
        for name, key in CORRUPT.items():
            with self.subTest(workload=name):
                expected = copy.deepcopy(run.load_expected())
                expected[name][key] = flip(expected[name][key])
                result = run.run_workload(name, 3, 0.001, False, expected, **TINY[name])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["failed"], result["attempted"])

    def test_calibration_cancels_host_speed(self):
        sampler = speed.SpeedSampler(speed.IN_PROCESS)
        probe = speed.IN_PROCESS
        # the host ran the probe at half the reference speed throughout
        sampler.starts = [0.0, 1.0, 2.0, 3.0]
        sampler.durations = [2 * probe.ref_s] * 4
        self.assertAlmostEqual(sampler.busy(0.5, 2.5), 2.0 - 4 * probe.ref_s)
        self.assertAlmostEqual(sampler.factor(0.5, 2.5), 0.5 ** probe.sensitivity)


if __name__ == "__main__":
    unittest.main()

"""Calibration of wall times against the machine's speed at that moment.

The benchmark runs on shared hosts whose speed changes by up to 2x for
seconds to minutes at a time (other tenants on the same cores), which
moves every wall time with it.  A SpeedSampler times a fixed reference
computation (a probe, standard library only, so no change to lrhopf can
alter it) while the workload runs.  Wall time [t0, t1] of a request is then
rescaled by the probe times sampled around it:

    calibrated = (wall - probe time inside [t0, t1]) * (probe.ref_s / local probe time) ** a

so a calibrated time is the wall time the request would take on a machine
that runs the probe in probe.ref_s.  The exponent a = probe.sensitivity is
how strongly the calibrated work follows the probe: the slope of log(work
time) against log(probe time) as the host's speed changes.  For check_hopf_lr
verdicts against the in-process probe it measured 0.76 (two fixtures, 4 s
buckets over 90 s in which the probe's time varied 2x); process start-up
against the process probe follows it one to one.  There are two probes:

* IN_PROCESS times `poly_probe` on a thread every 50 ms.  It calibrates
  requests that run inside the benchmark's process, and the part of a CLI
  request after its start-up, which runs on the same CPU meanwhile.
* NEW_PROCESS starts a Python process that runs `poly_probe`, between CLI
  requests.  It calibrates their first START_UP_S, process start-up, which
  slows down differently from arithmetic.

The whole benchmark and its children are pinned to one CPU first, so the
probe and the request share a core.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from probe import poly_probe

MIN_SAMPLES = 3
# the part of a CLI request that NEW_PROCESS calibrates: about the median
# time from process start to the CLI's main()
START_UP_S = 0.2


_PROCESS_PROBE = [sys.executable, "-I", "-S", "-c",
                  f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from probe import poly_probe\n"
                  "for _ in range(5): poly_probe()"]


def process_probe() -> None:
    subprocess.run(_PROCESS_PROBE, check=True, stdout=subprocess.DEVNULL)


@dataclass(frozen=True)
class Probe:
    run: Callable[[], object]
    # the probe's median time on the reference machine (2-vCPU Xeon VM,
    # Python 3.11.7) while no other tenant slowed it
    ref_s: float
    # seconds between samples on a thread; None: sampled between requests
    period_s: float | None
    # samples this close to a request describe its speed
    window_s: float
    # the exponent a above
    sensitivity: float


IN_PROCESS = Probe(poly_probe, 0.0013, 0.05, 0.25, 0.76)
NEW_PROCESS = Probe(process_probe, 0.050, None, 0.5, 1.0)


def pin_to_one_cpu() -> None:
    """Run this process, its later threads and children on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    """Samples the probe's time on entry and exit, and in between either
    periodically on a background thread or at every sample() call."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = None
        if probe.period_s is not None:
            self._thread = threading.Thread(target=self._loop, name="speed-sampler",
                                            daemon=True)

    def sample(self):
        t0 = perf_counter()
        self.probe.run()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def _loop(self):
        while not self._stop.wait(self.probe.period_s):
            self.sample()

    def __enter__(self):
        self.sample()
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self.sample()

    def busy(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] less the probe time inside it."""
        inside = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return max(t1 - t0 - sum(self.durations[inside[0]:inside[1]]), 0.0)

    def factor(self, t0: float, t1: float) -> float:
        """(reference probe time / probe time around [t0, t1]) ** a; call
        it once the sampler has stopped."""
        starts, window = self.starts, self.probe.window_s
        lo = bisect.bisect_left(starts, t0 - window)
        hi = bisect.bisect_right(starts, t1 + window)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
        local = statistics.median(self.durations[lo:hi])
        return (self.probe.ref_s / local) ** self.probe.sensitivity


class Calibrator:
    """Calibrated times of requests that run in this process or, with
    start_up=True, of requests that each start a process."""

    def __init__(self, start_up: bool):
        self.compute = SpeedSampler(IN_PROCESS)
        self.start_up = SpeedSampler(NEW_PROCESS) if start_up else None

    def __enter__(self):
        self.compute.__enter__()
        if self.start_up is not None:
            self.start_up.__enter__()
        return self

    def __exit__(self, *exc):
        if self.start_up is not None:
            self.start_up.__exit__(*exc)
        self.compute.__exit__(*exc)

    def between_requests(self):
        if self.start_up is not None:
            self.start_up.sample()

    def calibrate(self, t0: float, t1: float) -> float:
        """Calibrated seconds of a request that ran over [t0, t1]."""
        if self.start_up is None:
            return self.compute.busy(t0, t1) * self.compute.factor(t0, t1)
        split = min(t1, t0 + START_UP_S)
        return (self.compute.busy(t0, split) * self.start_up.factor(t0, t1)
                + self.compute.busy(split, t1) * self.compute.factor(split, t1))

"""The three workloads of the lrhopf benchmark.

Each workload is one client in a closed loop: it sends the next request
only after the previous one has returned.  Work is grouped in rounds whose
composition is fixed, so a round costs about the same on every seed; the
seed chooses the order of a round and, on envalg-stream, its operands.

* hopf-verify   -- check_hopf_lr on five fixtures at the CLI defaults but
                   words of length <= 2, each verdict on a freshly parsed
                   structure (cold caches).
* cli-sweep     -- `lrhopf --json` as one subprocess per request, every
                   fixture x battery command plus four value commands.
* envalg-stream -- product, coproduct, antipode and counit on long-lived
                   structures with warm rewrite caches.

Expected outcomes are never taken from the run itself: verdicts and exit
codes are the tables below, values are digests recorded in expected.json
(see record.py).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
FIXTURES = BENCH / "fixtures"
OUT_DIR = ROOT / ".perfbench_out"  # span files of traced runs

# per-request limit for subprocesses; a request past it counts as failed
OP_TIMEOUT_S = 60.0
# hostile input must end quickly with exit 2 (an input error), never hang,
# crash with exit 1 or report a verdict
HOSTILE_TIMEOUT_S = 3.0
HOSTILE = (
    ("nf", "aff2", "x1^3000"),
    ("nf", "aff2", "1/0"),
    ("nf", "aff2", "y^99999999999"),
    ("check-hopf", "aff2", "--samples", "-5"),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def check_signature(checks) -> str:
    """Digest of the ordered (name, verdict) pairs of a report; witnesses
    are left out because they depend on the battery seed."""
    return digest(json.dumps([[name, verdict] for name, verdict in checks]))


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.lra").read_text(encoding="utf-8")


def import_lrhopf():
    """Import the checkout's package afresh: modules already loaded are
    dropped first, so every set-up repetition pays for the import."""
    for name in [n for n in sys.modules if n == "lrhopf" or n.startswith("lrhopf.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lr = importlib.import_module("lrhopf")
    if Path(lr.__file__).resolve().parent != SRC / "lrhopf":
        raise ImportError(f"lrhopf imported from {lr.__file__}, not from {SRC}")
    return lr


class Op:
    """One request: the fixture it ran on, when it started, its wall
    latency and whether its outcome matched.  `cal` is the calibrated
    latency, filled in by the runner (see speed.py)."""

    __slots__ = ("fixture", "label", "start", "latency", "ok", "cal")

    def __init__(self, fixture: str, label: str, start: float, latency: float, ok: bool):
        self.fixture = fixture
        self.label = label
        self.start = start
        self.latency = latency
        self.ok = ok
        self.cal = latency


# -- hopf-verify -----------------------------------------------------------------

class HopfVerify:
    """check_hopf_lr on each fixture as `lrhopf check-hopf --max-word 2`
    runs it (samples 200, max_word 2, max_degree 2, seed 0); the run seed
    orders the verdicts.  At the CLI default max_word 3 one round takes
    about 33 s (gl2 alone 21 s), too long to repeat within a run; max_word 2
    keeps every check and brings a round to about 9 s.  A battery seed drawn
    per run would move a single verdict's cost by up to 40%."""

    name = "hopf-verify"
    setup_reps = 5
    replay_in_trace = True
    FIXTURES = ("euler", "aff2", "sl2", "gl2", "torus")
    # known verdicts: torus's group-like coefficient breaks the module
    # compatibility, every other fixture is a Hopf algebra
    PASSES = {"euler": True, "aff2": True, "sl2": True, "gl2": True, "torus": False}
    SETTINGS = {"samples": 200, "max_word": 2, "max_degree": 2}

    def __init__(self, seed: int, expected: dict, fixtures=None):
        self.seed = seed
        self.expected = expected["hopf-verify"]
        self.fixtures = tuple(fixtures or self.FIXTURES)

    def setup(self):
        self.lr = import_lrhopf()
        self.texts = {f: fixture_text(f) for f in self.fixtures}
        for text in self.texts.values():
            self.lr.parse_structure_file(text).build()
        # a tiny battery pays the package's lazy imports here, not in the
        # first verdict; its structure is thrown away, so caches stay cold
        S, _ = self.lr.parse_structure_file(fixture_text("euler")).build()
        if not self.lr.check_hopf_lr(S, seed=0, samples=10, max_word=1, max_degree=1).ok:
            raise RuntimeError("warm-up battery failed on euler")

    def structures(self):
        return ()

    def run_round(self, r: int, tracer=None) -> list[Op]:
        rng = random.Random(f"hopf-verify/{self.seed}/{r}")
        order = list(self.fixtures)
        rng.shuffle(order)
        ops = []
        for f in order:
            if tracer is not None:
                tracer.request += 1
            gc.collect()  # every verdict starts from the same heap, whatever the order
            t0 = perf_counter()
            S, _ = self.lr.parse_structure_file(self.texts[f]).build()
            report = self.lr.check_hopf_lr(S, seed=0, **self.SETTINGS)
            latency = perf_counter() - t0
            sig = check_signature((c.name, c.verdict) for c in report.checks)
            ok = report.ok == self.PASSES[f] and sig == self.expected[f]
            ops.append(Op(f, f, t0, latency, ok))
            del S, report  # freed here, not inside the next verdict's timing
        return ops


# -- cli-sweep -----------------------------------------------------------------------

BATTERY_COMMANDS = ("check", "check-bi", "pbw", "gerstenhaber", "bialgebroid",
                    "probe-conjecture")
VALUE_COMMANDS = ("nf", "coproduct", "counit", "antipode")
ALL_FIXTURES = ("abelian2", "aff2", "broken_jacobi", "euler", "euler_dual", "gl2",
                "heis_dual", "lie2_trivial_dual", "sl2", "torus", "translation")
DUAL_FIXTURES = {"euler_dual", "heis_dual", "lie2_trivial_dual"}
# reversed basis word times the first coefficient generator
EXPRESSIONS = {
    "abelian2": "x2*x1", "aff2": "x2*x1*y", "broken_jacobi": "x3*x2*x1",
    "euler": "x*y", "euler_dual": "x*y", "gl2": "E22*E21*E12*E11*y1",
    "heis_dual": "x3*x2*x1", "lie2_trivial_dual": "x2*x1", "sl2": "h*f*e",
    "torus": "x*t", "translation": "x*y",
}
# known non-zero exit codes of the batteries (1: a check fails, 2: input
# error); everything else passes, and the dual commands exit 2 on a file
# without a dual block
KNOWN_EXITS = {
    ("broken_jacobi", "check"): 1, ("broken_jacobi", "check-bi"): 2,
    ("broken_jacobi", "pbw"): 1, ("broken_jacobi", "gerstenhaber"): 1,
    ("torus", "check-bi"): 1, ("translation", "check-bi"): 1,
    ("heis_dual", "bialgebroid"): 1, ("heis_dual", "probe-conjecture"): 1,
}


def expected_exit(fixture: str, command: str) -> int:
    if command in ("bialgebroid", "probe-conjecture") and fixture not in DUAL_FIXTURES:
        return 2
    return KNOWN_EXITS.get((fixture, command), 0)


def fixture_arg(name: str) -> str:
    return os.path.relpath(FIXTURES / f"{name}.lra", ROOT)


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(args, timeout: float, trace_out=None):
    """Run one CLI request; returns (exit code or None on timeout, stdout,
    wall seconds)."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "lrhopf.cli", *args]
        env = cli_env()
    else:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), *args]
        env = dict(cli_env(), PERFBENCH_TRACE_OUT=trace_out)
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", perf_counter() - t0
    return proc.returncode, proc.stdout, perf_counter() - t0


class CliSweep:
    """Every fixture x battery command at the CLI's default battery seed,
    and the four value commands on one reversed-word expression per
    fixture; the run seed orders the requests.  A battery seed drawn per
    request moved the slowest fixture's share of a round by 13% from run
    to run."""

    name = "cli-sweep"
    setup_reps = 5
    replay_in_trace = True

    def __init__(self, seed: int, expected: dict, fixtures=None):
        self.calibrator = None  # set by the runner; probed before every request
        self.seed = seed
        self.expected = expected["cli-sweep"]
        self.fixtures = tuple(fixtures or ALL_FIXTURES)
        self.children: list[dict] = []
        self.child_process_s: list[float] = []
        self.child_main_s: list[float] = []

    def setup(self):
        self.ops = []
        for f in self.fixtures:
            for cmd in BATTERY_COMMANDS:
                self.ops.append((f"{f} {cmd}", f, cmd, None))
            for cmd in VALUE_COMMANDS:
                self.ops.append((f"{f} {cmd}", f, cmd, EXPRESSIONS[f]))
        # the warm-up request also compiles the package's bytecode once
        code, out, _ = run_cli(["nf", fixture_arg("euler"), "x*y", "--json"], OP_TIMEOUT_S)
        if code != 0 or digest(out) != self.expected["euler nf"]:
            raise RuntimeError(f"warm-up request failed with exit {code}")

    def run_round(self, r: int, tracer=None) -> list[Op]:
        rng = random.Random(f"cli-sweep/{self.seed}/{r}")
        order = list(self.ops)
        rng.shuffle(order)
        result = []
        for label, f, cmd, expr in order:
            args = [cmd, fixture_arg(f)]
            args += [expr, "--json"] if expr else ["--json"]
            trace_out = None
            if tracer is not None:
                fd, trace_out = tempfile.mkstemp(prefix="child-", suffix=".json",
                                                 dir=OUT_DIR)
                os.close(fd)
            if self.calibrator is not None:
                self.calibrator.between_requests()
            t0 = perf_counter()
            code, out, wall = run_cli(args, OP_TIMEOUT_S, trace_out)
            result.append(Op(f, label, t0, wall, self._matches(label, f, cmd, expr, code, out)))
            if trace_out is not None:
                self._collect_child(trace_out, wall)
        return result

    def _matches(self, label, f, cmd, expr, code, out) -> bool:
        want = expected_exit(f, cmd) if expr is None else 0
        if code != want:
            return False
        if code == 2:
            return out == ""
        if expr is not None:
            return digest(out) == self.expected[label]
        try:
            checks = [(c["name"], c["verdict"]) for c in json.loads(out)["checks"]]
        except (ValueError, KeyError, TypeError):
            return False
        return check_signature(checks) == self.expected[label]

    def _collect_child(self, path, wall):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return  # the child died before writing its trace
        finally:
            os.unlink(path)
        self.children.append(data)
        self.child_process_s.append(wall)
        self.child_main_s.append(data["main_s"])

    def hostile(self) -> list[tuple[str, object]]:
        """Run the hostile requests; each should exit 2 within the limit.
        Returns (request, exit code or None on timeout) for each failure."""
        failed = []
        for cmd, f, *rest in HOSTILE:
            args = [cmd, fixture_arg(f), *rest, "--json"]
            code, _, _ = run_cli(args, HOSTILE_TIMEOUT_S)
            if code != 2:
                failed.append((" ".join([cmd, f, *rest]), code))
        return failed


# -- envalg-stream ---------------------------------------------------------------

STREAM_STRUCTURES = ("aff2", "sl2", "gl2", "torus")
STREAM_KINDS = ("mul", "coproduct", "antipode", "counit")
SMALL_PER_ROUND = 24  # per structure and kind
LARGE_PER_ROUND = 1   # per structure and kind: a 1-in-25 share
LARGE_POWER = 4
UNIVERSE = {"small": 1500, "large": 100}  # recorded items per structure, kind, size


def small_element(rng: random.Random, lr, S):
    """Word length <= 4, coefficient degree <= 2, at most 3 terms; Laurent
    exponents where a generator is invertible."""
    A = S.algebra
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = tuple(sorted(rng.randrange(S.rank) for _ in range(rng.randint(0, 4))))
        budget = rng.randint(0, 2)
        exps = []
        for g in A.gens:
            e = rng.randint(0, budget)
            budget -= e
            if g.invertible and rng.random() < 0.5:
                e = -e
            exps.append(e)
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
        terms[word] = terms.get(word, A.zero()) + A.monomial(exps, c)
    return lr.EnvElement(S, terms)


class Universe:
    """The recorded request universe of one structure: item (kind, size,
    index) always has the same operands.  A large operand is the fixed
    power (sum of the basis + sum of the generators)^4, e.g.
    (E11+E12+E21+E22+y1)^4 on gl2, plus a small random tail, so large
    requests cost about the same yet never repeat exactly."""

    def __init__(self, lr, name: str):
        self.lr = lr
        self.name = name
        self.S = S = lr.parse_structure_file(fixture_text(name)).build()[0]
        A = S.algebra
        lin = lr.EnvElement(S, {(i,): A.one() for i in range(S.rank)})
        for g in range(A.ngens):
            lin = lin + lr.EnvElement.from_poly(S, A.gen(g))
        self.power = lin ** LARGE_POWER

    def operands(self, kind: str, size: str, index: int):
        rng = random.Random(f"envalg-stream/{self.name}/{kind}/{size}/{index}")
        u = small_element(rng, self.lr, self.S)
        if size == "large":
            u = self.power + u
        return (u, small_element(rng, self.lr, self.S)) if kind == "mul" else (u,)


def stream_apply(lr, kind: str, operands):
    if kind == "mul":
        return operands[0] * operands[1]
    return {"coproduct": lr.coproduct, "antipode": lr.antipode,
            "counit": lr.counit}[kind](operands[0])


class EnvalgStream:
    """Seeded mix of product, coproduct, antipode and counit on aff2, sl2,
    gl2 and torus.  Requests are drawn without replacement from a recorded
    universe, so exact repeats occur only if a run outlasts it."""

    name = "envalg-stream"
    setup_reps = 3
    replay_in_trace = False

    def __init__(self, seed: int, expected: dict, fixtures=None,
                 small_per_round: int = SMALL_PER_ROUND):
        self.seed = seed
        self.expected = expected["envalg-stream"]
        self.fixtures = tuple(fixtures or STREAM_STRUCTURES)
        self.small_per_round = small_per_round

    def setup(self):
        self.lr = import_lrhopf()
        self.universes = {f: Universe(self.lr, f) for f in self.fixtures}
        self.draws = {}
        self.drawn = set()
        self.repeats = 0
        self.requests = 0
        # warm-up on the first draw of the permutation, never timed again
        for _, kind, operands, _ in self._prepare(-1):
            stream_apply(self.lr, kind, operands)
        self.repeats = self.requests = 0

    def structures(self):
        return tuple(u.S for u in self.universes.values())

    def _draw(self, stratum, size):
        """Next universe index of a stratum; a run that outlasts the universe
        starts a new permutation, and its draws then count as repeats."""
        key = stratum + (size,)
        perm = self.draws.get(key)
        if not perm:
            perm = self.draws[key] = list(range(UNIVERSE[size]))
            random.Random(f"envalg-stream/{self.seed}/{'/'.join(key)}/{len(self.drawn)}").shuffle(perm)
        index = perm.pop()
        item = key + (index,)
        self.requests += 1
        if item in self.drawn:
            self.repeats += 1
        self.drawn.add(item)
        return index

    def _prepare(self, r: int):
        items = []
        for f in self.fixtures:
            for kind in STREAM_KINDS:
                for size, count in (("small", self.small_per_round),
                                    ("large", LARGE_PER_ROUND)):
                    for _ in range(count):
                        index = self._draw((f, kind), size)
                        operands = self.universes[f].operands(kind, size, index)
                        want = self.expected[f"{f}/{kind}/{size}"][8 * index:8 * index + 8]
                        items.append((f, kind, operands, (f"{f}/{kind}/{size}/{index}", want)))
        random.Random(f"envalg-stream/{self.seed}/order/{r}").shuffle(items)
        return items

    def run_round(self, r: int, tracer=None) -> list[Op]:
        ops = []
        lr = self.lr
        for f, kind, operands, (label, want) in self._prepare(r):
            if tracer is not None:
                tracer.request += 1
            t0 = perf_counter()
            value = stream_apply(lr, kind, operands)
            latency = perf_counter() - t0
            ops.append(Op(f, label, t0, latency, digest(str(value)) == want))
        return ops

    def repeat_ratio(self) -> float:
        return self.repeats / self.requests if self.requests else 0.0


WORKLOADS = {w.name: w for w in (HopfVerify, CliSweep, EnvalgStream)}

"""Per-layer tracing of lrhopf from outside the package.

A Tracer replaces public functions and methods of the lrhopf modules with
wrappers defined here, so no file of the package changes.  Spans (name,
start, end, the span that caused it, request id) are recorded for the
batteries, the hopf layer, enveloping products, calculus and parsing; they
are kept in memory and written out when the run ends.  The algebra layer
gets call counts only: its ~10^6 tiny calls per battery would be distorted
by timing each one.

Self time of a span is its duration minus the time covered by its child
spans.  Everything is undone by uninstall().
"""

from __future__ import annotations

import sys
from time import perf_counter

BATTERIES = (
    "check_lr_axioms", "check_bi_lr", "check_hopf_axioms", "check_pbw",
    "check_action", "check_bialgebra", "check_antipode", "check_hopf_lr",
    "check_gerstenhaber", "check_lr_bialgebra", "conjecture_probe",
)
CALCULUS = ("ce_differential", "schouten_bracket", "dual_differential")
HOPF_FUNCS = ("antipode", "counit_collapse", "antipode_convolution")

# every per-layer metric name with its unit, in report order
LAYER_METRICS = (
    [("algebra.poly_mul.calls", "count"), ("algebra.poly_mul.term_products", "count"),
     ("algebra.poly_add.calls", "count"), ("algebra.morphism_apply.calls", "count"),
     ("algebra.derivation_apply.calls", "count"),
     ("enveloping.mul.base.calls", "count"), ("enveloping.mul.base.self_s", "s"),
     ("enveloping.mul.tensor.calls", "count"), ("enveloping.mul.tensor.self_s", "s"),
     ("enveloping.mul.repeat_ratio", "ratio"), ("enveloping.nf_cache.entries", "count"),
     ("hopf.coproduct.calls", "count"), ("hopf.coproduct.self_s", "s"),
     ("hopf.coproduct.repeat_ratio", "ratio"), ("hopf.coproduct.out_terms", "count"),
     ("hopf.tensor_mul.calls", "count"), ("hopf.tensor_mul.self_s", "s"),
     ("hopf.apply_to_leg.calls", "count"), ("hopf.apply_to_leg.self_s", "s"),
     ("hopf.antipode.calls", "count"), ("hopf.antipode.self_s", "s"),
     ("hopf.counit_collapse.self_s", "s"), ("hopf.antipode_convolution.self_s", "s")]
    + [(f"battery.{fn}.{k}", "s") for fn in BATTERIES for k in ("s", "self_s")]
    + [(f"calculus.{fn}.{k}", u) for fn in CALCULUS
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("dsl.parse_structure.s", "s"), ("dsl.parse_env_element.s", "s"),
       ("cli.process_s", "s"), ("cli.main_s", "s"), ("cli.startup_s", "s"),
       ("cli.hostile_failed", "count"), ("stream.repeat_ratio", "ratio"),
       ("trace.overhead_ratio", "ratio"), ("run.cpu_s", "s")]
)

# The subset in the result line: every count and ratio, and the times that
# all three workloads reach.  A layer a workload never reaches reads 0 on
# every run; those times are printed on the "# layers" line and kept in the
# span file instead.
REPORTED = tuple(
    name for name, unit in LAYER_METRICS
    if unit != "s" or name in ("enveloping.mul.base.self_s", "enveloping.mul.tensor.self_s",
                               "hopf.coproduct.self_s", "hopf.antipode.self_s", "run.cpu_s")
)


def _terms_key(terms: dict):
    return frozenset(terms.items())


class Tracer:
    """Spans and counters for one process; install() patches lrhopf."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.request = 0
        self.counts: dict[str, int] = {}
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list = []
        self._patches: list = []
        self._tensor_ids: set[int] = set()
        self._base: dict[int, object] = {}
        self._keep: dict[int, object] = {}  # keyed objects stay alive, ids unique

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind every lrhopf module attribute that is `original`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "lrhopf" or name.startswith("lrhopf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, structures=()):
        """Wrap the package's public entry points.  `structures` are base
        structures built before tracing started; their existing tensor
        powers are recognised from their read-only tensor cache."""
        alg = sys.modules["lrhopf.algebra"]
        env = sys.modules["lrhopf.enveloping"]
        hopf = sys.modules["lrhopf.hopf"]
        calc = sys.modules["lrhopf.calculus"]
        dsl = sys.modules["lrhopf.dsl"]

        for S in structures:
            self._base[id(S)] = S
            for T in S._tensor_cache.values():
                if isinstance(T, type(S)):
                    self._tensor_ids.add(id(T))
                    self._keep[id(T)] = T

        self._count_poly_mul(alg.LaurentPoly)
        for cls, attrs, name in (
            (alg.LaurentPoly, ("__add__", "__radd__"), "algebra.poly_add.calls"),
            (alg.AlgebraMorphism, ("__call__",), "algebra.morphism_apply.calls"),
            (alg.Derivation, ("__call__",), "algebra.derivation_apply.calls"),
        ):
            wrapped = self._counter(name, cls.__dict__[attrs[0]])
            for attr in attrs:
                if cls.__dict__.get(attr) is cls.__dict__[attrs[0]]:
                    self._set(cls, attr, wrapped)

        self._wrap_env_mul(env.EnvElement)
        self._wrap_coproduct(hopf.CoproductLikeMap)
        self._set(hopf.TensorEnvElement, "__mul__",
                  self._span("hopf.tensor_mul", hopf.TensorEnvElement.__mul__))
        self._set(hopf.CoproductLikeMap, "apply_to_leg",
                  self._span("hopf.apply_to_leg", hopf.CoproductLikeMap.apply_to_leg))
        original_tps = hopf.tensor_power_structure

        def tensor_power_structure(S, k):
            T = original_tps(S, k)
            self._tensor_ids.add(id(T))
            self._keep[id(T)] = T
            return T

        self._replace_everywhere(original_tps, tensor_power_structure)
        for fn in HOPF_FUNCS:
            original = getattr(hopf, fn)
            self._replace_everywhere(original, self._span(f"hopf.{fn}", original))
        for mod in (sys.modules["lrhopf.lie_rinehart"], env, hopf, calc,
                    sys.modules["lrhopf.algebra"]):
            for fn in BATTERIES:
                original = vars(mod).get(fn)
                if original is not None and original.__module__ == mod.__name__:
                    self._replace_everywhere(original, self._span(f"battery.{fn}", original))
        for fn in CALCULUS:
            original = getattr(calc, fn)
            self._replace_everywhere(original, self._span(f"calculus.{fn}", original))
        self._replace_everywhere(
            dsl.parse_structure_file,
            self._span("dsl.parse_structure", dsl.parse_structure_file))
        self._set(dsl.StructureFile, "build",
                  self._span("dsl.parse_structure", dsl.StructureFile.build))
        self._replace_everywhere(
            dsl.parse_env_element,
            self._span("dsl.parse_env_element", dsl.parse_env_element))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_poly_mul(self, poly_cls):
        counts = self.counts
        counts.setdefault("algebra.poly_mul.calls", 0)
        counts.setdefault("algebra.poly_mul.term_products", 0)
        original = poly_cls.__mul__

        def __mul__(a, b):
            counts["algebra.poly_mul.calls"] += 1
            if isinstance(b, poly_cls):
                counts["algebra.poly_mul.term_products"] += len(a.terms) * len(b.terms)
            return original(a, b)

        self._set(poly_cls, "__mul__", __mul__)

    def _span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args) may return a sub-name suffix."""
        agg_for = self.agg
        stack = self._stack
        spans = self.spans
        name_id = self._name_id

        def wrapper(*args, **kwargs):
            full = name + before(args) if before else name
            nid = name_id(full)
            parent = stack[-1][2] if stack else -1
            frame = [perf_counter(), 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                agg = agg_for[full]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[frame[2]] = (nid, frame[0], end, parent, self.request)
            if after:
                after(args, result)
            return result

        return wrapper

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.agg[name] = [0, 0.0, 0.0]
        return nid

    def _wrap_env_mul(self, env_cls):
        seen = set()
        tensor_ids = self._tensor_ids
        base = self._base
        counts = self.counts
        counts.setdefault("enveloping.mul.repeats", 0)

        def kind(args):
            a, b = args
            S = a.structure
            if id(S) in tensor_ids:
                return ".tensor"
            base.setdefault(id(S), S)
            other = _terms_key(b.terms) if isinstance(b, env_cls) else b
            try:
                key = hash((id(S), _terms_key(a.terms), other))
            except TypeError:  # an operand the product will reject anyway
                return ".base"
            if key in seen:
                counts["enveloping.mul.repeats"] += 1
            else:
                seen.add(key)
            return ".base"

        self._set(env_cls, "__mul__", self._span("enveloping.mul", env_cls.__mul__, before=kind))

    def _wrap_coproduct(self, map_cls):
        seen = set()
        counts = self.counts
        counts.setdefault("hopf.coproduct.repeats", 0)
        counts.setdefault("hopf.coproduct.out_terms", 0)

        def before(args):
            dmap, u = args
            self._keep[id(dmap)] = dmap
            key = hash((id(dmap), _terms_key(u.terms)))
            if key in seen:
                counts["hopf.coproduct.repeats"] += 1
            else:
                seen.add(key)
            return ""

        def after(args, result):
            counts["hopf.coproduct.out_terms"] += len(result.terms)

        self._set(map_cls, "__call__",
                  self._span("hopf.coproduct", map_cls.__call__, before=before, after=after))

    # -- results ---------------------------------------------------------------

    def nf_cache_entries(self) -> int:
        return sum(len(S._nf_cache) for S in self._base.values())

    def summary(self) -> dict:
        """Aggregates that can be summed across processes."""
        return {
            "counts": dict(self.counts),
            "agg": {k: list(v) for k, v in self.agg.items()},
            "nf_cache_entries": self.nf_cache_entries(),
        }


def merge_summaries(parts) -> dict:
    total = {"counts": {}, "agg": {}, "nf_cache_entries": 0}
    for part in parts:
        for k, v in part["counts"].items():
            total["counts"][k] = total["counts"].get(k, 0) + v
        for k, v in part["agg"].items():
            cur = total["agg"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                cur[i] += v[i]
        total["nf_cache_entries"] += part["nf_cache_entries"]
    return total


def layer_metrics(summary: dict, extra: dict) -> dict:
    """Every LAYER_METRICS entry from a (merged) summary plus the values
    the workload measured itself (`extra`); layers a workload never
    reaches read 0."""
    counts, agg = summary["counts"], summary["agg"]

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "enveloping.mul.repeat_ratio": ratio(
            counts.get("enveloping.mul.repeats", 0), calls("enveloping.mul.base")),
        "enveloping.nf_cache.entries": summary["nf_cache_entries"],
        "hopf.coproduct.repeat_ratio": ratio(
            counts.get("hopf.coproduct.repeats", 0), calls("hopf.coproduct")),
    }
    values.update(extra)
    out = {}
    for name, unit in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name in counts:
            value = counts[name]
        else:
            span, _, field = name.rpartition(".")
            if field == "calls":
                value = calls(span)
            elif field == "self_s":
                value = self_s(span)
            elif field == "s":
                value = total(span)
            else:
                value = 0
        out[name] = {"value": value, "unit": unit}
    return out

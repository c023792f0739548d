"""The benchmark's tracer (perfbench/tracer.py) wraps lrhopf's products,
derivations, batteries and calculus by name and reads the per-structure
rewriting memo: a rename on either side would silently zero its per-layer
counters.  It is imported read-only, installed around one gl2 product and
one coproduct, around one gl2 module battery and one Gerstenhaber
battery, or around the one-leg application of a gl2 coproduct, or with no
call at all to see which names it rebinds, and uninstalled."""

import os
import sys

import lrhopf
from lrhopf import EnvElement, coproduct
from lrhopf.algebra import Derivation
from lrhopf.dsl import parse_structure_file

from conftest import read_fixture

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracer_module():
    # read-only: no bytecode is written next to the benchmark
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = dont_write
    return tracer


def _tracer_class():
    return _tracer_module().Tracer


def test_tracer_counts_the_product_and_the_rewriting_memo():
    S = parse_structure_file(read_fixture("gl2.lra")).build()[0]
    original = EnvElement.__mul__
    tracer = _tracer_class()()
    tracer.install([S])
    try:
        # E22 E11 swaps a letter: the rewriting memo gets an entry
        u = EnvElement.generator(S, 3) * EnvElement.generator(S, 0)
        coproduct(u)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert EnvElement.__mul__ is original
    assert summary["nf_cache_entries"] > 0
    assert summary["agg"]["enveloping.mul.base"][0] == 1
    assert summary["agg"]["hopf.coproduct"][0] == 1


def test_tracer_counts_derivations_batteries_and_calculus():
    S = parse_structure_file(read_fixture("gl2.lra")).build()[0]
    call, bracket = Derivation.__call__, lrhopf.calculus.schouten_bracket
    tracer = _tracer_class()()
    tracer.install([S])
    try:
        # through the package's names, which the tracer rebinds
        assert lrhopf.check_lr_axioms(S, samples=5).ok
        assert lrhopf.check_gerstenhaber(S, samples=5).ok
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert Derivation.__call__ is call
    assert lrhopf.calculus.schouten_bracket is bracket
    assert lrhopf.schouten_bracket is bracket
    assert summary["counts"]["algebra.derivation_apply.calls"] > 0
    agg = summary["agg"]
    assert agg["battery.check_lr_axioms"][0] == 1
    assert agg["battery.check_gerstenhaber"][0] == 1
    assert agg["calculus.schouten_bracket"][0] > 0
    assert agg["calculus.ce_differential"][0] > 0


def test_tracer_counts_the_one_leg_application_and_its_products():
    S = parse_structure_file(read_fixture("gl2.lra")).build()[0]
    dmap = lrhopf.standard_coproduct(S)
    t = coproduct(EnvElement.generator(S, 1) * EnvElement.generator(S, 2))
    apply_to_leg = lrhopf.CoproductLikeMap.apply_to_leg
    tracer = _tracer_class()()
    tracer.install([S])
    try:
        # a cold map multiplies its letter images out legwise
        assert dmap.apply_to_leg(t, 0) == dmap.apply_to_leg(t, 1)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert lrhopf.CoproductLikeMap.apply_to_leg is apply_to_leg
    agg = summary["agg"]
    assert agg["hopf.apply_to_leg"][0] == 2
    assert agg["hopf.tensor_mul"][0] > 0


def test_the_tracer_rebinds_every_battery_and_finds_the_hopf_names():
    # the tracer finds a battery only in the modules it scans, by name and
    # __module__, so a battery moved elsewhere would silently lose its span;
    # and it wraps these names of lrhopf.hopf by attribute
    tracer = _tracer_module()
    for name in ("TensorEnvElement", "CoproductLikeMap", "tensor_power_structure",
                 *tracer.HOPF_FUNCS):
        assert hasattr(lrhopf.hopf, name), name
    originals = {fn: getattr(lrhopf, fn) for fn in tracer.BATTERIES}
    t = tracer.Tracer()
    t.install()
    try:
        rebound = {fn for fn, original in originals.items() if getattr(lrhopf, fn) is not original}
    finally:
        t.uninstall()
    assert rebound == set(tracer.BATTERIES)
    assert all(getattr(lrhopf, fn) is original for fn, original in originals.items())

"""The benchmark's tracer (perfbench/tracer.py) wraps lrhopf's products by
name and reads the per-structure rewriting memo: a rename on either side
would silently zero its per-layer counters.  It is imported read-only,
installed around one gl2 product and one coproduct, and uninstalled."""

import os
import sys

from lrhopf import EnvElement, coproduct
from lrhopf.dsl import parse_structure_file

from conftest import read_fixture

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracer_class():
    # read-only: no bytecode is written next to the benchmark
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = dont_write
    return Tracer


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

"""Ablation — the paper's simplified pool parser vs Tomita's merged GSS.

Section 3.2 presents "a simplified version of Tomita's (pseudo-)parallel
LR parsing algorithm": one linear stack per parser, no merging.  Tomita's
full algorithm (and Rekers' implementation the authors actually used)
merges parsers that reach the same state into a graph-structured stack.

This bench quantifies what the simplification costs: on ambiguous inputs
the pool of linear stacks grows with the number of *parses* (Catalan
numbers here), while the GSS frontier is bounded by the number of parser
*states*.  On unambiguous inputs the two are comparable — which is why the
simplification is fine for the paper's SDF measurements.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import ambiguous_expression_grammar, ambiguous_sentence
from repro.lr.compiled import CompiledControl
from repro.lr.generator import ConventionalGenerator
from repro.runtime.gss import GSSParser
from repro.runtime.parallel import PoolParser

OPERATORS = (4, 8, 12)


def _control(grammar):
    return ConventionalGenerator(grammar).generate()


@pytest.mark.parametrize("operators", OPERATORS)
def test_pool_recognize_ambiguous(benchmark, operators):
    grammar = ambiguous_expression_grammar()
    parser = PoolParser(_control(grammar), grammar)
    tokens = ambiguous_sentence(operators)
    assert benchmark(lambda: parser.recognize(tokens))


@pytest.mark.parametrize("operators", OPERATORS)
def test_gss_recognize_ambiguous(benchmark, operators):
    grammar = ambiguous_expression_grammar()
    parser = GSSParser(CompiledControl(_control(grammar)))
    tokens = ambiguous_sentence(operators)
    result = benchmark(lambda: parser.recognize_result(tokens))
    assert result
    benchmark.extra_info.update(result.stats.snapshot())


def test_gss_scales_past_pool(benchmark):
    """At 40 operators the pool is hopeless; the GSS shrugs."""
    grammar = ambiguous_expression_grammar()
    parser = GSSParser(CompiledControl(_control(grammar)))
    tokens = ambiguous_sentence(40)
    result = benchmark(lambda: parser.recognize_result(tokens))
    assert result
    benchmark.extra_info.update(result.stats.snapshot())


def test_unambiguous_inputs_comparable(benchmark, workload, tokens):
    """On the (unambiguous) SDF corpus the pool parser is not the problem."""
    grammar = workload.fresh_grammar()
    pool = PoolParser(_control(grammar), grammar)
    gss = GSSParser(CompiledControl(_control(workload.fresh_grammar())))
    stream = tokens["SDF.sdf"]

    import time

    def both():
        start = time.perf_counter()
        assert pool.recognize(stream)
        pool_time = time.perf_counter() - start
        start = time.perf_counter()
        assert gss.recognize(stream)
        gss_time = time.perf_counter() - start
        return pool_time, gss_time

    pool_time, gss_time = benchmark.pedantic(both, rounds=3, iterations=1)
    benchmark.extra_info["pool_ms"] = round(pool_time * 1000, 2)
    benchmark.extra_info["gss_ms"] = round(gss_time * 1000, 2)
    # Same order of magnitude: neither should be 20x the other.
    ratio = max(pool_time, gss_time) / max(min(pool_time, gss_time), 1e-9)
    assert ratio < 20, f"pool vs GSS ratio {ratio:.1f}x on unambiguous input"

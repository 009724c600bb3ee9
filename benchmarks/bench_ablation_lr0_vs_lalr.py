"""Ablation — the Postscript trade-off: incremental LR(0) vs LALR(1).

*"We opted for a more efficient LR(0) table generation phase at the
expense of some loss in parsing efficiency for non-LR(0) languages (but
without restricting the class of acceptable grammars in any way)"* —
versus Horspool's incremental LALR(1), which pays in generation
complexity for deterministic parsing.

Measured here on the SDF grammar:

* table generation: LR(0) < SLR(1) < LALR(1) (lookahead computation is
  the expensive part — the very part that resists incrementality);
* parsing: the deterministic LALR parser beats the LR(0)+GLR combination
  (the paper's "Yacc ... about twice as fast"), because LR(0) reduce
  states fork the parallel parser on every terminal.
"""

from __future__ import annotations


from repro.lr.generator import ConventionalGenerator
from repro.lr.graph import ItemSetGraph
from repro.lr.lalr import lalr_table
from repro.lr.slr import slr_table
from repro.lr.table import resolve_conflicts
from repro.runtime.lr_parse import SimpleLRParser
from repro.runtime.parallel import PoolParser


def test_generate_lr0(benchmark, workload):
    grammar = workload.fresh_grammar()

    def generate():
        graph = ItemSetGraph(grammar)
        graph.expand_all()
        return graph

    graph = benchmark(generate)
    benchmark.extra_info["states"] = len(graph)


def test_generate_slr(benchmark, workload):
    grammar = workload.fresh_grammar()
    table = benchmark(lambda: slr_table(grammar))
    benchmark.extra_info["states"] = len(table)


def test_generate_lalr(benchmark, workload):
    grammar = workload.fresh_grammar()
    table = benchmark(lambda: lalr_table(grammar))
    benchmark.extra_info["states"] = len(table)
    benchmark.extra_info["conflicts"] = len(table.conflicts())


def test_parse_lr0_glr(benchmark, workload, tokens):
    """LR(0) tables + parallel parser (the IPG/PG runtime)."""
    grammar = workload.fresh_grammar()
    control = ConventionalGenerator(grammar).generate()
    parser = PoolParser(control, grammar)
    stream = tokens["ASF.sdf"]
    result = benchmark(lambda: parser.parse(stream))
    assert result.accepted
    benchmark.extra_info["forks"] = result.stats.forks


def test_parse_lalr_deterministic(benchmark, workload, tokens):
    """LALR(1) table + simple LR parser (the Yacc runtime)."""
    grammar = workload.fresh_grammar()
    table, _ = resolve_conflicts(lalr_table(grammar))
    parser = SimpleLRParser(table, grammar)
    stream = tokens["ASF.sdf"]
    result = benchmark(lambda: parser.parse(stream))
    assert result.accepted


def test_tradeoff_shape(benchmark, workload, tokens):
    """Both halves of the Postscript claim, asserted together."""
    import time

    grammar = workload.fresh_grammar()
    stream = tokens["SDF.sdf"]

    def measure():
        start = time.perf_counter()
        graph = ItemSetGraph(grammar)
        graph.expand_all()
        lr0_generation = time.perf_counter() - start

        start = time.perf_counter()
        table = lalr_table(grammar)
        lalr_generation = time.perf_counter() - start

        pool = PoolParser(ConventionalGenerator(grammar).generate(), grammar)
        det = SimpleLRParser(
            resolve_conflicts(table)[0], grammar
        )
        pool.parse(stream)  # warm
        start = time.perf_counter()
        pool.parse(stream)
        glr_parse = time.perf_counter() - start
        start = time.perf_counter()
        det.parse(stream)
        det_parse = time.perf_counter() - start
        return lr0_generation, lalr_generation, glr_parse, det_parse

    lr0_gen, lalr_gen, glr_parse, det_parse = benchmark.pedantic(
        measure, rounds=3, iterations=1
    )
    benchmark.extra_info.update(
        {
            "lr0_gen_ms": round(lr0_gen * 1000, 2),
            "lalr_gen_ms": round(lalr_gen * 1000, 2),
            "glr_parse_ms": round(glr_parse * 1000, 2),
            "det_parse_ms": round(det_parse * 1000, 2),
        }
    )
    assert lr0_gen < lalr_gen, "LR(0) generation should be the cheap pole"
    assert det_parse < glr_parse, (
        "deterministic LALR parsing should beat LR(0)+GLR (the paper's 2x)"
    )

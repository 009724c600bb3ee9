"""The measurement harness itself, exercised at toy scale.

The benchmark suite trusts ``run_protocol``; these tests make sure that
trust is earned — the protocol really runs all six phases, rejects broken
systems, and the three adapters faithfully wrap their engines.
"""

import pytest

from repro.bench.harness import (
    IPGSystem,
    PGSystem,
    PHASES,
    SYSTEMS,
    YaccSystem,
    run_protocol,
)
from repro.bench.report import render_figure_7_1
from repro.bench.workloads import (
    ambiguous_expression_grammar,
    ambiguous_sentence,
    booleans_workload,
    sdf_workload,
)


@pytest.fixture(scope="module")
def workload():
    return booleans_workload()


class TestProtocol:
    @pytest.mark.parametrize("system_name", list(SYSTEMS))
    def test_all_phases_timed(self, workload, system_name):
        result = run_protocol(SYSTEMS[system_name](), workload, "small")
        assert set(result.times) == set(PHASES)
        assert all(t >= 0 for t in result.times.values())

    def test_fresh_grammar_per_run(self, workload):
        # running twice must not double-apply the modification
        first = run_protocol(IPGSystem(), workload, "tiny")
        second = run_protocol(IPGSystem(), workload, "tiny")
        assert first.times.keys() == second.times.keys()

    def test_rejecting_system_raises(self, workload):
        class BrokenSystem(IPGSystem):
            def parse(self, tokens):
                return False

        with pytest.raises(AssertionError):
            run_protocol(BrokenSystem(), workload, "tiny")

    def test_render_produces_rows(self, workload):
        results = [
            run_protocol(SYSTEMS[name](), workload, "tiny")
            for name in SYSTEMS
        ]
        rendered = render_figure_7_1(results)
        assert "construct" in rendered
        assert "ipg" in rendered


class TestAdapters:
    def test_yacc_requires_construction(self):
        with pytest.raises(AssertionError):
            YaccSystem().parse([])

    def test_yacc_modify_reconstructs(self, workload):
        system = YaccSystem()
        grammar = workload.fresh_grammar()
        system.construct(grammar)
        table_before = system.parser
        system.modify(workload.modification(grammar))
        assert system.parser is not table_before  # fully rebuilt

    def test_pg_modify_reconstructs(self, workload):
        system = PGSystem()
        grammar = workload.fresh_grammar()
        system.construct(grammar)
        parser_before = system.parser
        system.modify(workload.modification(grammar))
        assert system.parser is not parser_before

    def test_ipg_modify_is_in_place(self, workload):
        system = IPGSystem()
        grammar = workload.fresh_grammar()
        system.construct(grammar)
        parser_before = system.parser
        tokens = workload.inputs["small"]
        assert system.parse(tokens)
        system.modify(workload.modification(grammar))
        assert system.parser is parser_before  # repaired, not rebuilt
        assert system.parse(tokens)

    def test_ipg_modified_language(self, workload):
        system = IPGSystem()
        grammar = workload.fresh_grammar()
        system.construct(grammar)
        system.modify(workload.modification(grammar))
        from repro.grammar.symbols import Terminal

        assert system.parse([Terminal("unknown")])


class TestWorkloads:
    def test_sdf_workload_shape(self):
        workload = sdf_workload()
        assert workload.input_names() == (
            "exp.sdf",
            "Exam.sdf",
            "SDF.sdf",
            "ASF.sdf",
        )
        grammar = workload.fresh_grammar()
        assert workload.modification(grammar).lhs.name == "CF-ELEM"

    def test_booleans_workload_sentences_grow(self):
        workload = booleans_workload()
        lengths = [len(v) for v in workload.inputs.values()]
        assert lengths == sorted(lengths)

    def test_ambiguous_workload(self):
        grammar = ambiguous_expression_grammar()
        sentence = ambiguous_sentence(3)
        assert len(sentence) == 7
        from repro import Language

        assert Language(grammar).parse(sentence).ambiguity == 5  # Catalan(3)

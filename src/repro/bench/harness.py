"""The section-7 measurement harness.

The paper measures, for each of Yacc / PG / IPG and each input:

1. construct a parse table for SDF;
2. parse an input sentence;
3. parse it a second time;
4. modify the grammar and reconstruct the parse table;
5. parse the same sentence;
6. parse it a second time.

:func:`run_protocol` executes exactly that sequence against a
:class:`SystemAdapter` and returns wall-clock times per phase.  The three
adapters mirror the paper's three systems:

* :class:`YaccSystem` — full LALR(1) table generation (conflicts resolved
  the Yacc way) + deterministic LR parsing; a modification means complete
  regeneration.  (Real Yacc additionally paid a C-compile-and-link step of
  ~8.3 s on the paper's SUN 3/60, which has no in-process equivalent,
  so only the shapes of the results are compared; see README and
  :func:`~repro.bench.report.check_figure_7_1_shape`.)
* :class:`PGSystem` — full LR(0) graph generation (section 4) + parallel
  parsing; modification = regenerate from scratch.
* :class:`IPGSystem` — lazy generation (section 5) + parallel parsing +
  incremental MODIFY (section 6); construction is just seeding the start
  state.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.incremental import IncrementalGenerator
from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..lr.generator import ConventionalGenerator
from ..lr.lalr import lalr_table
from ..lr.table import resolve_conflicts
from ..runtime.lr_parse import SimpleLRParser
from ..runtime.parallel import PoolParser
from .workloads import Fig71Workload, TokenStream

PHASES = (
    "construct",
    "parse1",
    "parse2",
    "modify",
    "parse3",
    "parse4",
)


class SystemAdapter:
    """A parser-generation system under the §7 protocol."""

    name = "abstract"

    def construct(self, grammar: Grammar) -> None:
        """Phase 1: build whatever the system builds ahead of parsing."""
        raise NotImplementedError

    def parse(self, tokens: TokenStream) -> bool:
        """Parse one sentence, building a tree; returns acceptance."""
        raise NotImplementedError

    def modify(self, rule: Rule) -> None:
        """Phase 4: apply the grammar change (and rebuild if needed)."""
        raise NotImplementedError


class YaccSystem(SystemAdapter):
    """LALR(1) + deterministic LR: the conventional table-generator pole."""

    name = "yacc"

    def __init__(self) -> None:
        self.grammar: Optional[Grammar] = None
        self.parser: Optional[SimpleLRParser] = None
        self.conflicts = 0

    def construct(self, grammar: Grammar) -> None:
        self.grammar = grammar
        table, conflicts = resolve_conflicts(lalr_table(grammar))
        self.conflicts = len(conflicts)
        self.parser = SimpleLRParser(table, grammar)

    def parse(self, tokens: TokenStream) -> bool:
        assert self.parser is not None, "construct first"
        return self.parser.parse(tokens).accepted

    def modify(self, rule: Rule) -> None:
        assert self.grammar is not None, "construct first"
        self.grammar.add_rule(rule)
        # Yacc has no incremental mode: the whole table is rebuilt.
        self.construct(self.grammar)


class PGSystem(SystemAdapter):
    """Conventional LR(0) generation (section 4) + parallel parsing."""

    name = "pg"

    def __init__(self) -> None:
        self.grammar: Optional[Grammar] = None
        self.parser: Optional[PoolParser] = None

    def construct(self, grammar: Grammar) -> None:
        self.grammar = grammar
        generator = ConventionalGenerator(grammar)
        control = generator.generate()
        self.parser = PoolParser(control, grammar)

    def parse(self, tokens: TokenStream) -> bool:
        assert self.parser is not None, "construct first"
        return self.parser.parse(tokens).accepted

    def modify(self, rule: Rule) -> None:
        assert self.grammar is not None, "construct first"
        self.grammar.add_rule(rule)
        # "The lazy parser generator can only react to modifications of the
        # grammar by throwing away the parser it has already generated and
        # by restarting from scratch" — a fortiori the conventional one.
        self.construct(self.grammar)


class IPGSystem(SystemAdapter):
    """The paper's system: lazy + incremental generation, parallel parsing."""

    name = "ipg"

    def __init__(self, gc: bool = True) -> None:
        self.gc = gc
        self.generator: Optional[IncrementalGenerator] = None
        self.parser: Optional[PoolParser] = None

    def construct(self, grammar: Grammar) -> None:
        self.generator = IncrementalGenerator(grammar, gc=self.gc)
        self.parser = PoolParser(self.generator.control, grammar)

    def parse(self, tokens: TokenStream) -> bool:
        assert self.parser is not None, "construct first"
        return self.parser.parse(tokens).accepted

    def modify(self, rule: Rule) -> None:
        assert self.generator is not None, "construct first"
        # ADD-RULE + MODIFY: the graph is repaired, never regenerated.
        self.generator.add_rule(rule)


class EngineSystem(SystemAdapter):
    """Any :mod:`repro.api` registry engine under the §7 protocol.

    One adapter covers every registered engine: ``construct`` builds a
    :class:`~repro.api.Language` around the grammar and instantiates the
    engine, ``modify`` is one incremental ADD-RULE (each engine reacts
    through its own ``invalidate`` — the graph engines repair, Earley
    drops its chart analysis), ``parse`` drives the uniform protocol.  This is
    how new engines join the Fig. 7.1 comparison without touching the
    harness: register them and they appear as ``engine:<name>``.
    """

    def __init__(self, engine_name: str) -> None:
        from ..api import Language, engines

        if engine_name not in engines():
            raise ValueError(
                f"unknown engine {engine_name!r} — known: {', '.join(engines())}"
            )
        self.engine_name = engine_name
        self.name = f"engine:{engine_name}"
        self.language: Optional["Language"] = None
        self.engine = None

    def construct(self, grammar: Grammar) -> None:
        from ..api import Language

        self.language = Language(grammar)
        self.engine = self.language.engine(self.engine_name)

    def parse(self, tokens: TokenStream) -> bool:
        assert self.engine is not None, "construct first"
        # Recognizer-only engines raise CapabilityError from parse; the §7
        # protocol measures acceptance, so recognition is the honest call.
        if not self.engine.supports_trees:
            return self.engine.recognize(list(tokens)).accepted
        return self.engine.parse(list(tokens)).accepted

    def modify(self, rule: Rule) -> None:
        assert self.language is not None, "construct first"
        self.language.add_rule(rule)


def _engine_systems() -> Dict[str, Callable[[], SystemAdapter]]:
    from functools import partial

    from ..api import engines

    return {
        f"engine:{name}": partial(EngineSystem, name) for name in engines()
    }


SYSTEMS: Dict[str, Callable[[], SystemAdapter]] = {
    "yacc": YaccSystem,
    "pg": PGSystem,
    "ipg": IPGSystem,
    **_engine_systems(),
}


class ProtocolResult:
    """Per-phase wall-clock seconds for one (system, input) pair."""

    def __init__(self, system: str, input_name: str, times: Dict[str, float]) -> None:
        self.system = system
        self.input_name = input_name
        self.times = times

    def total(self) -> float:
        return sum(self.times.values())

    def __repr__(self) -> str:
        cells = ", ".join(f"{phase}={self.times[phase]:.4f}s" for phase in PHASES)
        return f"ProtocolResult({self.system}/{self.input_name}: {cells})"


def run_protocol(
    system: SystemAdapter,
    workload: Fig71Workload,
    input_name: str,
) -> ProtocolResult:
    """Execute the six-phase §7 protocol; returns per-phase times.

    Every run gets a fresh grammar (generators subscribe to their grammar,
    so sharing one across systems would leak MODIFY notifications).
    """
    tokens = workload.inputs[input_name]
    grammar = workload.fresh_grammar()
    times: Dict[str, float] = {}

    def timed(phase: str, thunk: Callable[[], Any]) -> None:
        start = time.perf_counter()
        result = thunk()
        times[phase] = time.perf_counter() - start
        if phase.startswith("parse") and result is not True:
            raise AssertionError(
                f"{system.name} rejected {input_name} during {phase}"
            )

    timed("construct", lambda: system.construct(grammar))
    timed("parse1", lambda: system.parse(tokens))
    timed("parse2", lambda: system.parse(tokens))
    rule = workload.modification(grammar)
    timed("modify", lambda: system.modify(rule))
    timed("parse3", lambda: system.parse(tokens))
    timed("parse4", lambda: system.parse(tokens))
    return ProtocolResult(system.name, input_name, times)


def run_figure_7_1(
    workload: Optional[Fig71Workload] = None,
    systems: Sequence[str] = ("yacc", "pg", "ipg"),
    repeats: int = 3,
) -> List[ProtocolResult]:
    """The whole Fig. 7.1 grid; keeps the fastest *whole run* per cell.

    The run with the minimum total is kept intact — phases within a result
    stay *paired*, so intra-run comparisons like "parse 1 vs parse 2"
    measure the lazy-generation gap rather than scheduler noise from two
    different runs.  (pytest-benchmark does the fine-grained statistics;
    this function exists for the printed report.)
    """
    from .workloads import sdf_workload

    if workload is None:
        workload = sdf_workload()
    results: List[ProtocolResult] = []
    for system_name in systems:
        for input_name in workload.input_names():
            best: Optional[ProtocolResult] = None
            for _ in range(repeats):
                outcome = run_protocol(SYSTEMS[system_name](), workload, input_name)
                if best is None or outcome.total() < best.total():
                    best = outcome
            assert best is not None
            results.append(best)
    return results

"""The Engine protocol and registry: one uniform way to drive every parser.

The registry holds four engines: ``lazy`` (the paper's parallel pool over the
lazy graph, the reference), ``compiled`` (the same pool behind the
compiled control plane, the default), ``gss`` (graph-structured-stack
GLR) and ``earley`` (the table-free oracle).  An
:class:`Engine` packages one runtime behind ``recognize`` / ``parse`` /
``invalidate``; the registry makes them discoverable
(:func:`engines`) and selectable per call (``Language.parse(...,
engine="gss")``).

Engines are constructed against a :class:`~repro.api.language.Language`
and share its incremental infrastructure: the ``lazy`` and ``compiled``
engines are one :class:`PoolEngine` — the same
:class:`~repro.runtime.parallel.PoolParser` loop over the *same* item-set
graph (so laziness and MODIFY behave exactly as in the paper), differing
only in whether ACTION goes through the compiled control plane — and
``gss`` runs full GLR with shared packed forests over the same compiled
control.  ``earley`` reads the live grammar and needs no tables at all.

Each engine declares its capabilities (``supports_trees``,
``supports_ambiguity``, ``supports_reparse``); asking a recognizer-only
engine for trees raises :class:`~repro.runtime.errors.CapabilityError`
instead of silently answering with an empty forest.

Every engine reports rejections through the same death-site protocol:
:func:`expected_terminals` probes the ACTION row of each state the run
died in, which is where the diagnostics layer gets its *expected set*.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from ..baselines.earley import EarleyParser
from ..grammar.symbols import END, Terminal
from ..lr.actions import Accept, Reduce, Shift
from ..runtime.errors import CapabilityError
from ..runtime.forest import ParseForest
from ..runtime.gss import GSSParser
from ..runtime.incremental import Edit, IncrementalOutcome, checkpointed_parse, reparse
from ..runtime.parallel import ParseFailure, ParseResult, PoolParser
from ..runtime.stacks import StackCell
from .diagnostics import expected_names

__all__ = [
    "Engine",
    "EngineReport",
    "engines",
    "engine_descriptions",
    "create_engine",
    "register_engine",
    "expected_terminals",
]


class EngineReport:
    """Normalized result every engine returns from ``recognize``/``parse``.

    ``forest`` is a :class:`~repro.runtime.forest.ParseForest` handle over
    the derivations of an accepting *parse* (``None`` for recognition,
    rejections, and tree-less engines) — never an eagerly materialized
    tree list.  ``failure`` is ``None`` on acceptance; otherwise
    ``(token_index, expected_terminal_names)`` with the index counting
    input tokens (== input length when the input ended too early).
    ``incremental`` carries the opaque checkpoint handle when the call
    went through the incremental layer (``parse_incremental``/
    ``reparse``), and ``reuse`` its reuse accounting — both ``None`` on
    ordinary parses.
    """

    __slots__ = ("accepted", "forest", "stats", "failure", "incremental", "reuse")

    def __init__(
        self,
        accepted: bool,
        forest: Optional[ParseForest] = None,
        stats: Optional[Dict[str, int]] = None,
        failure: Optional[Tuple[int, Tuple[str, ...]]] = None,
        incremental: Optional[Any] = None,
        reuse: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.accepted = accepted
        self.forest = forest
        self.stats = stats
        self.failure = failure
        self.incremental = incremental
        self.reuse = reuse

    def __repr__(self) -> str:
        return f"EngineReport(accepted={self.accepted}, forest={self.forest!r})"


def _sweep_states(control: Any, failure: ParseFailure) -> List[Any]:
    """Every state the fatal sweep visited (or could have visited).

    Replays PAR-PARSE's reduce closure from the sweep-start stacks.
    LR(0) reduce actions are lookahead-independent — a reduce fires on
    *every* terminal — so the chain explored on the failing symbol is the
    chain any other lookahead would explore, and the union of visited
    states therefore covers every configuration from which some terminal
    could have been shifted.  The replay only re-treads reductions the
    dying sweep already performed, so on a lazy control every state it
    touches is already expanded (and ``action`` would expand it anyway).
    """
    visited: List[Any] = []
    visited_ids: set = set()
    seen_stacks: set = set()
    work = list(failure.stacks)
    budget = 100_000  # cyclic grammars raise before ever producing a failure
    while work and budget:
        budget -= 1
        stack = work.pop()
        if stack in seen_stacks:
            continue
        seen_stacks.add(stack)
        state = stack.state
        if id(state) not in visited_ids:
            visited_ids.add(id(state))
            visited.append(state)
        for action in control.action(state, failure.symbol):
            if isinstance(action, Reduce):
                below, _children = stack.pop(len(action.rule.rhs))
                goto_state = control.goto(below.state, action.rule.lhs)
                work.append(StackCell(goto_state, below, None))
    for state in failure.states:
        if id(state) not in visited_ids:
            visited_ids.add(id(state))
            visited.append(state)
    return visited


def expected_terminals(
    control: Any,
    failure: ParseFailure,
    terminals: Sequence[Terminal],
) -> Tuple[str, ...]:
    """The viable continuation set at a :class:`ParseFailure`.

    For every state the fatal sweep visited (sweep-start stacks plus
    their replayed reduce closure — see :func:`_sweep_states`), a
    terminal with a *shift* action there would have let some parser make
    progress; an *accept* reachable on the end-marker makes ``$`` (end of
    input) expected.  Reduce cells deliberately do not count: LR(0)
    reduces fire on every terminal, and the state the reduce leads to is
    itself part of the replayed closure.  Works against any control
    (graph-backed, compiled, table): they all answer ``action``.
    """
    states = _sweep_states(control, failure)
    expected: List[Terminal] = []
    seen = set()
    for state in states:
        for terminal in terminals:
            if terminal in seen:
                continue
            if any(
                isinstance(action, Shift)
                for action in control.action(state, terminal)
            ):
                seen.add(terminal)
                expected.append(terminal)
        if END not in seen and any(
            isinstance(action, Accept)
            for action in control.action(state, END)
        ):
            seen.add(END)
            expected.append(END)
    return expected_names(expected)


class Engine:
    """One parsing runtime behind the uniform protocol.

    Subclasses are constructed with the owning
    :class:`~repro.api.language.Language` and read their infrastructure
    (grammar, generator, compiled control) from it.
    """

    #: registry key, e.g. ``"lazy"``
    name = "abstract"
    #: one-line description for ``repro.api.engine_descriptions()``
    summary = ""
    #: whether ``parse`` builds derivation forests; on engines that leave
    #: this False, ``parse`` raises
    #: :class:`~repro.runtime.errors.CapabilityError` — use ``recognize``
    supports_trees = True
    #: whether the engine can report derivation counts / enumerate
    #: ambiguous derivations (implies ``supports_trees``)
    supports_ambiguity = True
    #: whether ``reparse`` actually reuses checkpoints; engines that leave
    #: this False still answer ``reparse`` correctly (full re-parse of the
    #: spliced input — the correct-by-construction fallback)
    supports_reparse = False

    def __init__(self, language: Any) -> None:
        self.language = language

    # -- the protocol ------------------------------------------------------

    def recognize(self, terminals: Sequence[Terminal]) -> EngineReport:
        raise NotImplementedError

    def parse(self, terminals: Sequence[Terminal]) -> EngineReport:
        raise NotImplementedError

    def parse_incremental(
        self, terminals: Sequence[Terminal], build_trees: bool = True
    ) -> EngineReport:
        """A parse whose report carries a checkpoint handle for ``reparse``.

        The default (non-incremental engines) is an ordinary parse with no
        handle — a later ``reparse`` against it simply re-parses in full.
        """
        return self.parse(terminals) if build_trees else self.recognize(terminals)

    def reparse(
        self,
        base: Optional[Any],
        edit: Edit,
        spliced: Sequence[Terminal],
        build_trees: bool = True,
    ) -> EngineReport:
        """Parse ``spliced`` (= the edited input), reusing ``base`` if able.

        ``base`` is the ``incremental`` handle of a previous report from
        this engine (or ``None``).  The default implementation is the
        correct-by-construction fallback: a full parse of the spliced
        token sequence, ignoring the handle, whose ``reuse`` names the
        ``engine-without-reparse`` fallback.
        """
        del base, edit
        report = self.parse(spliced) if build_trees else self.recognize(spliced)
        report.reuse = {"fallback": "engine-without-reparse"}
        return report

    def invalidate(self) -> None:
        """Called after every grammar modification (MODIFY)."""

    # -- shared plumbing ---------------------------------------------------

    def _report(
        self, result: ParseResult, control: Any, build_trees: bool = True
    ) -> EngineReport:
        failure = None
        if not result.accepted and result.failure is not None:
            failure = (
                result.failure.token_index,
                self._expected(control, result.failure),
            )
        forest = None
        if build_trees and result.accepted:
            forest = ParseForest(result.trees)
        return EngineReport(
            result.accepted, forest, result.stats.snapshot(), failure
        )

    def _expected(self, control: Any, failure: ParseFailure) -> Tuple[str, ...]:
        return expected_terminals(
            control, failure, sorted(self.language.grammar.terminals)
        )


_REGISTRY: Dict[str, Type[Engine]] = {}


def register_engine(cls: Type[Engine]) -> Type[Engine]:
    """Class decorator: make an engine selectable by name."""
    if cls.name in _REGISTRY:
        raise ValueError(f"engine {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def engines(
    detail: bool = False,
) -> Union[Tuple[str, ...], Dict[str, Dict[str, Any]]]:
    """Every registered engine name, in registration order.

    With ``detail=True``, returns ``name -> capability record`` instead:
    the one-line summary plus the ``supports_trees`` /
    ``supports_ambiguity`` / ``supports_reparse`` flags, so callers can
    pick an engine by what it can do rather than by name.
    """
    if not detail:
        return tuple(_REGISTRY)
    return {
        name: {
            "summary": cls.summary,
            "supports_trees": cls.supports_trees,
            "supports_ambiguity": cls.supports_ambiguity,
            "supports_reparse": cls.supports_reparse,
        }
        for name, cls in _REGISTRY.items()
    }


def engine_descriptions() -> Dict[str, str]:
    """name → one-line summary, for UIs (CLI ``engine`` command, README)."""
    return {name: cls.summary for name, cls in _REGISTRY.items()}


def create_engine(name: str, language: Any) -> Engine:
    """Instantiate a registered engine against a language."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ValueError(f"unknown engine {name!r} — known engines: {known}")
    return cls(language)


class PoolEngine(Engine):
    """PAR-PARSE (section 3.2) over one control, with checkpointed reparse.

    Every call — plain, checkpointed or resumed — runs the one
    :meth:`PoolParser.run <repro.runtime.parallel.PoolParser.run>` loop;
    :mod:`repro.runtime.incremental` supplies the checkpoint policy.
    Subclasses only pick the control.  The pool keeps no per-run state and
    is built once, so checkpoints stay valid across calls until a MODIFY
    moves the grammar's revision.
    """

    supports_reparse = True

    def __init__(self, language: Any, control: Any) -> None:
        super().__init__(language)
        self.pool = PoolParser(
            control, language.grammar, max_sweep_steps=language.max_sweep_steps
        )

    def _checkpoint_report(
        self, outcome: IncrementalOutcome, build_trees: bool
    ) -> EngineReport:
        report = self._report(outcome.result, self.pool.control, build_trees)
        report.incremental = outcome
        report.reuse = dict(outcome.reuse)
        return report

    def recognize(self, terminals: Sequence[Terminal]) -> EngineReport:
        return self._report(
            self.pool.recognize_result(terminals),
            self.pool.control,
            build_trees=False,
        )

    def parse(self, terminals: Sequence[Terminal]) -> EngineReport:
        return self._report(self.pool.parse(terminals), self.pool.control)

    def parse_incremental(
        self, terminals: Sequence[Terminal], build_trees: bool = True
    ) -> EngineReport:
        outcome = checkpointed_parse(self.pool, terminals, build_trees)
        return self._checkpoint_report(outcome, build_trees)

    def reparse(
        self,
        base: Optional[Any],
        edit: Edit,
        spliced: Sequence[Terminal],
        build_trees: bool = True,
    ) -> EngineReport:
        if isinstance(base, IncrementalOutcome):
            outcome = reparse(
                self.pool, base, edit, build_trees=build_trees, spliced=spliced
            )
        else:
            outcome = checkpointed_parse(self.pool, spliced, build_trees)
            outcome.reuse["fallback"] = "no-checkpoint"
        return self._checkpoint_report(outcome, build_trees)


# ---------------------------------------------------------------------------
# The four registered engines.
# ---------------------------------------------------------------------------


@register_engine
class LazyEngine(PoolEngine):
    """The paper's system as presented: lazy generation + parallel parsing.

    Runs the pool parser directly over the lazy/incremental graph control
    (no compiled ACTION memo), which is exactly the seed's hot path —
    kept as a registered engine so the compiled layer's speedup stays
    measurable through the same API it is used through.
    """

    name = "lazy"
    summary = "parallel LR over the lazy/incremental graph (sections 5-6)"

    def __init__(self, language: Any) -> None:
        super().__init__(language, language.generator.control)


@register_engine
class CompiledEngine(PoolEngine):
    """Lazy + incremental generation behind the compiled control plane.

    The default engine: ACTION results are memoized into shared tuples
    and invalidated precisely on MODIFY (see :mod:`repro.lr.compiled`);
    deterministic stretches run the Elkhound-style plain-LR fast loop.
    """

    name = "compiled"
    summary = "the default: lazy graph + memoized ACTION + fast-path LR"

    def __init__(self, language: Any) -> None:
        super().__init__(language, language.control)


@register_engine
class GSSEngine(Engine):
    """Tomita/Rekers GLR over a graph-structured stack with packed forests.

    Runs over the *same* compiled control as the default engine (memoized
    ACTION cells, step-cache probes, Elkhound-style deterministic
    stretches), merging parsers that reach the same state so the number
    of live stack tops stays bounded on ambiguous inputs.  ``parse``
    builds a shared packed parse forest whose tree count may be
    exponential in the input length — enumeration is lazy and capped.
    """

    name = "gss"
    summary = "merged-stack GLR with shared packed forests (compiled control)"

    def __init__(self, language: Any) -> None:
        super().__init__(language)
        self.gss = GSSParser(
            language.control,
            max_steps_per_token=language.max_sweep_steps,
            grammar=language.grammar,
        )
        #: kept for the uniform trace path: ``Language.parse(...,
        #: trace=...)`` replays LR moves through a pool over the same
        #: control, so traced runs see the identical automaton.
        self.pool = PoolParser(
            language.control,
            language.grammar,
            max_sweep_steps=language.max_sweep_steps,
        )

    def _gss_report(self, result: Any, build_trees: bool) -> EngineReport:
        failure = None
        if not result.accepted and result.failure is not None:
            # The GSS failure record carries the fatal sweep's visited
            # states directly (no linear stacks to replay): LR(0) reduces
            # are lookahead-independent, so that sweep's reduce closure
            # already covers every viable continuation.
            failure = (
                result.failure.token_index,
                self._expected(self.gss.control, result.failure),
            )
        forest = result.forest if build_trees else None
        return EngineReport(
            result.accepted, forest, result.stats.snapshot(), failure
        )

    def recognize(self, terminals: Sequence[Terminal]) -> EngineReport:
        return self._gss_report(
            self.gss.recognize_result(terminals), build_trees=False
        )

    def parse(self, terminals: Sequence[Terminal]) -> EngineReport:
        return self._gss_report(self.gss.parse(terminals), build_trees=True)


@register_engine
class EarleyEngine(Engine):
    """The Earley baseline: no generation phase, chart-driven recognition.

    Reads the live grammar on every call, so modification costs nothing
    — and parsing costs the most (the trade-off of section 2.1).
    Recognition only: ``parse`` raises a
    :class:`~repro.runtime.errors.CapabilityError`.
    """

    name = "earley"
    summary = "Earley chart recognition straight off the live grammar"
    supports_trees = False
    supports_ambiguity = False

    def __init__(self, language: Any) -> None:
        super().__init__(language)
        self._parser: Optional[EarleyParser] = None

    def _earley(self) -> EarleyParser:
        # The chart parser caches nullability analysis, which a grammar
        # edit outdates; invalidate() drops the instance.
        if self._parser is None:
            self._parser = EarleyParser(self.language.grammar)
        return self._parser

    def recognize(self, terminals: Sequence[Terminal]) -> EngineReport:
        parser = self._earley()
        accepted = parser.recognize(terminals)
        failure = None
        if not accepted and parser.last_failure is not None:
            failure = parser.last_failure
        return EngineReport(
            accepted, None, {"chart_size": parser.last_chart_size}, failure
        )

    def parse(self, terminals: Sequence[Terminal]) -> EngineReport:
        raise CapabilityError(
            f"engine {self.name!r} builds no trees; use recognize() or a "
            f"tree-building engine (supports_trees in engines(detail=True))"
        )

    def invalidate(self) -> None:
        self._parser = None

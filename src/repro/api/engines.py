"""The Engine protocol and registry: one uniform way to drive every parser.

The registry holds three engines, one per job: ``lazy`` (the paper's
parallel pool over the lazy graph, the reference), ``gss``
(graph-structured-stack GLR over the compiled control plane, the
production engine and the default) and ``earley`` (the table-free
oracle).  An :class:`Engine` packages one runtime behind ``recognize`` /
``parse`` / ``invalidate``; the registry makes them discoverable
(:func:`engines`) and selectable per call (``Language.parse(...,
engine="lazy")``).

Engines are constructed against a :class:`~repro.api.language.Language`
and share its incremental infrastructure: ``lazy`` runs the
:class:`~repro.runtime.parallel.PoolParser` loop straight over the
item-set graph (so laziness and MODIFY behave exactly as in the paper),
and ``gss`` runs full GLR with shared packed forests and checkpointed
re-parsing over the compiled control that wraps the *same* graph.
``earley`` reads the live grammar and needs no tables at all.

Each engine declares its capabilities (``supports_trees``,
``supports_ambiguity``, ``supports_reparse``); asking a recognizer-only
engine for trees raises :class:`~repro.runtime.errors.CapabilityError`
instead of silently answering with an empty forest.

Both LR engines report a rejection the same way: their
:class:`~repro.runtime.parallel.ParseFailure` lists every state the fatal
sweep visited, and :func:`expected_terminals` probes those states' ACTION
rows, which is where the diagnostics layer gets its *expected set*.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from ..baselines.earley import EarleyParser
from ..grammar.symbols import END, Terminal
from ..lr.actions import Accept, Shift
from ..runtime.errors import CapabilityError
from ..runtime.forest import ParseForest
from ..runtime.gss import GSSParser, GSSResult
from ..runtime.incremental import Edit, IncrementalOutcome, checkpointed_parse, reparse
from ..runtime.parallel import ParseFailure, ParseResult, PoolParser
from .diagnostics import expected_names

__all__ = [
    "Engine",
    "EngineReport",
    "engines",
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


def expected_terminals(
    control: Any,
    failure: ParseFailure,
    terminals: Sequence[Terminal],
) -> Tuple[str, ...]:
    """The viable continuation set at a :class:`ParseFailure`.

    For every state the fatal sweep visited (``failure.states``, the same
    record for the pool and gss), a terminal with a *shift* action there
    would have let some parser make progress; an *accept* reachable on the
    end-marker makes ``$`` (end of input) expected.  Reduce cells
    deliberately do not count: LR(0) reduces fire on every terminal, and
    the state the reduce leads to is itself one of the visited states.
    ``control`` is the one the run read: the lazy graph control or the
    compiled control.
    """
    expected: List[Terminal] = []
    seen = set()
    for state in failure.states:
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
    #: one-line description, listed by ``engines(detail=True)``
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
        ``engine-without-reparse`` fallback in the same six keys a
        resumed parse reports.
        """
        del base, edit
        report = self.parse(spliced) if build_trees else self.recognize(spliced)
        report.reuse = {
            "converged_at": None,
            "fallback": "engine-without-reparse",
            "resumed_at": 0,
            "reused_prefix": 0,
            "parsed_tokens": len(spliced),
            "total_tokens": len(spliced),
        }
        return report

    def invalidate(self) -> None:
        """Called after every grammar modification (MODIFY)."""

    # -- shared plumbing ---------------------------------------------------

    def _report(
        self,
        result: Union[ParseResult, GSSResult],
        control: Any,
        build_trees: bool = True,
    ) -> EngineReport:
        """The report of a pool or gss run over ``control``."""
        failure = None
        if not result.accepted and result.failure is not None:
            failure = (
                result.failure.token_index,
                self._expected(control, result.failure),
            )
        forest = result.forest if build_trees and result.accepted else None
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


def create_engine(name: str, language: Any) -> Engine:
    """Instantiate a registered engine against a language."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ValueError(f"unknown engine {name!r} — known engines: {known}")
    return cls(language)


# ---------------------------------------------------------------------------
# The three registered engines.
# ---------------------------------------------------------------------------


@register_engine
class LazyEngine(Engine):
    """The paper's system as presented: lazy generation + parallel parsing.

    Runs the plain PAR-PARSE loop of section 3.2 directly over the
    lazy/incremental graph control (no compiled ACTION memo, no
    deterministic stretch, no checkpoints), which is exactly the paper's
    hot path — kept as a registered engine so the production engine's
    speedup stays measurable through the same API it is used through, and
    the one engine that honours ``trace``.  The pool keeps no per-run
    state and is built once.
    """

    name = "lazy"
    summary = "parallel LR over the lazy/incremental graph (sections 5-6)"

    def __init__(self, language: Any) -> None:
        super().__init__(language)
        self.pool = PoolParser(
            language.generator.control,
            language.grammar,
            max_sweep_steps=language.max_sweep_steps,
        )

    def recognize(self, terminals: Sequence[Terminal]) -> EngineReport:
        return self._report(
            self.pool.recognize_result(terminals),
            self.pool.control,
            build_trees=False,
        )

    def parse(self, terminals: Sequence[Terminal]) -> EngineReport:
        return self._report(self.pool.parse(terminals), self.pool.control)


@register_engine
class GSSEngine(Engine):
    """Tomita/Rekers GLR over a graph-structured stack with packed forests.

    The production engine and the default: runs over the compiled
    control (memoized ACTION cells, step-cache probes, Elkhound-style
    deterministic stretches), merging parsers that reach the same state
    so the number of live stack tops stays bounded on ambiguous inputs.
    ``parse`` builds a shared packed parse forest whose tree count may be
    exponential in the input length — enumeration is lazy and capped.
    Checkpointed parses and ``reparse`` run the same loop through
    :mod:`repro.runtime.incremental`; the parser keeps no per-run state
    and is built once, so checkpoints stay valid across calls until a
    MODIFY moves the grammar's revision.
    """

    name = "gss"
    summary = "the default: merged-stack GLR with packed forests and reparse"
    supports_reparse = True

    def __init__(self, language: Any) -> None:
        super().__init__(language)
        self.gss = GSSParser(
            language.control, max_steps_per_token=language.max_sweep_steps
        )

    def recognize(self, terminals: Sequence[Terminal]) -> EngineReport:
        return self._report(
            self.gss.recognize_result(terminals), self.gss.control, build_trees=False
        )

    def parse(self, terminals: Sequence[Terminal]) -> EngineReport:
        return self._report(self.gss.parse(terminals), self.gss.control)

    def _checkpoint_report(
        self, outcome: IncrementalOutcome, build_trees: bool
    ) -> EngineReport:
        report = self._report(outcome.result, self.gss.control, build_trees)
        report.incremental = outcome
        report.reuse = dict(outcome.reuse)
        return report

    def parse_incremental(
        self, terminals: Sequence[Terminal], build_trees: bool = True
    ) -> EngineReport:
        outcome = checkpointed_parse(self.gss, terminals, build_trees)
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
                self.gss, base, edit, build_trees=build_trees, spliced=spliced
            )
        else:
            outcome = checkpointed_parse(self.gss, spliced, build_trees)
            outcome.reuse["fallback"] = "no-checkpoint"
        return self._checkpoint_report(outcome, build_trees)


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

"""`Language`: one object binding lexical syntax, grammar, and parser.

This is the paper's user-level promise made concrete: *"an environment
where language definitions are developed (and modified) interactively"*
needs a single handle that couples the ISG scanner, the context-free
grammar, and the incrementally generated parser — and survives edits to
any of them.  A :class:`Language` is that handle::

    from repro.api import Language

    lang = Language.from_sdf(EXP_SDF)        # lexical + context-free syntax
    outcome = lang.parse("true and not false")   # raw text, end to end
    assert outcome.accepted

    lang.add_rule("EXP ::= maybe")           # incremental MODIFY
    bad = lang.parse("true and")             # rejected, with a diagnostic
    print(bad.diagnostic.describe())         # ... expected: ..., maybe, ...

Engines are selectable per call (``lang.parse(text, engine="gss")``) and
discoverable via :func:`repro.api.engines`; tokenizers are swappable via
:meth:`use_tokenizer`.  An SDF-derived scanner is compiled from the
definition's *lexical* syntax and is not affected by context-free rule
edits — for a scanner that follows grammar edits live, use
:meth:`ScannerTokenizer.from_grammar <repro.api.tokenizers.ScannerTokenizer.from_grammar>`.
Service sessions and the REPL each hold one ``Language``; its ``sorts``
set is the one place declared forward references live, and every
grammar edit goes through :meth:`Language.add_rule` /
:meth:`Language.delete_rule` (a ``modify`` span plus the
``repro.generator.modify`` counter).
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .. import obs
from ..grammar.builders import grammar_from_text, rule_from_text
from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import Terminal
from ..lexing.scanner import Lexeme, ScanError
from ..lr.compiled import CompiledControl
from ..core.incremental import IncrementalGenerator
from ..core.metrics import graph_summary, table_fraction
from ..runtime.trace import Trace
from .diagnostics import Diagnostic, ParseOutcome, line_and_column
from .engines import Engine, create_engine, engines
from .tokenizers import ScannerTokenizer, Tokenizer, WhitespaceTokenizer

__all__ = ["Language", "LexedInput", "DEFAULT_ENGINE"]

#: The engine used when none is named: the production GLR engine.
DEFAULT_ENGINE = "gss"

TokenInput = Union[str, Iterable[Union[str, Terminal]]]
RuleInput = Union[Rule, str]

# -- telemetry (repro.obs) -------------------------------------------------
#
# Instruments are created once at import and cached in plain module
# globals, so the per-parse cost is a handful of lock-guarded integer
# increments — cheap enough to stay on unconditionally (the spans, which
# do allocate, are off unless tracing is enabled).  Live Language
# instances register in a WeakSet; a snapshot-time collector sums their
# generator and compiled-control stats under the dotted catalog names.

_LIVE_LANGUAGES: "weakref.WeakSet[Language]" = weakref.WeakSet()

_PARSE_SECONDS = obs.histogram("repro.parse.seconds")
_PARSE_ACCEPTED = obs.counter("repro.parse.accepted")
_PARSE_REJECTED = obs.counter("repro.parse.rejected")
_LEX_TOKENS = obs.counter("repro.lexer.tokens")
_LEX_ERRORS = obs.counter("repro.lexer.errors")

#: The additive work counters of both runtimes (the pool's ParseStats,
#: then gss's GSSStats), mirrored as global ``repro.engine.*`` counters.
_ENGINE_STAT_KEYS = (
    "sweeps",
    "action_calls",
    "shifts",
    "reduces",
    "forks",
    "duplicates_dropped",
    "nodes_created",
    "edges_created",
    "reductions_applied",
    "paths_walked",
    "general_sweeps",
    "subtrees_reused",
)
_ENGINE_COUNTERS = tuple(
    (key, obs.counter("repro.engine." + key)) for key in _ENGINE_STAT_KEYS
)

# Small label-value caches so the hot path never rebuilds label tuples;
# benign races just create the same instrument twice (the registry
# deduplicates by key).
_REQUEST_COUNTERS: Dict[str, obs.Counter] = {}
_REUSE_COUNTERS: Dict[Tuple[str, str], obs.Counter] = {}
_MODIFY_COUNTERS: Dict[str, obs.Counter] = {}


def _requests_counter(engine: str) -> obs.Counter:
    counter = _REQUEST_COUNTERS.get(engine)
    if counter is None:
        counter = _REQUEST_COUNTERS[engine] = obs.counter(
            "repro.parse.requests", engine=engine
        )
    return counter


def _reuse_counter(outcome: str, reason: str) -> obs.Counter:
    counter = _REUSE_COUNTERS.get((outcome, reason))
    if counter is None:
        counter = _REUSE_COUNTERS[(outcome, reason)] = obs.counter(
            "repro.incremental.reparse", outcome=outcome, reason=reason
        )
    return counter


def _modify_counter(op: str) -> obs.Counter:
    counter = _MODIFY_COUNTERS.get(op)
    if counter is None:
        counter = _MODIFY_COUNTERS[op] = obs.counter(
            "repro.generator.modify", op=op
        )
    return counter


def _record_parse(outcome: "ParseOutcome", reparsed: bool = False) -> None:
    """Fold one finished parse into the global registry.

    ``reparsed`` marks outcomes of :meth:`Language.reparse` — only those
    feed the incremental reuse counters (a *fresh* checkpointed parse
    also carries a ``reuse`` dict, but resumed nothing).
    """
    _requests_counter(outcome.engine).inc()
    (_PARSE_ACCEPTED if outcome.accepted else _PARSE_REJECTED).inc()
    _PARSE_SECONDS.observe(outcome.elapsed)
    stats = outcome.stats
    if stats:
        for key, counter in _ENGINE_COUNTERS:
            value = stats.get(key)
            if value:
                counter.inc(value)
    if reparsed and outcome.reuse is not None:
        fallback = outcome.reuse.get("fallback")
        if fallback:
            _reuse_counter("fallback", str(fallback)).inc()
        else:
            _reuse_counter("resumed", "none").inc()


def _collect_language_stats():
    """Snapshot-time collector: sum stats over live Language instances.

    Exported counters are sums over *live* languages — long-lived holders
    (service sessions) dominate; a language garbage-collected mid-flight
    takes its contribution with it.
    """
    graph_totals = {"expansions": 0, "states_created": 0, "states_removed": 0,
                    "closure_items": 0}
    states = complete = 0
    compiled_totals: Dict[str, int] = {}
    for language in list(_LIVE_LANGUAGES):
        graph = language.generator.graph
        snapshot = graph.stats.snapshot()
        for key in graph_totals:
            graph_totals[key] += snapshot.get(key, 0)
        for state in graph.states():
            states += 1
            complete += state.is_complete
        for key, value in language.control.stats.snapshot().items():
            if isinstance(value, (int, float)) and key != "hit_rate":
                compiled_totals[key] = compiled_totals.get(key, 0) + value
    for key, value in graph_totals.items():
        yield ("repro.generator." + key, None, "counter", value)
    yield ("repro.generator.states", None, "gauge", states)
    yield ("repro.generator.states_complete", None, "gauge", complete)
    for key, value in compiled_totals.items():
        # action_cache_hits -> repro.compiled.action_cache.hits
        dotted = key.replace("action_cache_", "action_cache.", 1)
        yield ("repro.compiled." + dotted, None, "counter", value)


obs.register_collector(_collect_language_stats)


class LexedInput:
    """One tokenized input: lexemes, their terminals, and the source text.

    ``text`` is ``None`` when the input arrived as an explicit token
    sequence — then the lexemes are synthetic and carry no positions.
    """

    __slots__ = ("text", "lexemes", "terminals")

    def __init__(
        self,
        text: Optional[str],
        lexemes: Tuple[Lexeme, ...],
        terminals: Tuple[Terminal, ...],
    ) -> None:
        self.text = text
        self.lexemes = lexemes
        self.terminals = terminals

    def __len__(self) -> int:
        return len(self.terminals)

    def __repr__(self) -> str:
        return f"LexedInput({[t.name for t in self.terminals]})"


class Language:
    """A grammar + a tokenizer + the engine registry, live and editable.

    Threading contract: a ``Language`` is **single-writer** — all parses
    and grammar edits must come from one thread at a time (the service
    drives each session from one thread).  The one structure that crosses
    that line is the engine map.  A ``corpus-parse`` job on a
    ``Dispatcher(corpus_root=...)`` parses its worker sessions on its own
    :class:`~repro.corpus.pipeline.ParseJob` thread, where :meth:`engine`
    lazily instantiates engines, while the caller's thread may edit the
    same session — :meth:`_on_modify` (fired from ``Grammar.subscribe``
    during an edit) iterates the map.  So both run under
    ``_engines_lock``: without it an edit
    racing a first-use ``create_engine`` could miss the new engine's
    invalidation and leave it serving tables from the pre-edit grammar.
    Everything else (graph, control plane, tokenizer) is intentionally
    lock-free under the single-writer rule.
    """

    def __init__(
        self,
        grammar: Optional[Grammar] = None,
        tokenizer: Optional[Tokenizer] = None,
        engine: str = DEFAULT_ENGINE,
        gc: bool = True,
        max_sweep_steps: int = 1_000_000,
        sorts: Iterable[str] = (),
    ) -> None:
        if engine not in engines():
            raise ValueError(
                f"unknown engine {engine!r} — known engines: "
                f"{', '.join(engines())}"
            )
        self.grammar = grammar if grammar is not None else Grammar()
        self.tokenizer: Tokenizer = (
            tokenizer if tokenizer is not None else WhitespaceTokenizer()
        )
        self.default_engine = engine
        self.max_sweep_steps = max_sweep_steps
        #: declared sort names (forward references in rule text)
        self.sorts = set(sorts)
        self.generator = IncrementalGenerator(self.grammar, gc=gc)
        # The compiled control plane over the lazy graph; the generator
        # subscribed to the grammar first, so MODIFY marks states before
        # the cache flush inspects them (see repro.lr.compiled).
        self.control = CompiledControl(self.generator.control, self.grammar)
        self._engines: Dict[str, Engine] = {}
        self._engines_lock = threading.Lock()
        #: the parsed SDF module when built via :meth:`from_sdf`
        self.definition = None
        # Subscribed last: engines are invalidated after the generator and
        # the compiled cache have already settled the graph.
        self._unsubscribe = self.grammar.subscribe(self._on_modify)
        _LIVE_LANGUAGES.add(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_text(
        cls,
        text: str,
        sorts: Iterable[str] = (),
        **kwargs: Any,
    ) -> "Language":
        """Build from the paper's BNF notation (``A ::= x y z`` lines)."""
        return cls(grammar_from_text(text, sorts=sorts), sorts=sorts, **kwargs)

    @classmethod
    def from_rules(cls, rules: Iterable[Rule], **kwargs: Any) -> "Language":
        return cls(Grammar(rules), **kwargs)

    @classmethod
    def from_sdf(
        cls,
        text: str,
        start_sort: Optional[str] = None,
        **kwargs: Any,
    ) -> "Language":
        """The full ISG/IPG pipeline from one SDF definition.

        Parses ``text`` as an SDF module (Appendix B syntax), normalizes
        its context-free syntax into the grammar, and compiles its
        lexical syntax into the ISG scanner — so ``parse`` takes raw
        program text with no manual lexing anywhere.
        """
        from ..sdf.normalize import normalize
        from ..sdf.parser import parse_sdf

        definition = parse_sdf(text)
        language = cls(
            normalize(definition, start_sort=start_sort),
            tokenizer=ScannerTokenizer.from_sdf(definition),
            **kwargs,
        )
        language.definition = definition
        return language

    # -- lexing ------------------------------------------------------------

    def lex(self, tokens: TokenInput) -> LexedInput:
        """Tokenize raw text (via the tokenizer) or coerce a token sequence.

        Raw strings go through the tokenizer — offsets and all.  Explicit
        sequences may mix terminal names, :class:`Terminal` objects and
        :class:`Lexeme` s; they are taken as given (no scanning).
        """
        if isinstance(tokens, str):
            with obs.span("tokenize") as sp:
                lexemes = tuple(self.tokenizer.tokenize(tokens))
                terminals = tuple(
                    self.tokenizer.terminal_of(lexeme) for lexeme in lexemes
                )
                if sp.recording:
                    sp.set(tokens=len(terminals), chars=len(tokens))
            _LEX_TOKENS.inc(len(terminals))
            return LexedInput(tokens, lexemes, terminals)
        lexemes_list: List[Lexeme] = []
        terminals_list: List[Terminal] = []
        for part in tokens:
            if isinstance(part, Terminal):
                terminal = part
            elif isinstance(part, Lexeme):
                lexemes_list.append(part)
                terminal = self.tokenizer.terminal_of(part)
            elif isinstance(part, str):
                terminal = Terminal(part)
            else:
                raise TypeError(f"cannot use {part!r} as a token")
            terminals_list.append(terminal)
        if len(lexemes_list) != len(terminals_list):
            lexemes_list = []  # mixed/positionless input: no offsets
        return LexedInput(None, tuple(lexemes_list), tuple(terminals_list))

    def use_tokenizer(self, tokenizer: Tokenizer) -> None:
        """Swap the lexical front end (closing an observing scanner)."""
        old = self.tokenizer
        self.tokenizer = tokenizer
        close = getattr(old, "close", None)
        if close is not None:
            close()

    # -- engines -----------------------------------------------------------

    def engine(self, name: Optional[str] = None) -> Engine:
        """The (cached) engine instance for ``name``."""
        key = name if name is not None else self.default_engine
        with self._engines_lock:
            instance = self._engines.get(key)
            if instance is None:
                instance = create_engine(key, self)
                self._engines[key] = instance
            return instance

    def use_engine(self, name: str) -> Engine:
        """Make ``name`` the default engine (validating it exists)."""
        instance = self.engine(name)
        self.default_engine = name
        return instance

    # -- parsing -----------------------------------------------------------

    def parse(
        self,
        tokens: TokenInput,
        engine: Optional[str] = None,
        trace: Optional[Trace] = None,
        checkpoint: bool = False,
    ) -> ParseOutcome:
        """Parse raw text (or a token sequence); always returns an outcome.

        Lexical errors do not raise: they come back as a rejected outcome
        whose diagnostic has ``kind="lexical"`` — errors are data at this
        layer, exactly as in the service protocol.

        ``trace`` records the parser's moves and is honored only by
        ``lazy``, the paper's pool parser; ``gss`` and ``earley`` record
        no LR moves, answer as untraced, and leave the trace empty.

        With ``checkpoint=True`` (and an engine that supports re-parsing)
        the outcome carries per-token-boundary checkpoints, and a later
        :meth:`reparse` against it resumes instead of starting over.
        ``trace`` and ``checkpoint`` are mutually exclusive.
        """
        return self._run(
            tokens, engine, build_trees=True, trace=trace, checkpoint=checkpoint
        )

    def recognize(
        self,
        tokens: TokenInput,
        engine: Optional[str] = None,
        checkpoint: bool = False,
    ) -> ParseOutcome:
        """Accept/reject without building trees (same outcome shape)."""
        return self._run(
            tokens, engine, build_trees=False, trace=None, checkpoint=checkpoint
        )

    def reparse(
        self,
        prev: ParseOutcome,
        start: int,
        end: int,
        replacement: TokenInput = (),
        engine: Optional[str] = None,
    ) -> ParseOutcome:
        """Re-parse ``prev``'s input after splicing ``replacement`` over
        ``tokens[start:end]`` — reusing the previous run where possible.

        Exactly equivalent to parsing the spliced token sequence from
        scratch (trees, ambiguity, diagnostics); when ``prev`` carries a
        checkpoint handle (``parse(..., checkpoint=True)`` or an earlier
        ``reparse``) and the grammar has not changed since, the engine
        resumes from the last checkpoint before the edit instead of
        re-running the prefix.  Engines without incremental support — and
        any invalidated checkpoint — fall back to a full re-parse;
        ``outcome.reuse`` reports which path was taken.

        The edit is in *token* coordinates over ``prev.terminals``.  The
        result is a token-level outcome: diagnostics carry token indices
        and expected sets, but no line/column (there is no single source
        text for a spliced input).
        """
        from ..runtime.errors import ParseError
        from ..runtime.incremental import Edit

        started = time.perf_counter()
        # An explicit name is validated (unknown ones raise, exactly as
        # in ``parse``); otherwise the edit re-parses on the base's engine.
        engine_name = engine if engine is not None else prev.engine
        selected = self.engine(engine_name)
        replacement_lexed = self.lex(replacement)
        base_terminals = prev.terminals
        if not 0 <= start <= end <= len(base_terminals):
            raise ParseError(
                f"edit range [{start}:{end}] does not fit the "
                f"{len(base_terminals)}-token previous input"
            )
        edit = Edit(start, end, replacement_lexed.terminals)
        spliced = edit.apply(base_terminals)
        build_trees = prev.trees_built
        handle = prev.incremental if engine is None or engine == prev.engine else None
        with obs.span("reparse", engine=engine_name) as sp:
            report = selected.reparse(handle, edit, spliced, build_trees)
            if sp.recording:
                if report.reuse is not None:
                    sp.set(**{k: v for k, v in report.reuse.items() if v is not None})
                if report.stats:
                    sp.set(**report.stats)
        lexed = LexedInput(None, (), spliced)
        return self._outcome_from_report(
            lexed, report, selected, build_trees, started, reparsed=True
        )

    def parse_lexed(
        self,
        lexed: LexedInput,
        engine: Optional[str] = None,
        build_trees: bool = True,
        checkpoint: bool = False,
    ) -> ParseOutcome:
        """Parse an already tokenized input (the service's cache path)."""
        started = time.perf_counter()
        with obs.span("parse", tokens=len(lexed)):
            return self._outcome(
                lexed, self.engine(engine), build_trees, started, checkpoint
            )

    def _run(
        self,
        tokens: TokenInput,
        engine_name: Optional[str],
        build_trees: bool,
        trace: Optional[Trace],
        checkpoint: bool = False,
    ) -> ParseOutcome:
        started = time.perf_counter()
        if trace is not None and checkpoint:
            # The checkpointing runner records frontiers, not move events;
            # silently dropping either request would lie to the caller.
            raise ValueError(
                "trace and checkpoint are mutually exclusive — tracing "
                "runs through the pool parser, which records no checkpoints"
            )
        selected = self.engine(engine_name)
        with obs.span("parse"):
            try:
                lexed = self.lex(tokens)
            except ScanError as error:
                return self._scan_failure(
                    tokens if isinstance(tokens, str) else "", error, selected, started
                )
            if trace is not None:
                # Tracing is a pool-parser feature; route through the
                # engine's pool when it has one.
                pool = getattr(selected, "pool", None)
                if pool is not None:
                    with obs.span("engine", engine=selected.name):
                        result = pool.parse(lexed.terminals, trace=trace)
                    report = selected._report(result, pool.control)
                    return self._outcome_from_report(
                        lexed, report, selected, build_trees, started
                    )
            return self._outcome(lexed, selected, build_trees, started, checkpoint)

    def _outcome(
        self,
        lexed: LexedInput,
        selected: Engine,
        build_trees: bool,
        started: float,
        checkpoint: bool = False,
    ) -> ParseOutcome:
        sp = obs.span("engine", engine=selected.name)
        with sp:
            if sp.recording:
                graph_stats = self.generator.graph.stats
                expansions_before = graph_stats.expansions
            if checkpoint:
                report = selected.parse_incremental(
                    lexed.terminals, build_trees=build_trees
                )
            else:
                report = (
                    selected.parse(lexed.terminals)
                    if build_trees
                    else selected.recognize(lexed.terminals)
                )
            if sp.recording:
                sp.set(lazy_expansions=graph_stats.expansions - expansions_before)
                if report.stats:
                    sp.set(**report.stats)
        return self._outcome_from_report(
            lexed, report, selected, build_trees, started
        )

    def _outcome_from_report(
        self,
        lexed: LexedInput,
        report: Any,
        selected: Engine,
        build_trees: bool,
        started: float,
        reparsed: bool = False,
    ) -> ParseOutcome:
        diagnostic = None
        if not report.accepted:
            diagnostic = self._diagnose(lexed, report.failure)
        outcome = ParseOutcome(
            accepted=report.accepted,
            forest=report.forest,
            engine=selected.name,
            elapsed=time.perf_counter() - started,
            diagnostic=diagnostic,
            lexemes=lexed.lexemes,
            stats=report.stats,
            trees_built=build_trees and selected.supports_trees,
            terminals=lexed.terminals,
            incremental=getattr(report, "incremental", None),
            reuse=getattr(report, "reuse", None),
        )
        _record_parse(outcome, reparsed=reparsed)
        return outcome

    # -- diagnostics -------------------------------------------------------

    def _diagnose(
        self,
        lexed: LexedInput,
        failure: Optional[Tuple[int, Tuple[str, ...]]],
    ) -> Optional[Diagnostic]:
        if failure is None:
            return None
        token_index, expected = failure
        at_end = token_index >= len(lexed.terminals)
        token: Optional[str] = None
        offset: Optional[int] = None
        line: Optional[int] = None
        column: Optional[int] = None
        if at_end:
            message = "unexpected end of input"
            if lexed.text is not None:
                offset = len(lexed.text)
        else:
            terminal = lexed.terminals[token_index]
            if token_index < len(lexed.lexemes):
                lexeme = lexed.lexemes[token_index]
                token = lexeme.text
                offset = lexeme.position
            else:
                token = terminal.name
            message = f"unexpected {token!r}"
        if lexed.text is not None and offset is not None:
            line, column = line_and_column(lexed.text, offset)
        return Diagnostic(
            message,
            kind="syntax",
            token_index=token_index,
            token=token,
            offset=offset,
            line=line,
            column=column,
            expected=expected,
        )

    def _scan_failure(
        self,
        text: str,
        error: ScanError,
        selected: Engine,
        started: float,
    ) -> ParseOutcome:
        _LEX_ERRORS.inc()
        line, column = line_and_column(text, error.position)
        diagnostic = Diagnostic(
            str(error).splitlines()[0],
            kind="lexical",
            token_index=None,
            token=None,
            offset=error.position,
            line=line,
            column=column,
            expected=(),
        )
        return ParseOutcome(
            accepted=False,
            engine=selected.name,
            elapsed=time.perf_counter() - started,
            diagnostic=diagnostic,
            trees_built=False,
        )

    # -- grammar modification ----------------------------------------------

    def coerce_rule(self, rule: RuleInput, sorts: Iterable[str] = ()) -> Rule:
        """A Rule from a Rule or ``"A ::= body"`` text (see ADD-RULE).

        In rule text, a name is a non-terminal iff the grammar already
        defines it, it was declared via ``sorts``, or it is the rule's own
        left-hand side.
        """
        if isinstance(rule, Rule):
            return rule
        known = {nt.name for nt in self.grammar.nonterminals}
        known.update(self.sorts)
        known.update(sorts)
        return rule_from_text(rule, known)

    def add_rule(self, rule: RuleInput, sorts: Iterable[str] = ()) -> bool:
        """ADD-RULE; accepts a Rule or ``"A ::= b c"`` text."""
        self.sorts.update(sorts)
        with obs.span("modify", op="add"):
            applied = self.generator.add_rule(self.coerce_rule(rule))
        if applied:
            _modify_counter("add").inc()
        return applied

    def delete_rule(self, rule: RuleInput, sorts: Iterable[str] = ()) -> bool:
        """DELETE-RULE; accepts a Rule or ``"A ::= b c"`` text."""
        self.sorts.update(sorts)
        with obs.span("modify", op="delete"):
            applied = self.generator.delete_rule(self.coerce_rule(rule))
        if applied:
            _modify_counter("delete").inc()
        return applied

    def collect_garbage(self, force_sweep: bool = False) -> int:
        return self.generator.collect_garbage(force_sweep=force_sweep)

    def _on_modify(self, grammar: Grammar, rule: Rule, added: bool) -> None:
        del grammar, rule, added
        with self._engines_lock:
            for instance in self._engines.values():
                instance.invalidate()

    def close(self) -> None:
        """Detach from the grammar's observer chain."""
        self._unsubscribe()
        close = getattr(self.tokenizer, "close", None)
        if close is not None:
            close()

    # -- introspection -----------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone grammar version (bumped by every successful MODIFY)."""
        return self.grammar.revision

    @property
    def graph(self):
        return self.generator.graph

    def summary(self) -> Dict[str, int]:
        data = graph_summary(self.generator.graph)
        data.update(self.control.stats.snapshot())
        return data

    def table_fraction(self) -> float:
        return table_fraction(self.generator.graph, self.grammar)

    def __repr__(self) -> str:
        return (
            f"Language({len(self.grammar)} rules, "
            f"tokenizer={self.tokenizer.name}, "
            f"engine={self.default_engine})"
        )

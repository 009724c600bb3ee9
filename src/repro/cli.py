"""An interactive grammar-definition session — the paper's use case, as a
command-line tool.

Section 1 motivates IPG with *"an environment where language definitions
are developed (and modified) interactively"*.  This module is that
environment in miniature: a read-eval-print loop over grammar edits and
parse requests, with no generation pauses because there is no generation
phase.

Run it::

    python -m repro

or script it::

    echo 'add B ::= true
    add START ::= B
    parse true' | python -m repro

Besides the REPL there are two service subcommands (see
:mod:`repro.service`):

``python -m repro serve``
    Answer line-delimited JSON requests on stdin (one response per
    request on stdout, each with ``time`` and — for parses — ``cache``
    fields).  With ``--tcp HOST:PORT`` or ``--unix PATH`` the same
    protocol is served concurrently over a socket by the sharded
    scheduler (``--workers N`` worker shards; sessions are partitioned
    across them), with bounded backpressure and graceful SIGTERM drain
    (see :mod:`repro.service.net`).

``python -m repro batch [file...]``
    Run the same requests non-interactively from files (or stdin)
    through the sharded scheduler — pipelined under a bounded in-flight
    window, responses in request order — printing responses to stdout
    and a throughput/cache summary to stderr.

``python -m repro corpus VERB ...``
    Manage persistent corpora under ``--root DIR``: ``create`` a corpus
    bound to a grammar, ``ingest`` documents (content-hashed, duplicate
    free), ``parse`` them resumably across scheduler shards, ``query``
    the stored results, and inspect ``status``/``info``.

``python -m repro obs [file...]``
    Drive JSON requests (from files, ``-`` for stdin, or a built-in
    demo workload) through a one-shard inline scheduler and print the
    unified :mod:`repro.obs` metrics registry as Prometheus text or
    JSON (``--format``), optionally with recent span trees
    (``--spans N``) and a slow-request log (``--slow-ms``).

Commands
--------

========================  ==================================================
``add A ::= x B y``       ADD-RULE (names with existing rules are sorts)
``sort N``                predeclare a sort for forward references
``delete A ::= x``        DELETE-RULE
``parse tok tok ...``     parse a sentence; prints every tree
``recognize tok ...``     accept/reject only
``trace tok tok ...``     parse and print every LR move (Fig. 4.2),
                          each with the token position it consumed and
                          its line/column in the input
``edit i j tok ...``      splice-edit the last input (replace tokens
                          ``[i:j]``) and *incrementally* re-parse it
``engine [name]``         show the engine registry / pick the engine
``lexer [kind]``          show or switch the tokenizer
                          (``whitespace`` or ``scanner``)
``show``                  the current grammar
``summary``               item-set graph statistics
``fraction``              §5.2: how much of the full table exists
``gc``                    run the mark-and-sweep collector
``trees on|off``          toggle tree printing
``help`` / ``quit``
========================  ==================================================

Parsing runs through :mod:`repro.api`: rejected inputs print a diagnostic
line with the offending token's position and the expected terminal set,
and ``engine`` switches between every registered parsing runtime
(``lazy`` / ``compiled`` / ``gss`` / ``earley``).  With
``lexer scanner`` the REPL derives an ISG scanner from the grammar's own
terminals (kept in sync with ``add``/``delete``), so punctuation no
longer needs surrounding blanks: ``parse (n+n)*n``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Dict, Iterable, List, Optional

from .api import Language, ScannerTokenizer, WhitespaceTokenizer, engines
from .grammar.grammar import GrammarError
from .runtime.errors import CapabilityError, ParseError
from .runtime.forest import bracketed

PROMPT = "ipg> "

#: The REPL prints at most this many derivations per accepted parse; the
#: forest handle keeps the true count available (shown in the header line)
#: even when the listing is truncated.
_TREE_PRINT_CAP = 64

_HELP = """commands:
  add <rule>        e.g.  add E ::= E + T        (ADD-RULE)
  sort <names...>   predeclare sorts for forward references
  delete <rule>     e.g.  delete E ::= E + T     (DELETE-RULE)
  parse <tokens>    parse and print every tree
  recognize <toks>  accept/reject only
  trace <tokens>    parse and print every LR move with the token
                    position (and line/column) it consumed
  edit <i> <j> [tokens]  replace tokens [i:j] of the last input and
                    re-parse incrementally from its checkpoints
  engine [name]     show the engine registry / pick the parse engine
  lexer [kind]      show or switch the tokenizer (whitespace|scanner)
  show              print the grammar
  summary           item-set graph statistics
  fraction          fraction of the full parse table generated (§5.2)
  gc                run the mark-and-sweep collector
  trees on|off      toggle tree printing
  help, quit"""


class ReplSession:
    """The command interpreter; IO-free for testability."""

    def __init__(self) -> None:
        self.language = Language()
        self.print_trees = True
        self.finished = False
        #: the last parse/recognize outcome — the base the ``edit``
        #: command splices and incrementally re-parses
        self.last_outcome = None

    # -- the dispatcher -----------------------------------------------------

    def execute(self, line: str) -> List[str]:
        """Run one command line; returns the output lines."""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return []
        command, _, argument = stripped.partition(" ")
        handler = self._handlers().get(command)
        if handler is None:
            return [f"unknown command {command!r} — try 'help'"]
        try:
            return handler(argument.strip())
        except (GrammarError, ParseError) as error:
            return [f"error: {error}"]

    def _handlers(self) -> Dict[str, Callable[[str], List[str]]]:
        return {
            "add": self._add,
            "sort": self._sort,
            "delete": self._delete,
            "parse": self._parse,
            "recognize": self._recognize,
            "trace": self._trace,
            "edit": self._edit,
            "engine": self._engine,
            "lexer": self._lexer,
            "show": self._show,
            "summary": self._summary,
            "fraction": self._fraction,
            "gc": self._gc,
            "trees": self._trees,
            "help": lambda _arg: [_HELP],
            "quit": self._quit,
            "exit": self._quit,
        }

    # -- commands ------------------------------------------------------

    def _add(self, text: str) -> List[str]:
        if self.language.add_rule(text):
            return [f"added: {self.language.coerce_rule(text)}"]
        return ["(rule already present)"]

    def _sort(self, text: str) -> List[str]:
        names = text.split()
        if not names:
            return ["usage: sort <names...>"]
        self.language.sorts.update(names)
        return [f"sorts declared: {' '.join(sorted(self.language.sorts))}"]

    def _delete(self, text: str) -> List[str]:
        if self.language.delete_rule(text):
            return ["deleted"]
        return ["(no such rule)"]

    def _parse(self, text: str) -> List[str]:
        # Checkpointed so a follow-up ``edit`` can resume instead of
        # re-parsing (engines without reparse support just parse).
        outcome = self.language.parse(text, checkpoint=True)
        self.last_outcome = outcome
        if not outcome.accepted:
            return self._rejection(outcome)
        if not outcome.trees_built:
            return [f"accepted (engine {outcome.engine} builds no trees)"]
        return self._accepted_lines(outcome)

    def _accepted_lines(self, outcome) -> List[str]:
        """``accepted (N parses)`` plus (capped) bracketed derivations."""
        count = outcome.ambiguity
        lines = [f"accepted ({count} parse{'s' if count != 1 else ''})"]
        if self.print_trees and outcome.forest is not None:
            shown = 0
            for tree in outcome.forest.trees(_TREE_PRINT_CAP):
                lines.append(f"  {bracketed(tree)}")
                shown += 1
            if count > shown:
                lines.append(f"  ... ({count - shown} more; showing {shown})")
        return lines

    def _recognize(self, text: str) -> List[str]:
        outcome = self.language.recognize(text, checkpoint=True)
        self.last_outcome = outcome
        if outcome.accepted:
            return ["accepted"]
        return self._rejection(outcome)

    def _edit(self, text: str) -> List[str]:
        if self.last_outcome is None:
            return ["nothing to edit — parse or recognize an input first"]
        parts = text.split()
        if len(parts) < 2 or not parts[0].isdigit() or not parts[1].isdigit():
            return ["usage: edit <start> <end> [replacement tokens...]"]
        start, end = int(parts[0]), int(parts[1])
        replacement = " ".join(parts[2:])
        outcome = self.language.reparse(self.last_outcome, start, end, replacement)
        self.last_outcome = outcome
        reuse = outcome.reuse or {}
        if reuse.get("fallback"):
            detail = f"full re-parse ({reuse['fallback']})"
        else:
            parsed = reuse.get("parsed_tokens")
            total = reuse.get("total_tokens")
            detail = f"re-parsed {parsed} of {total} tokens"
            if reuse.get("converged_at") is not None:
                detail += f", converged at token {reuse['converged_at']}"
        lines = [f"edited [{start}:{end}] -> {replacement!r} ({detail})"]
        if not outcome.accepted:
            return lines + self._rejection(outcome)
        if not outcome.trees_built:
            return lines + ["accepted"]
        return lines + self._accepted_lines(outcome)

    def _trace(self, text: str) -> List[str]:
        if not text:
            return ["usage: trace <tokens>"]
        from .runtime.trace import Trace

        trace = Trace()
        # No checkpoint: tracing routes through the pool parser, which
        # records moves instead of resumable frontiers (they are mutually
        # exclusive in the API) — so ``edit`` keeps its previous base.
        # Recognizer-only engines have no pool to trace; fall back to
        # recognition and report that no LR moves were recorded.
        try:
            outcome = self.language.parse(text, trace=trace)
        except CapabilityError:
            outcome = self.language.recognize(text)
        verdict = "accepted" if outcome.accepted else "rejected"
        lines = [
            f"{verdict} — {len(trace)} move"
            f"{'s' if len(trace) != 1 else ''} (engine {outcome.engine})"
        ]
        diagnostic = outcome.diagnostic
        if diagnostic is not None and (
            diagnostic.expected or diagnostic.kind != "syntax"
        ):
            lines.append(f"  {diagnostic.describe()}")
        lexemes: tuple = ()
        source = None
        if diagnostic is None or diagnostic.kind != "lexical":
            lexed = self.language.lex(text)
            lexemes, source = lexed.lexemes, lexed.text
        lines.extend(
            "  " + self._describe_move(event, lexemes, source)
            for event in trace.events
        )
        if not trace.events and outcome.accepted:
            lines.append(f"  (engine {outcome.engine} records no LR moves)")
        return lines

    @staticmethod
    def _describe_move(event, lexemes, source: Optional[str]) -> str:
        """One trace event, with the consumed token's position/line/col."""
        data = event.to_dict()
        parts = [f"{data['kind']:<6}", f"state={data['state']}"]
        if "symbol" in data:
            parts.append(f"on={data['symbol']}")
        if "rule" in data:
            parts.append(f"rule=({data['rule']})")
        if "target" in data:
            parts.append(f"-> {data['target']}")
        position = data.get("position")
        if position is not None and 0 <= position < len(lexemes):
            lexeme = lexemes[position]
            where = f"token {position} {lexeme.text!r}"
            if source is not None:
                from .api.diagnostics import line_and_column

                line, column = line_and_column(source, lexeme.position)
                where += f" at line {line}, column {column}"
            parts.append(f"[{where}]")
        return " ".join(parts)

    @staticmethod
    def _rejection(outcome) -> List[str]:
        lines = ["rejected"]
        diagnostic = outcome.diagnostic
        if diagnostic is not None and (
            diagnostic.expected or diagnostic.kind != "syntax"
        ):
            lines.append(f"  {diagnostic.describe()}")
        return lines

    def _engine(self, text: str) -> List[str]:
        if not text:
            current = self.language.default_engine
            details = engines(detail=True)
            lines = []
            for name, record in details.items():
                flags = ",".join(
                    flag
                    for flag in ("trees", "ambiguity", "reparse")
                    if record[f"supports_{flag}"]
                )
                lines.append(
                    f"{'*' if name == current else ' '} {name:10s} "
                    f"[{flags or 'recognize-only'}] {record['summary']}"
                )
            return lines
        if text not in engines():
            return [
                f"unknown engine {text!r} — known: {', '.join(engines())}"
            ]
        self.language.use_engine(text)
        return [f"engine set to {text}"]

    def _lexer(self, text: str) -> List[str]:
        if not text:
            return [f"lexer: {self.language.tokenizer.describe()}"]
        if text == "whitespace":
            self.language.use_tokenizer(WhitespaceTokenizer())
        elif text == "scanner":
            self.language.use_tokenizer(
                ScannerTokenizer.from_grammar(self.language.grammar)
            )
        else:
            return ["usage: lexer [whitespace|scanner]"]
        return [f"lexer: {self.language.tokenizer.describe()}"]

    def _show(self, _argument: str) -> List[str]:
        listing = self.language.grammar.pretty()
        return listing.splitlines() if listing else ["(empty grammar)"]

    def _summary(self, _argument: str) -> List[str]:
        summary = self.language.summary()
        return [
            ", ".join(f"{key}={value}" for key, value in summary.items())
        ]

    def _fraction(self, _argument: str) -> List[str]:
        if not self.language.grammar.start_rules():
            return ["no START rule yet"]
        return [f"{self.language.table_fraction():.0%} of the full table generated"]

    def _gc(self, _argument: str) -> List[str]:
        removed = self.language.collect_garbage(force_sweep=True)
        return [f"reclaimed {removed} item sets"]

    def _trees(self, argument: str) -> List[str]:
        if argument not in ("on", "off"):
            return ["usage: trees on|off"]
        self.print_trees = argument == "on"
        return [f"tree printing {argument}"]

    def _quit(self, _argument: str) -> List[str]:
        self.finished = True
        return ["bye"]


def run_session(lines: Iterable[str]) -> List[str]:
    """Execute a scripted session; returns all output lines."""
    session = ReplSession()
    output: List[str] = []
    for line in lines:
        output.extend(session.execute(line))
        if session.finished:
            break
    return output


_USAGE = """usage: python -m repro [subcommand]

subcommands:
  (none) | repl     the interactive grammar-definition REPL
  serve             answer line-delimited JSON requests on stdin, or —
                    with --tcp HOST:PORT / --unix PATH — over a socket
                    via the sharded concurrent scheduler (--workers N:
                    N > 1 runs process shards; --queue-depth, --batch,
                    --ready-file; see README "Serving")
  batch [file...]   run JSON requests from files (or stdin) through the
                    sharded scheduler (--workers, --window) and print
                    responses plus a throughput summary on stderr
  corpus VERB ...   manage persistent corpora under --root DIR:
                    create | ingest | parse | status | query | info
                    (see README "Corpus service")
  obs [file...]     drive JSON requests (or a built-in demo workload)
                    through a one-shard scheduler and print the obs
                    metrics registry (--format prometheus|json,
                    --spans N, --slow-ms MS)
  help              this message"""


def _repl_main() -> int:
    session = ReplSession()
    interactive = sys.stdin.isatty()
    if interactive:
        print("IPG — incremental parser generator "
              "(Heering/Klint/Rekers 1989).  'help' for commands.")
    while not session.finished:
        if interactive:
            print(PROMPT, end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        for out in session.execute(line):
            print(out)
    return 0


def _serve_main(args: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve the line-delimited JSON parse protocol: on stdin by "
            "default, or concurrently over TCP/UNIX sockets with session "
            "sharding, request batching, bounded backpressure, and "
            "graceful SIGTERM drain."
        ),
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP address (PORT 0 picks a free port)",
    )
    parser.add_argument(
        "--unix", metavar="PATH", help="listen on a UNIX-domain socket"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker shards; sessions are partitioned across them, and "
        "N > 1 runs one child process per shard (default: 1)",
    )
    parser.add_argument(
        "--mode",
        choices=("thread", "process"),
        help="shard flavour: 'thread' is one inline shard, 'process' "
        "one child process per shard (default: process when "
        "--workers > 1, else thread)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        metavar="N",
        help="per-shard queue bound; beyond it requests are answered "
        "with an 'overloaded' error (default: 256)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=16,
        metavar="N",
        help="max requests a shard drains at once and serves in order "
        "(default: 16)",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="LRU result-cache entries (per shard in process mode; "
        "default: 1024)",
    )
    parser.add_argument(
        "--corpus-root",
        metavar="DIR",
        help="enable the corpus-* commands, persisting corpora (documents, "
        "parse results, completion journals) under DIR across restarts",
    )
    parser.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write the bound address to PATH once listening "
        "(for scripts driving --tcp HOST:0)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        metavar="MS",
        help="default per-request wall-clock budget; requests that "
        "exceed it answer with a 'deadline-exceeded' error "
        "(requests may override via their 'deadline_ms' field)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="K",
        help="process-shard circuit breaker: more than K restarts "
        "inside --restart-window marks the shard degraded "
        "(default: 5)",
    )
    parser.add_argument(
        "--restart-window",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="sliding window the circuit breaker counts restarts over "
        "(default: 60)",
    )
    parser.add_argument(
        "--backoff-ms",
        type=float,
        default=50.0,
        metavar="MS",
        help="base delay of the jittered exponential backoff between "
        "shard restarts (default: 50)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="log requests slower than MS milliseconds to stderr as "
        "indented span trees (same knob as REPRO_OBS_SLOW_MS)",
    )
    options = parser.parse_args(args)

    if options.tcp and options.unix:
        parser.error("--tcp and --unix are mutually exclusive")
    if options.workers < 1:
        parser.error("--workers must be at least 1")
    if options.queue_depth < 1 or options.batch < 1:
        parser.error("--queue-depth and --batch must be at least 1")
    if options.cache_capacity < 1:
        parser.error("--cache-capacity must be at least 1")
    if options.deadline_ms is not None and not 0 < options.deadline_ms < math.inf:
        parser.error("--deadline-ms must be positive and finite")
    if options.max_restarts < 1:
        parser.error("--max-restarts must be at least 1")
    if options.restart_window <= 0:
        parser.error("--restart-window must be positive")
    if options.backoff_ms < 0:
        parser.error("--backoff-ms must be non-negative")
    if options.slow_ms is not None:
        if options.slow_ms < 0:
            parser.error("--slow-ms must be non-negative")
        from . import obs

        obs.set_slow_threshold(options.slow_ms)
    networked = bool(options.tcp or options.unix)
    if not networked:
        # Everything scheduler- or socket-shaped needs a socket transport;
        # silently ignoring these flags would fake configured behaviour.
        for flag, default in (
            ("workers", 1),
            ("mode", None),
            ("queue_depth", 256),
            ("batch", 16),
            ("ready_file", None),
        ):
            if getattr(options, flag) != default:
                parser.error(
                    f"--{flag.replace('_', '-')} needs --tcp or --unix "
                    f"(the stdin loop is single-threaded by design)"
                )
        from .service.dispatcher import Dispatcher
        from .service.server import serve

        return serve(
            sys.stdin,
            sys.stdout,
            Dispatcher(
                cache_capacity=options.cache_capacity,
                default_deadline_ms=options.deadline_ms,
                corpus_root=options.corpus_root,
            ),
        )

    host: Optional[str] = None
    port: Optional[int] = None
    if options.tcp:
        address, _, port_text = options.tcp.rpartition(":")
        if not address or not port_text.isdigit():
            parser.error(f"--tcp wants HOST:PORT, got {options.tcp!r}")
        host, port = address, int(port_text)

    from .service.net import run_server
    from .service.scheduler import Scheduler

    try:
        scheduler = Scheduler(
            workers=options.workers,
            mode=options.mode,
            max_depth=options.queue_depth,
            max_batch=options.batch,
            cache_capacity=options.cache_capacity,
            deadline_ms=options.deadline_ms,
            max_restarts=options.max_restarts,
            restart_window=options.restart_window,
            backoff_ms=options.backoff_ms,
            corpus_root=options.corpus_root,
        )
    except ValueError as error:  # refused before any child is spawned
        parser.error(str(error))
    return run_server(
        scheduler,
        host=host,
        port=port,
        unix_path=options.unix,
        ready_file=options.ready_file,
    )


def _batch_main(args: List[str]) -> int:
    """``repro batch`` — run JSON requests non-interactively.

    Batch runs go through the sharded scheduler: requests are pipelined
    under a bounded in-flight window, ``--workers N`` (N > 1) parses on N
    child processes and ``--corpus-root`` enables the ``corpus-*`` commands.
    Responses arrive in request order and per-session ordering holds
    (sessions are shard-pinned, shards drain FIFO).  A repeated parse is
    answered by the result cache, with ``"cache": true``.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro batch",
        description=(
            "Run line-delimited JSON requests from files (or stdin) "
            "through the sharded scheduler, printing responses to stdout "
            "and a throughput/cache summary to stderr."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="file",
        help="request files; none reads stdin",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="scheduler shards to pipeline across; N > 1 runs one child "
        "process per shard (default: 1)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="max requests in flight at once (default: 64)",
    )
    parser.add_argument(
        "--corpus-root",
        metavar="DIR",
        help="enable the corpus-* commands, persisting corpora under DIR",
    )
    options = parser.parse_args(args)
    if options.workers < 1:
        parser.error("--workers must be at least 1")
    if options.window is not None and options.window < 1:
        parser.error("--window must be at least 1")

    from .service.protocol import encode
    from .service.server import BATCH_WINDOW, run_batch

    if options.paths:
        lines: List[str] = []
        for path in options.paths:
            try:
                with open(path) as handle:
                    lines.extend(handle.readlines())
            except OSError as error:
                print(f"error: cannot read {path!r}: {error}", file=sys.stderr)
                return 2
    else:
        lines = sys.stdin.readlines()

    from .service.scheduler import Scheduler

    scheduler = Scheduler(
        workers=options.workers, corpus_root=options.corpus_root
    )
    try:
        responses, summary = run_batch(
            lines,
            scheduler,
            window=options.window or BATCH_WINDOW,
        )
    finally:
        scheduler.close()

    for response in responses:
        print(encode(response))
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 1 if summary["errors"] else 0


#: the grammar and requests ``repro obs`` runs when given no input files —
#: a little of everything so every metric family has data: lazy expansion
#: (open), parsing (accept + reject + cache hit), checkpointed parse and
#: an incremental edit-parse, and a traced request for the span ring.
_OBS_DEMO_GRAMMAR = (
    "START ::= B\n"
    "B ::= true\n"
    "B ::= false\n"
    "B ::= B and B\n"
    "B ::= B or B\n"
    "B ::= ( B )"
)


def _obs_demo_requests() -> List[dict]:
    session = "obs-demo"
    return [
        {"cmd": "open", "session": session, "grammar": _OBS_DEMO_GRAMMAR},
        {"cmd": "parse", "session": session, "tokens": "true and false"},
        {"cmd": "parse", "session": session, "tokens": "true and false"},
        {"cmd": "parse", "session": session, "tokens": "true and and"},
        {"cmd": "recognize", "session": session, "tokens": "false or true"},
        {
            "cmd": "parse",
            "session": session,
            "tokens": "true or false and true",
            "checkpoint": True,
            "trace": True,
        },
    ]


def _obs_main(args: List[str]) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro obs",
        description=(
            "Drive JSON requests (files, '-' for stdin, or a built-in "
            "demo workload) through a one-shard scheduler and print "
            "the unified telemetry registry: Prometheus text or JSON, "
            "optionally with recent span trees."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="file",
        help="request files ('-' reads stdin); none runs the demo workload",
    )
    parser.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="export format (default: prometheus)",
    )
    parser.add_argument(
        "--spans",
        type=int,
        default=0,
        metavar="N",
        help="include the N most recent span trees (implies tracing the "
        "driven requests)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="log requests slower than MS milliseconds to stderr as "
        "indented span trees (same knob as REPRO_OBS_SLOW_MS)",
    )
    options = parser.parse_args(args)
    if options.spans < 0:
        parser.error("--spans must be non-negative")
    if options.slow_ms is not None and options.slow_ms < 0:
        parser.error("--slow-ms must be non-negative")

    from . import obs
    from .service.protocol import ProtocolError, iter_requests
    from .service.scheduler import Scheduler

    if options.slow_ms is not None:
        obs.set_slow_threshold(options.slow_ms)

    if options.paths:
        requests: List[dict] = []
        for path in options.paths:
            try:
                text = (
                    sys.stdin.read()
                    if path == "-"
                    else open(path).read()
                )
            except OSError as error:
                print(f"error: cannot read {path!r}: {error}", file=sys.stderr)
                return 2
            try:
                requests.extend(iter_requests(text))
            except ProtocolError as error:
                print(f"error: {path}: {error}", file=sys.stderr)
                return 2
    else:
        requests = _obs_demo_requests()
    if options.spans:
        for request in requests:
            request.setdefault("trace", True)

    # One inline shard: the export carries both the dispatcher-side
    # series and this scheduler's per-shard histograms (shard "0").
    scheduler = Scheduler()
    errors = 0
    try:
        checkpoint_id = None
        for request in requests:
            response = scheduler.handle(request)
            if "error" in response:
                errors += 1
                print(f"error: {response['error']}", file=sys.stderr)
            elif "result" in response:
                checkpoint_id = (request.get("session"), response["result"])
        if not options.paths and checkpoint_id is not None:
            # Demo mode: splice-edit the checkpointed parse so the
            # incremental reuse counters have data too.
            session, result = checkpoint_id
            follow_up = {
                "cmd": "edit-parse",
                "session": session,
                "base": result,
                "edit": {"start": 2, "end": 3, "replacement": "true"},
            }
            if options.spans:
                follow_up["trace"] = True
            response = scheduler.handle(follow_up)
            if "error" in response:
                errors += 1
                print(f"error: {response['error']}", file=sys.stderr)
        export = {"cmd": "metrics-export", "format": options.format}
        if options.spans:
            export["spans"] = options.spans
        exported = scheduler.handle(export)
    finally:
        scheduler.close()
    if "error" in exported:
        print(f"error: {exported['error']}", file=sys.stderr)
        return 1
    if options.format == "prometheus":
        print(exported["text"], end="")
        if options.spans:
            for tree in exported.get("spans", ()):
                print(obs.render_span_tree(tree), file=sys.stderr)
    else:
        payload = {"metrics": exported["metrics"]}
        if options.spans:
            payload["spans"] = exported.get("spans", [])
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 1 if errors else 0


def _corpus_main(args: List[str]) -> int:
    """``repro corpus`` — drive the corpus service against a local root.

    Each verb builds a scheduler over ``--root``, issues the matching
    ``corpus-*`` protocol command, prints the JSON response, and exits
    non-zero on an error response — so shell pipelines can script the
    same ingest → parse → query flow a TCP client would.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro corpus",
        description=(
            "Manage persistent corpora: create, bulk-ingest documents, "
            "batch-parse them across scheduler shards (resumably), and "
            "query the stored results."
        ),
    )
    parser.add_argument(
        "--root",
        required=True,
        metavar="DIR",
        help="corpus root directory (created on demand, survives restarts)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="scheduler shards to parse across; N > 1 runs one child "
        "process per shard (default: 1)",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    create = verbs.add_parser(
        "create", help="register a corpus bound to a grammar and engine"
    )
    create.add_argument("name", help="corpus name")
    create.add_argument(
        "--grammar-file",
        required=True,
        metavar="PATH",
        help="grammar rules, one per line ('-' reads stdin)",
    )
    create.add_argument(
        "--sorts",
        nargs="*",
        default=[],
        metavar="SORT",
        help="sorts to predeclare for forward references",
    )
    create.add_argument(
        "--engine", metavar="NAME", help="parse engine (default: session default)"
    )

    ingest = verbs.add_parser(
        "ingest", help="add documents (content-hashed, duplicates skipped)"
    )
    ingest.add_argument("name", help="corpus name")
    ingest.add_argument(
        "files", nargs="*", metavar="file", help="document files to ingest"
    )
    ingest.add_argument(
        "--manifest",
        metavar="DIR",
        help="ingest every file under DIR (recursively, sorted)",
    )

    parse_verb = verbs.add_parser(
        "parse", help="batch-parse every unparsed document, resumably"
    )
    parse_verb.add_argument("name", help="corpus name")
    parse_verb.add_argument(
        "--window",
        type=int,
        metavar="N",
        help="in-flight documents per shard (default: 2)",
    )
    parse_verb.add_argument(
        "--no-wait",
        action="store_true",
        help="start the job and return immediately instead of waiting",
    )

    status = verbs.add_parser("status", help="progress, store and journal counts")
    status.add_argument("name", help="corpus name")

    query = verbs.add_parser("query", help="paginated queries over stored results")
    query.add_argument("name", help="corpus name")
    query.add_argument(
        "--kind",
        required=True,
        choices=("match", "errors"),
        help="match: occurrences of a nonterminal; errors: grouped "
        "diagnostic summaries",
    )
    query.add_argument(
        "--nonterminal", metavar="NAME", help="nonterminal to match (kind=match)"
    )
    query.add_argument("--page", type=int, default=0, metavar="N")
    query.add_argument("--page-size", type=int, default=50, metavar="N")
    query.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the query read-through cache (Korp's cache=false)",
    )

    info = verbs.add_parser("info", help="list corpora, or one corpus in full")
    info.add_argument("name", nargs="?", help="corpus name (omit to list all)")

    options = parser.parse_args(args)
    if options.workers < 1:
        parser.error("--workers must be at least 1")

    request: dict = {"cmd": f"corpus-{options.verb}"}
    if options.verb == "create":
        try:
            grammar = (
                sys.stdin.read()
                if options.grammar_file == "-"
                else open(options.grammar_file).read()
            )
        except OSError as error:
            print(
                f"error: cannot read {options.grammar_file!r}: {error}",
                file=sys.stderr,
            )
            return 2
        request.update(corpus=options.name, grammar=grammar, sorts=options.sorts)
        if options.engine:
            request["engine"] = options.engine
    elif options.verb == "ingest":
        if not options.files and not options.manifest:
            parser.error("ingest needs document files and/or --manifest DIR")
        request["corpus"] = options.name
        if options.files:
            request["files"] = options.files
        if options.manifest:
            request["manifest"] = options.manifest
    elif options.verb == "parse":
        request.update(corpus=options.name, wait=not options.no_wait)
        if options.window is not None:
            request["window"] = options.window
    elif options.verb == "status":
        request["corpus"] = options.name
    elif options.verb == "query":
        request.update(
            corpus=options.name,
            kind=options.kind,
            page=options.page,
            page_size=options.page_size,
            cache=not options.no_cache,
        )
        if options.nonterminal:
            request["nonterminal"] = options.nonterminal
    elif options.verb == "info" and options.name:
        request["corpus"] = options.name

    from .service.scheduler import Scheduler

    scheduler = Scheduler(workers=options.workers, corpus_root=options.root)
    try:
        response = scheduler.handle(request)
    finally:
        scheduler.close()
    print(json.dumps(response, indent=2, sort_keys=True))
    return 1 if "error" in response else 0


def main(argv: Optional[List[str]] = None) -> int:
    """The ``python -m repro`` / ``repro`` entry point."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if not args or args[0] == "repl":
            return _repl_main()
        command, rest = args[0], args[1:]
        if command == "serve":
            return _serve_main(rest)
        if command == "batch":
            return _batch_main(rest)
        if command == "corpus":
            return _corpus_main(rest)
        if command == "obs":
            return _obs_main(rest)
        if command in ("help", "-h", "--help"):
            print(_USAGE)
            return 0
        print(_USAGE, file=sys.stderr)
        print(f"error: unknown subcommand {command!r}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream reader closed early (`python -m repro help | head`).
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

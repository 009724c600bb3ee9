"""The three workloads: closed-loop clients that time every
request, check every answer, and hand back what they measured.

Each one measures for at least the requested seconds and until it
holds 1000 latency samples (ten beyond p99).  ``run_*`` functions return
an :class:`Outcome`; ``run.py`` turns outcomes into the reported metrics.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import selectors
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.service import Dispatcher
from repro.service.protocol import encode
from repro.service.retry import backoff_ms, is_retryable

from oracle import (
    SDF_MODIFICATION,
    Oracle,
    catalan,
    check_parse_payload,
    nonterminal_pattern,
)
from server import Connection, ServerProcess, peak_rss_mb
from traffic import (
    INGEST_CHUNK,
    EditChain,
    apply_edit,
    booleans_streams,
    corpus_documents,
    corpus_queries,
    edit_chains,
    editor_schedule,
)

MIN_SAMPLES = 1000
#: Hard stop for the measured phase, as a multiple of --seconds.
MAX_STRETCH = 3.0
BOOLEANS_NONTERMINALS = nonterminal_pattern(("B", "START"))


def sdf_inputs() -> Dict[str, Tuple[str, ...]]:
    from repro.sdf.corpus import corpus_tokens

    return {
        name: tuple(t.name for t in tokens)
        for name, tokens in corpus_tokens().items()
    }


#: What the reference loop takes on a fast stretch of the 2-vCPU Xeon KVM
#: guest the benchmark was written on.  Scaled times are at that speed.
REFERENCE_SECONDS = 0.0016
#: Seconds of measured phase between two timings of the reference loop;
#: booleans-tcp drains both connections for each, so it times less often.
CALIBRATE_EVERY = 0.05
TCP_CALIBRATE_EVERY = 0.5
#: The slowdown is the median of this many latest timings of the loop.
CALIBRATE_WINDOW = 5


def _reference_loop() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class HostSpeed:
    """How much slower than REFERENCE_SECONDS the host runs right now.

    A shared host runs in fast and slow stretches, from a second to
    minutes long, and a slow one made every request about 1.45 times
    slower; over 30 s runs that moved throughput by half from run to run.
    Timing a fixed pure-Python loop between requests, and dividing each
    request's time by the loop's slowdown, cancels most of that.  The
    loop is benchmark code, so a change to the program still shows in
    full.  Its own time is left out of the phase's wall time.
    """

    def __init__(self, every: float = CALIBRATE_EVERY) -> None:
        self.every = every
        self.factor = 1.0
        self.paused = 0.0
        self.factors: List[float] = []
        self._due = 0.0

    def due(self) -> bool:
        return time.perf_counter() >= self._due

    def check(self) -> None:
        """Time the loop if ``every`` seconds passed since the last time."""
        if self.due():
            self.measure()

    def measure(self) -> None:
        began = time.perf_counter()
        _reference_loop()
        took = time.perf_counter() - began
        self.factors.append(took / REFERENCE_SECONDS)
        self.factor = statistics.median(self.factors[-CALIBRATE_WINDOW:])
        self.paused += took
        self._due = began + took + self.every


class Outcome:
    """Samples, counts and check results of one measured phase."""

    def __init__(self, host: Optional[HostSpeed] = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.latencies: List[float] = []
        #: request class -> samples (edit_parse, modify, outside, ...)
        self.classes: Dict[str, List[float]] = {}
        self.wall = 0.0
        self.setup: List[float] = []
        self.values: Dict[str, float] = {}
        #: When set, every time is scaled to the reference host speed.
        self.host = host
        self._unscaled = 0.0  # sum of the latencies before scaling

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(why)

    def scaled(self, seconds: float) -> float:
        return seconds / self.host.factor if self.host else seconds

    def sample(self, seconds: float, *classes: str) -> None:
        self._unscaled += seconds
        seconds = self.scaled(seconds)
        self.latencies.append(seconds)
        for name in classes:
            self.note(name, seconds)

    def end(self, started: float, paused: float = 0.0) -> None:
        """Close the measured phase: its wall time without ``paused`` or
        the reference loop, scaled by the same share as the latencies."""
        wall = time.perf_counter() - started - paused
        if self.host is not None:
            wall -= self.host.paused
            if self._unscaled:
                wall *= sum(self.latencies) / self._unscaled
        self.wall = wall

    def note(self, name: str, value: float) -> None:
        self.classes.setdefault(name, []).append(value)

    def count(self, key: str, value: float = 1) -> None:
        self.values[key] = self.values.get(key, 0) + value


class Answers:
    """First answer per expectation key, plus a signature check of every
    later answer against it; the stored answers are verified after the
    measured phase, outside the timed window."""

    def __init__(self) -> None:
        self.first: Dict[Any, Tuple[Any, Dict[str, Any]]] = {}

    def record(self, key: Any, signature: Any, response: Dict[str, Any],
               outcome: Outcome) -> None:
        held = self.first.setdefault(key, (signature, response))
        if held[0] != signature:
            outcome.fail(f"answer for {key!r} changed between requests")


def _tree_signature(response: Dict[str, Any]) -> Any:
    # No json.dumps here: a traced run times json.dumps as a layer.
    return (
        response.get("accepted"),
        tuple(sorted((response.get("ambiguity") or {}).items())),
        hash(tuple(response.get("trees") or ())),
    )


Send = Callable[[Dict[str, Any]], Tuple[Dict[str, Any], float]]


def in_process_sender(dispatcher: Dispatcher) -> Send:
    """A request as the serve loop does it, minus the transport: dispatch,
    then encode the response line."""
    clock = time.perf_counter

    def send(request: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        started = clock()
        response = dispatcher.handle(request)
        encode(response)
        return response, clock() - started

    return send


def timed_call(send: Send, outcome: Outcome, request: Dict[str, Any],
               *classes: str) -> Dict[str, Any]:
    """One request through ``send``: timed, counted, errors failed."""
    if outcome.host is not None:
        outcome.host.check()
    outcome.attempted += 1
    response, seconds = send(request)
    outcome.sample(seconds, *classes)
    if "error" in response:
        outcome.fail(f"{request['cmd']}: {response['error']}")
    return response


def _keep_going(started: float, seconds: float, outcome: Outcome,
                min_samples: int) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed >= seconds * MAX_STRETCH:
        return False
    return elapsed < seconds or len(outcome.latencies) < min_samples


# -- booleans-tcp -----------------------------------------------------------


def _booleans_answer(
    meta: Tuple[Any, ...], first_read: bool, response: Dict[str, Any],
    seconds: float, outcome: Outcome, answers: Answers,
) -> None:
    """Time and check one booleans answer (retries already folded in)."""
    cmd = meta[0]
    outcome.attempted += 1
    classes = ["modify"] if cmd in ("add-rule", "delete-rule") else []
    if first_read:
        classes.append("post_modify")
    outcome.sample(seconds, *classes)
    if "error" in response:
        outcome.fail(f"{cmd}: {response['error']}")
    elif cmd in ("add-rule", "delete-rule"):
        field = "added" if cmd == "add-rule" else "deleted"
        if response.get(field) is not True:
            outcome.fail(f"{cmd} answered {response}")
    elif cmd == "recognize":
        answers.record(meta, (response.get("accepted"),), response, outcome)
    else:
        answers.record(meta, _tree_signature(response), response, outcome)


def verify_booleans(answers: Answers, oracle: Oracle, outcome: Outcome) -> None:
    for (cmd, maybe, tokens, max_trees), (_sig, response) in answers.first.items():
        words = tokens.split()
        accepted = oracle.accepts("booleans", maybe, words)
        if cmd == "recognize":
            if response.get("accepted") is not accepted:
                outcome.fail(f"recognize {tokens!r}: oracle says {accepted}")
            continue
        operands = (len(words) + 1) // 2
        problem = check_parse_payload(
            response, words, accepted, max_trees,
            catalan(operands - 1), BOOLEANS_NONTERMINALS,
        )
        if problem is not None:
            outcome.fail(f"parse {tokens!r}: {problem}")


class _Client:
    """One closed-loop connection: its stream and its request in flight."""

    def __init__(self, connection: Connection, stream: Iterator[Any]) -> None:
        self.connection = connection
        self.stream = stream
        self.request: Dict[str, Any] = {}
        self.meta: Tuple[Any, ...] = ()
        self.first_read = False
        self.elapsed = 0.0  # seconds spent on earlier attempts
        self.attempt = 0


def run_booleans_tcp(
    oracle: Oracle, root: str, run_dir: str, seed: int, seconds: float,
    traced: bool, setups: int = 5, min_samples: int = MIN_SAMPLES,
) -> Outcome:
    """Two closed-loop connections to a two-shard process server, driven
    from one thread (a selector), so the client's own threads never
    compete for the interpreter lock and skew the latencies.  Untraced,
    times are scaled to the reference host speed; the reference loop runs
    only while no request is in flight, so it never competes with the
    shards for the two CPUs."""
    outcome = Outcome(None if traced else HostSpeed(TCP_CALIBRATE_EVERY))
    answers = Answers()
    server = ServerProcess(root, run_dir)
    selector = selectors.DefaultSelector()
    setup_host = HostSpeed()
    try:
        for attempt in range(setups):
            for _ in range(CALIBRATE_WINDOW):
                setup_host.measure()
            outcome.setup.append(server.start() / setup_host.factor)
            if attempt < setups - 1:
                server.stop()
        opens, streams = booleans_streams(seed)
        clients = [_Client(server.connect(), stream) for stream in streams]
        for request in opens:
            response, _ = clients[0].connection.call(request)
            if "opened" not in response:
                outcome.fail(f"open answered {response}")

        held: List[_Client] = []

        def calibrate_when_idle() -> None:
            """Once every live connection is held, time the reference loop
            and send the held connections' next requests."""
            if held and len(held) == len(selector.get_map()):
                outcome.host.measure()
                ready = held[:]
                held.clear()
                for waiting in ready:
                    send_next(waiting)

        def issue(client: _Client) -> None:
            if not _keep_going(started, seconds, outcome, min_samples):
                selector.unregister(client.connection.sock)
                calibrate_when_idle()
                return
            if outcome.host is not None and outcome.host.due():
                held.append(client)
                calibrate_when_idle()
                return
            send_next(client)

        def send_next(client: _Client) -> None:
            client.request, client.meta, client.first_read = next(
                client.stream
            )
            if traced:
                client.request["trace"] = True
            client.elapsed, client.attempt = 0.0, 0
            client.connection.send(client.request)

        started = time.perf_counter()
        for client in clients:
            selector.register(client.connection.sock, selectors.EVENT_READ,
                              client)
            issue(client)
        while selector.get_map():
            for key, _events in selector.select():
                client = key.data
                received = client.connection.receive()
                if received is None:
                    continue
                response, latency = received
                latency += client.elapsed
                if is_retryable(response) and client.attempt < 8:
                    outcome.count("retried")
                    time.sleep(backoff_ms(response, client.attempt) / 1000.0)
                    client.elapsed = latency
                    client.attempt += 1
                    client.connection.send(client.request)
                    continue
                _booleans_answer(client.meta, client.first_read, response,
                                 latency, outcome, answers)
                if "time" in response:
                    outcome.note("server", response["time"])
                    outcome.note("outside", latency - response["time"])
                trace = response.get("trace")
                if isinstance(trace, dict):
                    wait = trace.get("attributes", {}).get("queue_wait")
                    if wait is not None:
                        outcome.note("queue_wait", wait)
                issue(client)
        outcome.end(started)
        response, _ = clients[0].connection.call({"cmd": "metrics"})
        scheduler = response.get("scheduler", {})
        outcome.values["overloaded"] = scheduler.get("overloaded", 0)
        outcome.values["coalesced"] = scheduler.get("coalesced", 0)
        outcome.values["peak_rss_mb"] = peak_rss_mb(server.pids())
        for client in clients:
            client.connection.close()
    finally:
        selector.close()
        server.stop()
    verify_booleans(answers, oracle, outcome)
    return outcome


def booleans_replay(
    dispatcher: Dispatcher, seed: int, limit: Optional[int],
    seconds: float, outcome: Outcome, window: Optional[Any] = None,
) -> Answers:
    """The booleans-tcp request stream, sequentially through an
    in-process dispatcher: ``limit`` requests, or ``seconds`` if None."""
    opens, streams = booleans_streams(seed)
    for request in opens:
        dispatcher.handle(request)
    send = in_process_sender(dispatcher)
    answers = Answers()
    count = 0
    with window or contextlib.nullcontext():
        started = time.perf_counter()
        while (count < limit) if limit is not None else (
            time.perf_counter() - started < seconds
        ):
            request, meta, first_read = next(streams[count % len(streams)])
            response, latency = send(request)
            _booleans_answer(meta, first_read, response, latency, outcome,
                             answers)
            count += 1
        outcome.wall = time.perf_counter() - started
    return answers


# -- sdf-editor -------------------------------------------------------------

EDITOR_SESSION = "designer"


def open_editor(oracle: Oracle) -> Tuple[Dispatcher, float]:
    started = time.perf_counter()
    dispatcher = Dispatcher()
    response = dispatcher.handle({
        "cmd": "open", "session": EDITOR_SESSION,
        "grammar": oracle.sdf_text, "sorts": oracle.sdf_sorts,
    })
    seconds = time.perf_counter() - started
    if "opened" not in response:
        raise RuntimeError(f"open failed: {response}")
    return dispatcher, seconds


class Editor:
    """The sdf-editor script for one seed, driven against a dispatcher."""

    def __init__(self, oracle: Oracle, seed: int) -> None:
        self.oracle = oracle
        inputs = sdf_inputs()
        self.chains: Dict[str, EditChain] = edit_chains(oracle, inputs, seed)
        self.schedule = editor_schedule(seed, list(inputs))
        self.nonterminals = nonterminal_pattern(oracle.sdf_nonterminals)

    def drive(
        self, dispatcher: Dispatcher, outcome: Outcome, answers: Answers,
        keep_going: Callable[[int], bool],
    ) -> int:
        """Run schedule items while ``keep_going(items run so far)``;
        returns the number of items run."""
        send = in_process_sender(dispatcher)
        state = False
        after_modify = False
        items = 0
        while keep_going(items):
            kind, value = self.schedule[items % len(self.schedule)]
            items += 1
            if kind == "modify":
                cmd = "add-rule" if value else "delete-rule"
                response = timed_call(send, outcome, {
                    "cmd": cmd, "session": EDITOR_SESSION,
                    "rule": SDF_MODIFICATION,
                }, "modify")
                field = "added" if value else "deleted"
                if response.get(field) is not True:
                    outcome.fail(f"{cmd} answered {response}")
                state = value
                after_modify = True
                continue
            self._cycle(send, outcome, answers, self.chains[value], state,
                        after_modify)
            after_modify = False
        return items

    def _record(self, answers: Answers, outcome: Outcome, mode: str,
                state: bool, tokens: Tuple[str, ...],
                response: Dict[str, Any]) -> None:
        if "error" in response:
            return
        signature = (
            _tree_signature(response) if mode == "parse"
            else (response.get("accepted"),)
        )
        answers.record((mode, state, tokens), signature, response, outcome)

    def _cycle(self, send, outcome: Outcome, answers: Answers,
               chain: EditChain, state: bool, after_modify: bool) -> None:
        text = " ".join(chain.tokens)
        bases = {}
        for mode in ("parse", "recognize"):
            classes = ("post_modify",) if after_modify and mode == "parse" else ()
            response = timed_call(send, outcome, {
                "cmd": mode, "session": EDITOR_SESSION, "tokens": text,
                "checkpoint": True,
            }, *classes)
            self._record(answers, outcome, mode, state, chain.tokens, response)
            bases[mode] = response.get("result")
        for mode, base in bases.items():
            for edit, tokens, follow in chain.walk(mode == "recognize"):
                if base is None:
                    outcome.fail(f"{mode} chain lost its base")
                    break
                response = self._edit(send, outcome, answers, mode, state,
                                      base, tokens, edit)
                if follow:
                    base = response.get("result")

    def _edit(self, send, outcome: Outcome, answers: Answers, mode: str,
              state: bool, base: str, tokens: Tuple[str, ...],
              edit) -> Dict[str, Any]:
        start, end, replacement = edit
        response = timed_call(send, outcome, {
            "cmd": "edit-parse", "session": EDITOR_SESSION, "base": base,
            "edit": {"start": start, "end": end,
                     "replacement": " ".join(replacement)},
        }, "edit_parse")
        self._record(answers, outcome, mode, state,
                     apply_edit(tokens, edit), response)
        return response

    def verify(self, answers: Answers, outcome: Outcome) -> None:
        for (mode, state, tokens), (_sig, response) in answers.first.items():
            accepted = self.oracle.sdf_accepts(tokens, state)
            if mode == "recognize":
                if response.get("accepted") is not accepted:
                    outcome.fail(f"recognize: oracle says {accepted}")
                continue
            problem = check_parse_payload(
                response, tokens, accepted, None, 1, self.nonterminals
            )
            if problem is not None:
                outcome.fail(f"parse of {len(tokens)} tokens: {problem}")


#: The end-to-end sdf-editor run times a set-up before every this many
#: script items, about 150 in a 30 s run.
SETUP_EVERY = 4


def run_sdf_editor(
    oracle: Oracle, seed: int, seconds: float,
    items: Optional[int] = None, window: Optional[Any] = None,
    min_samples: int = MIN_SAMPLES, end_to_end: bool = False,
) -> Tuple[Outcome, Dispatcher]:
    """One designer session for ``seconds`` (or exactly ``items`` script
    items); returns the outcome and the dispatcher, which the caller
    reads per-session counters from and then closes.

    With ``end_to_end``, times are scaled to the reference host speed
    (:class:`HostSpeed`), and a set-up (a second dispatcher and session,
    closed again) is timed before every SETUP_EVERY script items.  Spread
    over the whole phase, these samples see the same mix of fast and slow
    stretches of a shared host as the requests do.  Their time is left
    out of the phase's wall time."""
    outcome = Outcome(HostSpeed() if end_to_end else None)
    editor = Editor(oracle, seed)
    dispatcher, _setup = open_editor(oracle)
    answers = Answers()
    paused = 0.0

    def keep_going(done: int) -> bool:
        nonlocal paused
        if end_to_end and done % SETUP_EVERY == 0:
            began = time.perf_counter()
            fresh, setup = open_editor(oracle)
            fresh.close()
            outcome.setup.append(outcome.scaled(setup))
            paused += time.perf_counter() - began
        if items is not None:
            return done < items
        return _keep_going(started, seconds, outcome, min_samples)

    with window or contextlib.nullcontext():
        reset_peak_rss()
        started = time.perf_counter()
        outcome.values["items"] = editor.drive(
            dispatcher, outcome, answers, keep_going
        )
        outcome.end(started, paused)
        outcome.values["peak_rss_mb"] = self_peak_rss_mb()
    editor.verify(answers, outcome)
    return outcome, dispatcher


# -- corpus-sdf -------------------------------------------------------------

CORPUS = "sdf"


def open_corpus(oracle: Oracle, root: str) -> Tuple[Dispatcher, float]:
    """Set-up: a dispatcher over a fresh corpus root, corpus created."""
    started = time.perf_counter()
    dispatcher = Dispatcher(corpus_root=root)
    response = dispatcher.handle({
        "cmd": "corpus-create", "corpus": CORPUS,
        "grammar": oracle.sdf_text, "sorts": oracle.sdf_sorts,
    })
    seconds = time.perf_counter() - started
    if response.get("corpus") != CORPUS:
        dispatcher.close()
        raise RuntimeError(f"corpus-create failed: {response}")
    return dispatcher, seconds


class Corpus:
    """The corpus-sdf script: documents, expectations and one pass."""

    def __init__(self, oracle: Oracle, seed: int) -> None:
        self.oracle = oracle
        self.docs = corpus_documents(oracle, sdf_inputs(), seed)
        self.queries = corpus_queries(seed)
        self.chunks = [
            self.docs[start : start + INGEST_CHUNK]
            for start in range(0, len(self.docs), INGEST_CHUNK)
        ]
        seen: Dict[str, Dict[str, Any]] = {}
        self.chunk_added = []
        for chunk in self.chunks:
            added = 0
            for doc in chunk:
                if doc["text"] not in seen:
                    seen[doc["text"]] = doc
                    added += 1
            self.chunk_added.append(added)
        distinct = list(seen.values())
        self.distinct = len(distinct)
        self.accepted = sum(1 for doc in distinct if doc["accepted"])
        self.rejected_names = sorted(
            doc["name"] for doc in distinct if not doc["accepted"]
        )

    def run_pass(self, dispatcher: Dispatcher, outcome: Outcome,
                 answers: Answers) -> None:
        send = in_process_sender(dispatcher)

        def call(request: Dict[str, Any], *classes: str) -> Dict[str, Any]:
            return timed_call(send, outcome, request, *classes)

        for chunk, added in zip(self.chunks, self.chunk_added):
            response = call({
                "cmd": "corpus-ingest", "corpus": CORPUS,
                "documents": [{"name": d["name"], "text": d["text"]}
                              for d in chunk],
            }, "ingest")
            if (response.get("added"), response.get("duplicates")) != (
                added, len(chunk) - added
            ):
                outcome.fail(f"ingest answered {response}")
        outcome.count("ingested_docs", len(self.docs))
        response = call({"cmd": "corpus-parse", "corpus": CORPUS,
                         "wait": True}, "corpus_parse")
        job = response.get("job", {})
        if (job.get("state"), job.get("accepted"), job.get("rejected")) != (
            "done", self.accepted, self.distinct - self.accepted
        ):
            outcome.fail(f"corpus-parse answered {job}")
        outcome.count("parsed_docs", self.distinct)
        for query in self.queries:
            request = dict(query, cmd="corpus-query", corpus=CORPUS)
            response = call(request, "query")
            outcome.count("query_cache_hits", response.get("cache") is True)
            key = tuple(sorted(query.items()))
            # Pages follow the journal's completion order, which the
            # batch job does not fix; totals and page sizes are fixed.
            signature = tuple(
                response.get(k) for k in
                ("total", "occurrences", "accepted", "rejected")
            ) + (len(response.get("hits", ())),)
            answers.record(key, signature, response, outcome)

    @staticmethod
    def rejected_page(dispatcher: Dispatcher) -> Dict[str, Any]:
        """Every rejected document, for :meth:`verify`."""
        return dispatcher.handle({
            "cmd": "corpus-query", "corpus": CORPUS, "kind": "errors",
            "page_size": 500, "cache": False,
        })

    def verify(self, rejected_page: Dict[str, Any], answers: Answers,
               outcome: Outcome) -> None:
        """Untimed: the stored answers against the oracle's verdicts."""
        for key, (_sig, response) in answers.first.items():
            fields = dict(key)
            if fields["kind"] == "match" and (
                fields["nonterminal"] == "SDF-DEFINITION"
                and response.get("total") != self.accepted
            ):
                outcome.fail(f"match SDF-DEFINITION total {response.get('total')}")
            if fields["kind"] == "errors" and (
                response.get("accepted"), response.get("rejected")
            ) != (self.accepted, self.distinct - self.accepted):
                outcome.fail(f"errors query counts {response.get('accepted')}"
                             f"/{response.get('rejected')}")
        groups = rejected_page.get("hits", ())
        listed = {doc["name"] for group in groups for doc in group["docs"]}
        if sum(group["count"] for group in groups) != len(
            self.rejected_names
        ) or not listed <= set(self.rejected_names):
            outcome.fail("rejected documents differ from the oracle's")


def scratch_dir(run_dir: str) -> str:
    return tempfile.mkdtemp(prefix="corpus-", dir=run_dir)


def run_corpus_sdf(
    oracle: Oracle, run_dir: str, seed: int, seconds: float,
    passes: Optional[int] = None,
    window: Optional[Any] = None, min_samples: int = MIN_SAMPLES,
    end_to_end: bool = False,
) -> Outcome:
    """Passes of create → ingest → parse → queries, each in a fresh
    corpus root, for ``seconds`` (or exactly ``passes`` passes).  With
    ``end_to_end``, times are scaled to the reference host speed, and
    the last pass's writes are flushed before each pass's set-up, so the
    set-up's own fsync does not wait for them; the flush is left out of
    the phase's wall time."""
    corpus = Corpus(oracle, seed)
    outcome = Outcome(HostSpeed() if end_to_end else None)
    answers = Answers()
    rejected_page: Dict[str, Any] = {}
    paused = 0.0
    done = 0
    with window or contextlib.nullcontext():
        reset_peak_rss()
        started = time.perf_counter()
        while (done < passes) if passes is not None else _keep_going(
            started, seconds, outcome, min_samples
        ):
            if end_to_end:
                began = time.perf_counter()
                os.sync()
                paused += time.perf_counter() - began
            root = scratch_dir(run_dir)
            try:
                dispatcher, setup = open_corpus(oracle, root)
                outcome.setup.append(outcome.scaled(setup))
                try:
                    corpus.run_pass(dispatcher, outcome, answers)
                    if done == 0:
                        status = dispatcher.handle(
                            {"cmd": "corpus-status", "corpus": CORPUS}
                        )
                        outcome.values["dedup_ratio"] = (
                            status["store"]["dedup_ratio"])
                        outcome.values["journal_entries"] = (
                            status["journal"]["entries"])
                        rejected_page = corpus.rejected_page(dispatcher)
                    count_workspace(dispatcher, outcome)
                finally:
                    dispatcher.close()
            finally:
                shutil.rmtree(root, ignore_errors=True)
            done += 1
        outcome.end(started, paused)
        outcome.values["peak_rss_mb"] = self_peak_rss_mb()
    outcome.values["passes"] = done
    corpus.verify(rejected_page, answers, outcome)
    return outcome


def count_workspace(dispatcher: Dispatcher, outcome: Outcome) -> None:
    """Fold a dispatcher's lazy expansions, checkpoint evictions and
    result-cache lookups (the session cache, not the corpus query cache)
    into ``outcome.values``."""
    workspace = dispatcher.workspace
    for name in workspace.names():
        session = workspace.get(name)
        outcome.count("expansions",
                      session.language.generator.graph.stats.expansions)
        outcome.count("checkpoint_evictions", session.checkpoint_evictions)
    outcome.count("cache_hits", workspace.cache.stats.hits)
    outcome.count("cache_lookups", workspace.cache.stats.lookups)


def reset_peak_rss() -> None:
    """Lower this process's peak RSS (``VmHWM``) to its current RSS, so
    that :func:`self_peak_rss_mb` covers only what runs after the call and
    not the oracle's work before it."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def self_peak_rss_mb() -> float:
    return peak_rss_mb([os.getpid()])

"""Seeded inputs for the three workloads.

The seed permutes order, spellings and edit positions; it never changes
the mix.  Every workload is built from fixed blocks whose contents (request
kinds, sentence lengths, edit kinds, duplicate and reject shares) are the
same for every seed, so two seeds do the same amount of work.  The old
``repro.bench.workloads.service_requests`` drew its sentence lengths from
the seed, which is why its seed 1 did 2.5x the work of seed 0.

Why each workload exists (see also README.md):

* ``booleans-tcp`` — the ambiguous Fig. 4.1 grammar behind the process-shard
  TCP server.  Forest counting and tree rendering dominate uncached parses;
  cheap cached requests and recognitions expose framing, queue wait and
  shard IPC.  The engine, reparse and corpus layers do little here.
* ``sdf-editor`` — one language designer on the paper's SDF grammar: the
  engine, lazy regeneration after the section 7 modification, and
  incremental reparse do the work; no transport, one tree per response.
* ``corpus-sdf`` — bulk ingest, batch parse and paginated queries: the only
  workload with disk writes, and its parses bypass the result cache.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from oracle import BOOLEANS_TEXT, MAYBE_RULE, Oracle

Request = Dict[str, Any]

# -- booleans-tcp -----------------------------------------------------------

#: One epoch of one session: a grammar toggle, then these six reads in a
#: seeded order.  ``(cmd, operands, max_trees, sentence slot)``; two reads
#: that share a slot repeat the same sentence, so exactly two of the six
#: reads are cache hits.  One read in six carries ``"max_trees": 1``; the
#: ``maybe`` slot is rejected in the base grammar and accepted after the
#: toggle.  Toggles are one request in seven (14%).
EPOCH_READS: Tuple[Tuple[str, int, Optional[int], str], ...] = (
    ("parse", 8, None, "p8"),
    ("parse", 8, None, "p8"),
    ("parse", 6, 1, "p6"),
    ("recognize", 9, None, "r9"),
    ("recognize", 9, None, "r9"),
    ("parse", 5, None, "m5"),
)

BOOLEANS_SESSIONS = 16
BOOLEANS_CONNECTIONS = 2


def _boolean_sentence(rng: random.Random, operands: int, maybe: bool) -> str:
    words = [rng.choice(("true", "false")) for _ in range(operands)]
    if maybe:
        words[rng.randrange(operands)] = "maybe"
    parts = [words[0]]
    for word in words[1:]:
        parts += [rng.choice(("and", "or")), word]
    return " ".join(parts)


def booleans_session_names(shards: int = 2) -> List[List[str]]:
    """Session names per connection: connection *i* owns the sessions the
    server routes (by CRC32) to shard *i*.  Connections that shared a
    shard would queue behind each other's 50 ms parses at random, which
    made throughput and p50 vary by 15% from run to run."""
    per_connection = BOOLEANS_SESSIONS // BOOLEANS_CONNECTIONS
    connections: List[List[str]] = [[] for _ in range(shards)]
    probe = 0
    while any(len(c) < per_connection for c in connections):
        name = f"s{probe:03d}"
        owned = connections[zlib.crc32(name.encode("utf-8")) % shards]
        if len(owned) < per_connection:
            owned.append(name)
        probe += 1
    return connections


def _session_stream(
    name: str, rng: random.Random
) -> Iterator[Tuple[Request, Tuple[Any, ...], bool]]:
    """One session's endless request stream.  Each request comes with
    its expectation key ``(cmd, maybe_enabled, tokens, max_trees)`` and
    whether it is the session's first read after a grammar edit."""
    sentences = {
        "p8": _boolean_sentence(rng, 8, False),
        "p6": _boolean_sentence(rng, 6, False),
        "r9": _boolean_sentence(rng, 9, False),
        "m5": _boolean_sentence(rng, 5, True),
    }
    maybe = False
    while True:
        maybe = not maybe
        cmd = "add-rule" if maybe else "delete-rule"
        yield (
            {"cmd": cmd, "session": name, "rule": MAYBE_RULE},
            (cmd, maybe, None, None),
            False,
        )
        reads = rng.sample(EPOCH_READS, len(EPOCH_READS))
        for index, (read, _operands, max_trees, slot) in enumerate(reads):
            request: Request = {
                "cmd": read,
                "session": name,
                "tokens": sentences[slot],
            }
            if max_trees is not None:
                request["max_trees"] = max_trees
            yield request, (read, maybe, sentences[slot], max_trees), index == 0


def booleans_streams(
    seed: int,
) -> Tuple[List[Request], List[Iterator[Tuple[Request, Tuple[Any, ...], bool]]]]:
    """``(opens, per-connection streams)``; each connection round-robins
    over its own sessions, so its requests stay in session order."""
    names = booleans_session_names()
    opens = [
        {"cmd": "open", "session": name, "grammar": BOOLEANS_TEXT}
        for connection in names
        for name in connection
    ]
    streams = []
    for index, connection in enumerate(names):
        rng = random.Random(f"booleans/{seed}/{index}")
        order = rng.sample(connection, len(connection))
        sessions = [
            _session_stream(name, random.Random(f"booleans/{seed}/{name}"))
            for name in order
        ]

        def round_robin(sessions=sessions):
            while True:
                for stream in sessions:
                    yield next(stream)

        streams.append(round_robin())
    return opens, streams


# -- SDF edits --------------------------------------------------------------

KINDS = ("sub1", "ins2", "ins8", "del2")
#: Elements of CF-ELEM / LEX-ELEM lists (sorts and literals).
ELEMS = ("ID", "LITERAL")

Edit = Tuple[int, int, Tuple[str, ...]]  # (start, end, replacement)


def apply_edit(tokens: Sequence[str], edit: Edit) -> Tuple[str, ...]:
    start, end, replacement = edit
    return tuple(tokens[:start]) + tuple(replacement) + tuple(tokens[end:])


def _middle_first(sites: Sequence[int], n: int,
                  rng: random.Random) -> List[int]:
    """Sites nearest the middle of the input first, the nearest eight in a
    seeded order.  The seed moves each edit, but not the length of the
    suffix that a tree-mode reparse re-reads, so seeds cost the same."""
    ordered = sorted(sites, key=lambda i: abs(2 * i - n))
    head = ordered[:8]
    rng.shuffle(head)
    return head + ordered[8:]


def _candidates(
    tokens: Sequence[str], kind: str, rng: random.Random, valid: bool
) -> List[Edit]:
    """Seeded candidate edits of one kind, most likely ``valid`` first.

    Valid candidates stay inside element lists (before ``->``), where the
    SDF grammar accepts any mix of sorts and literals; invalid ones put
    keywords where they cannot go.  The oracle decides, not this guess.
    """
    n = len(tokens)
    if not valid:
        junk = {
            "sub1": lambda i: (i, i + 1, ("->",)),
            "ins2": lambda i: (i, i, ("begin", "end")),
            "ins8": lambda i: (i, i, ("end",) * 8),
            "del2": lambda i: (i, i + 2, ()),
        }[kind]
        return [junk(i) for i in _middle_first(range(1, n - 2), n, rng)]
    elems = [i for i in range(n - 1) if tokens[i] in ELEMS]
    arrows = [i for i in range(n) if tokens[i] == "->"]
    if kind == "sub1":
        sites = [i for i in elems if tokens[i + 1] in ELEMS + ("->",)]
        return [
            (i, i + 1, ("LITERAL" if tokens[i] == "ID" else "ID",))
            for i in _middle_first(sites, n, rng)
        ]
    if kind in ("ins2", "ins8"):
        width = 2 if kind == "ins2" else 8
        return [
            (i, i, tuple(rng.choice(ELEMS) for _ in range(width)))
            for i in _middle_first(arrows, n, rng)
        ]
    sites = [i for i in elems if tokens[i + 1] in ELEMS]
    return [(i, i + 2, ()) for i in _middle_first(sites, n, rng)]


def find_edit(
    oracle: Oracle,
    tokens: Sequence[str],
    kind: str,
    rng: random.Random,
    valid: bool,
) -> Edit:
    """The first seeded candidate whose verdict (in the base grammar) is
    ``valid``."""
    for edit in _candidates(tokens, kind, rng, valid)[:64]:
        if oracle.sdf_accepts(apply_edit(tokens, edit), False) == valid:
            return edit
    raise RuntimeError(f"no {'valid' if valid else 'invalid'} {kind} edit")


class EditChain:
    """One input's seeded edit script for ``sdf-editor``.

    ``steps`` are the four accepted edits (one of each kind, seeded
    order), applied one after another; ``branch`` is one rejected edit,
    taken off the chain after ``branch_after`` steps and not continued.
    """

    def __init__(
        self, tokens: Tuple[str, ...], steps: List[Edit],
        branch_after: int, branch: Edit,
    ) -> None:
        self.tokens = tokens
        self.steps = steps
        self.branch_after = branch_after
        self.branch = branch

    def walk(self, typing: bool) -> List[Tuple[Edit, Tuple[str, ...], bool]]:
        """``(edit, tokens it applies to, whether the chain continues from
        its result)`` in request order.  A *typing* walk also undoes the
        four edits and redoes them, the way a designer edits with syntax
        checking on; it keeps recognition-mode edits, whose latency does
        not depend on the input's size, the majority of the traffic, so
        the median latency sits inside one mode and not between two."""
        walk = []
        history = []
        current = self.tokens
        for index, edit in enumerate(self.steps):
            if index == self.branch_after:
                walk.append((self.branch, current, False))
            walk.append((edit, current, True))
            history.append((edit, current))
            current = apply_edit(current, edit)
        if typing:
            for (start, end, replacement), before in reversed(history):
                undo = (start, start + len(replacement), before[start:end])
                walk.append((undo, current, True))
                current = before
            for edit, before in history:
                walk.append((edit, before, True))
        return walk



def edit_chains(
    oracle: Oracle, inputs: Dict[str, Tuple[str, ...]], seed: int
) -> Dict[str, EditChain]:
    """One chain per input.  Across the four inputs the rejected edits
    cover each kind exactly once, so the reject mix is seed-free."""
    rng = random.Random(f"sdf-edits/{seed}")
    rejected_kinds = rng.sample(KINDS, len(KINDS))
    chains = {}
    for index, (name, tokens) in enumerate(inputs.items()):
        current = tokens
        steps = []
        branch_after = rng.randrange(len(KINDS))
        branch: Optional[Edit] = None
        for step, kind in enumerate(rng.sample(KINDS, len(KINDS))):
            if step == branch_after:
                branch = find_edit(
                    oracle, current, rejected_kinds[index], rng, False
                )
            edit = find_edit(oracle, current, kind, rng, True)
            steps.append(edit)
            current = apply_edit(current, edit)
        assert branch is not None
        chains[name] = EditChain(tokens, steps, branch_after, branch)
    return chains


def editor_schedule(seed: int, inputs: Sequence[str]) -> List[Tuple[str, Any]]:
    """The repeating sdf-editor script: ``("cycle", input)`` and
    ``("modify", added)`` items.

    Every input is edited once before and once after the section 7
    modification, two inputs per grammar state, so each pass covers the
    same (state, input) pairs whatever the seed.
    """
    order = random.Random(f"sdf-schedule/{seed}").sample(
        list(inputs), len(inputs)
    )
    a, b = order[:2], order[2:]
    script: List[Tuple[str, Any]] = []
    for added, pair in ((False, a), (True, b), (False, b), (True, a)):
        script += [("cycle", name) for name in pair]
        script.append(("modify", not added))
    return script


# -- corpus-sdf -------------------------------------------------------------

CORPUS_DOCS = 200
#: Stated shares of the ingested stream: exact duplicates of an earlier
#: document, and (of the distinct documents) rejected ones.
DUPLICATE_SHARE = 0.10
REJECT_SHARE = 0.10
INGEST_CHUNK = 50
QUERIES_PER_PASS = 1500
#: Nonterminals the match queries ask about.
MATCH_NONTERMINALS = (
    "SDF-DEFINITION",
    "FUNCTION-DEF",
    "CF-ELEM",
    "SORT",
    "LEXICAL-FUNCTION-DEF",
    "PRIORITIES",
)


def corpus_documents(
    oracle: Oracle, inputs: Dict[str, Tuple[str, ...]], seed: int
) -> List[Dict[str, Any]]:
    """The ingest stream: ``{"name", "text", "accepted"}`` documents.

    Distinct documents are the four inputs with two seeded element-list
    edits each (accepted by construction, confirmed by the oracle); a
    fixed share instead get one rejected edit; a fixed share of the
    stream repeats an earlier document verbatim.
    """
    rng = random.Random(f"corpus/{seed}")
    names = list(inputs)
    duplicates = int(CORPUS_DOCS * DUPLICATE_SHARE)
    distinct = CORPUS_DOCS - duplicates
    rejected = int(distinct * REJECT_SHARE)
    docs: List[Dict[str, Any]] = []
    texts = set()
    while len(docs) < distinct:
        index = len(docs)
        base = inputs[names[index % len(names)]]
        valid = index % (distinct // rejected) != 0
        tokens = base
        for _ in range(2 if valid else 1):
            kind = rng.choice(("sub1", "ins2")) if valid else rng.choice(KINDS)
            tokens = apply_edit(
                tokens, rng.choice(_candidates(tokens, kind, rng, valid))
            )
        text = " ".join(tokens)
        if text in texts:
            continue
        accepted = oracle.sdf_accepts(tokens, False)
        if accepted != valid:
            continue  # keep the stated reject share exact
        texts.add(text)
        docs.append({"name": f"doc-{index:04d}", "text": text,
                     "accepted": accepted})
    for index in range(duplicates):
        source = docs[rng.randrange(distinct)]
        docs.append(dict(source, name=f"dup-{index:04d}"))
    rng.shuffle(docs)
    return docs


def corpus_queries(seed: int) -> List[Request]:
    """One pass of the query mix, in a seeded order: page views of the
    cached ``match``/``errors`` pages (five ``match`` per ``errors``), and
    one query in thirty a fresh 200-hit ``match`` page with
    ``"cache": false``.  The fresh pages are 3% of the queries, so p99
    falls inside them instead of in the scheduling noise of 50 us cache
    hits."""
    rng = random.Random(f"corpus-queries/{seed}")
    queries: List[Request] = []
    for index in range(QUERIES_PER_PASS):
        if index % 30 == 29:
            query: Request = {"kind": "match", "nonterminal": "CF-ELEM",
                              "page": 0, "page_size": 200, "cache": False}
        elif index % 6 == 5:
            query = {"kind": "errors", "page": index % 2, "page_size": 5}
        else:
            query = {
                "kind": "match",
                "nonterminal": MATCH_NONTERMINALS[index % 6],
                "page": (index // 6) % 4,
                "page_size": 25,
            }
        queries.append(query)
    return rng.sample(queries, len(queries))

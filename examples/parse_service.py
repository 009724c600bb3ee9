#!/usr/bin/env python3
"""The multi-session parse service, driven in-process.

Many users develop language definitions at once (the interactive
environment of section 1, scaled up): each gets a named session in one
shared :class:`~repro.service.workspace.Workspace`, requests go through
the JSON protocol of :class:`~repro.service.dispatcher.Dispatcher`, and
repeated parses are answered from the LRU result cache until the next
grammar edit invalidates them.  The same exchange works over stdio via
``python -m repro serve``.

Run:  PYTHONPATH=src python examples/parse_service.py
"""

import json

from repro.service import Dispatcher


def show(response: dict) -> None:
    print("   <-", json.dumps(response, sort_keys=True))


def main() -> None:
    dispatcher = Dispatcher()

    print("1. Two users open independent sessions:")
    show(dispatcher.handle({
        "cmd": "open", "session": "alice",
        "grammar": "START ::= B\nB ::= true\nB ::= false\nB ::= B or B",
    }))
    show(dispatcher.handle({
        "cmd": "open", "session": "bob",
        "grammar": "START ::= E\nE ::= n\nE ::= E + E",
    }))

    print("2. A parse is computed once, then served from the cache:")
    first = dispatcher.handle(
        {"cmd": "parse", "session": "alice", "tokens": "true or false"}
    )
    show(first)
    second = dispatcher.handle(
        {"cmd": "parse", "session": "alice", "tokens": "true or false"}
    )
    show(second)
    assert not first["cache"] and second["cache"]

    print("3. An edit bumps the version and evicts stale results:")
    show(dispatcher.handle(
        {"cmd": "add-rule", "session": "alice", "rule": "B ::= B and B"}
    ))
    third = dispatcher.handle(
        {"cmd": "parse", "session": "alice", "tokens": "true or false"}
    )
    show(third)
    assert not third["cache"] and third["version"] > first["version"]

    print("4. Bob's ambiguous grammar returns every tree, batched:")
    show(dispatcher.handle({
        "cmd": "batch-parse", "session": "bob",
        "inputs": ["n + n", "n + n + n", "n +"],
    }))

    print("5. Snapshot alice, restore as a warm third session:")
    snapshot = dispatcher.handle({"cmd": "snapshot", "session": "alice"})
    restored = dispatcher.handle({
        "cmd": "restore", "session": "carol", "snapshot": snapshot["snapshot"],
    })
    show(restored)
    print(f"   (restored at grammar version {restored['version']})")
    assert restored["version"] == snapshot["version"]
    show(dispatcher.handle(
        {"cmd": "recognize", "session": "carol", "tokens": "true and true"}
    ))

    print("6. Service-wide metrics (Korp-style bookkeeping):")
    show(dispatcher.handle({"cmd": "metrics"}))


if __name__ == "__main__":
    main()

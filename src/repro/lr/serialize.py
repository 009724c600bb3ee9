"""Grammar and payload serialization.

Graphs of item sets and parse tables are deliberately *not* serialized:
the lazy and incremental generators need kernels, whose cheapest faithful
encoding is the grammar itself — reconstructing the automaton from the
grammar, by need, is exactly what those generators are fast at.  So a
persisted grammar is its BNF text plus sort declarations
(:func:`grammar_to_dict`), and :func:`save_payload` writes any JSON-able
payload (a session snapshot, a corpus manifest) crash-safely.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Tuple

from ..grammar.builders import grammar_from_text
from ..grammar.grammar import Grammar

#: Format tag for serialized grammars (text + sort declarations).
GRAMMAR_FORMAT_VERSION = 1


def grammar_to_dict(grammar: Grammar, sorts: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """A JSON-able encoding of a grammar: its BNF listing plus sorts.

    The cheapest faithful encoding of a grammar *is* its text (see the
    module docstring), but the text alone cannot distinguish a referenced-
    but-undefined non-terminal from a terminal, so every non-terminal name
    is recorded as a sort declaration alongside any extra ``sorts``.
    """
    declared = {nt.name for nt in grammar.nonterminals}
    declared.update(sorts)
    return {
        "format": GRAMMAR_FORMAT_VERSION,
        "text": grammar.pretty(),
        "sorts": sorted(declared),
    }


def grammar_from_dict(payload: Dict[str, Any]) -> Grammar:
    if payload.get("format") != GRAMMAR_FORMAT_VERSION:
        raise ValueError(
            f"unsupported grammar format {payload.get('format')!r}"
        )
    return grammar_from_text(payload.get("text", ""), sorts=payload.get("sorts", ()))


def save_payload(payload: Dict[str, Any], path: str) -> None:
    """Write any JSON-able payload (grammar, session, manifest) to ``path``.

    Crash-safe: the payload is written to a sibling temp file, fsynced,
    and renamed into place.  A snapshot a supervisor replays after a
    crash must never be observable half-written — with ``os.replace``
    the path either still holds the previous complete payload or the new
    complete one, and the fsync orders the data before the rename so a
    power cut cannot leave a named-but-empty file.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle, indent=None, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_payload(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object in {path}, got {type(payload).__name__}")
    return payload


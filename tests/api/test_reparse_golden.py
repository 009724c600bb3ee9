"""Golden pins for checkpointed parsing and reparse.

Every cell of ``repro.bench.incremental.edit_grid`` on the SDF corpus is
re-parsed on ``compiled`` and ``lazy``, in tree and recognition mode,
followed by one chained edit (the undo of the first).  The exact
``reuse`` accounting, the ``ParseStats`` and a digest of the
``max_trees=5`` payload of each step are pinned in
``reparse_golden.json``: a change to the PAR-PARSE loop that moves a
convergence point, a stats counter or a rendered tree shows up here by
cell.  A second check pins that checkpointed and plain parses of an
ambiguous grammar render the same bounded tree list (root order decides
which trees a bound renders).

Regenerate the pins (only for an intended change, stated in the change
log) with ``PYTHONPATH=src python tests/api/test_reparse_golden.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.api import Language
from repro.bench.incremental import edit_grid
from repro.sdf.corpus import corpus_tokens, sdf_grammar

GOLDEN = Path(__file__).with_name("reparse_golden.json")
ENGINES = ("compiled", "lazy")
MODES = ("tree", "recognition")


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _step(outcome):
    return {
        "accepted": outcome.accepted,
        "reuse": outcome.reuse,
        "stats": outcome.stats,
        "payload": _digest(outcome.to_payload(max_trees=5)),
    }


def grid_results(name, engine, mode):
    """``cell id -> {"edit": step, "chained": step}`` for one input."""
    tokens = corpus_tokens()[name]
    language = Language(sdf_grammar(), engine=engine)
    run = language.parse if mode == "tree" else language.recognize
    base = run(tokens, checkpoint=True)
    assert base.accepted
    results = {}
    for kind, edits in edit_grid(tokens).items():
        for edit in edits:
            replacement = [t.name for t in edit.replacement]
            first = language.reparse(base, edit.start, edit.end, replacement)
            # The chained edit undoes the first one, on the first's handle.
            undo = [t.name for t in tokens[edit.start : edit.end]]
            chained = language.reparse(
                first, edit.start, edit.start + len(replacement), undo
            )
            results[f"{kind}@{edit.start}"] = {
                "edit": _step(first),
                "chained": _step(chained),
            }
    language.close()
    return results


def collect():
    return {
        f"{name}/{engine}/{mode}": grid_results(name, engine, mode)
        for name in corpus_tokens()
        for engine in ENGINES
        for mode in MODES
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(corpus_tokens()))
def test_edit_grid_reuse_and_stats_are_pinned(golden, name, engine, mode):
    expected = golden[f"{name}/{engine}/{mode}"]
    actual = json.loads(json.dumps(grid_results(name, engine, mode)))
    assert sorted(actual) == sorted(expected)
    for cell in expected:
        assert actual[cell] == expected[cell], cell


def _expressions(max_operators):
    for count in range(1, max_operators + 1):
        for operators in itertools.product("+*", repeat=count):
            yield " ".join(["n"] + [f"{op} n" for op in operators])


@pytest.mark.parametrize("engine", ENGINES)
def test_checkpointed_parse_renders_the_plain_tree_list(engine):
    language = Language.from_text(
        "E ::= n\nE ::= E + E\nE ::= E * E\nSTART ::= E", engine=engine
    )
    for text in _expressions(6):
        plain = language.parse(text)
        checkpointed = language.parse(text, checkpoint=True)
        assert checkpointed.forest.brackets(3) == plain.forest.brackets(3), text
        assert checkpointed.stats == plain.stats, text


def _write(results):
    """One line per cell, so a changed pin reads as a one-line diff."""
    lines = ["{"]
    for group_index, (group, cells) in enumerate(sorted(results.items())):
        lines.append(f" {json.dumps(group)}: {{")
        for cell_index, (cell, steps) in enumerate(sorted(cells.items())):
            comma = "," if cell_index < len(cells) - 1 else ""
            lines.append(f"  {json.dumps(cell)}: {json.dumps(steps, sort_keys=True)}{comma}")
        lines.append(" }," if group_index < len(results) - 1 else " }")
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write(collect())
    sys.exit(0)

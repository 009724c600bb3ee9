"""Ablation — §3.2's stack-sharing implementation note.

*"It is important ... that the implementation of the copy operation for
parsers is such that the parse stacks become different objects which share
the states on them."*

Two measurements:

* the micro-cost: forking a depth-N stack is O(1) with cons cells and
  O(N) with flat-list copying — the crossover is immediate;
* the macro-effect: on an ambiguous input the pool parser's forks share
  almost all of their cells (quantified with ``shared_cells``), so peak
  memory scales with *distinct* stack suffixes, not with parser count.
"""

from __future__ import annotations


from repro.api import Language
from repro.bench.workloads import ambiguous_expression_grammar, ambiguous_sentence
from repro.runtime.stacks import StackCell, shared_cells

DEPTH = 4096


def _deep_stack(depth: int) -> StackCell:
    stack = StackCell(0)
    for state in range(1, depth):
        stack = stack.push(state)
    return stack


def test_fork_shared(benchmark):
    """O(1) fork: copying the paper's way (share the cons chain)."""
    stack = _deep_stack(DEPTH)
    forked = benchmark(lambda: stack.push(DEPTH))
    assert shared_cells(stack, forked) == DEPTH


def test_fork_copying(benchmark):
    """O(N) fork: the naive flat-list alternative (the ablated design)."""
    stack = list(range(DEPTH))

    def fork():
        copy = stack[:]  # what 'copy(parser)' would cost without sharing
        copy.append(DEPTH)
        return copy

    forked = benchmark(fork)
    assert len(forked) == DEPTH + 1


def test_sharing_in_ambiguous_parse(benchmark):
    """Forks during a real ambiguous parse share their stack tails.

    Runs on ``lazy``, the engine whose parsers are linear stacks."""
    grammar = ambiguous_expression_grammar()
    tokens = ambiguous_sentence(8)  # Catalan(8) = 1430 parses

    def parse():
        return Language(grammar.copy()).parse(tokens, engine="lazy")

    outcome = benchmark(parse)
    assert outcome.accepted
    assert outcome.ambiguity == 1430
    benchmark.extra_info["trees"] = outcome.ambiguity
    benchmark.extra_info["max_live_parsers"] = outcome.stats["max_live_parsers"]
    benchmark.extra_info["forks"] = outcome.stats["forks"]

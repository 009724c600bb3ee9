"""Hypothesis strategies: random grammars, edits, sentences, derivations.

The generated grammars are deliberately small (≤5 non-terminals, ≤12
rules, bodies of ≤4 symbols) — LR automaton bugs show up at this scale,
and small cases shrink to readable counterexamples.  Helper predicates let
individual properties filter out the classes a given engine excludes
(cyclic grammars for the pool parser, left recursion for backtracking
descent).
"""

from __future__ import annotations

import random
from typing import List, Optional

from hypothesis import strategies as st

from repro.grammar.analysis import GrammarAnalysis
from repro.grammar.grammar import Grammar
from repro.grammar.rules import Rule
from repro.grammar.symbols import NonTerminal, Terminal

NONTERMINAL_NAMES = ("A", "B", "C", "D", "E")
TERMINAL_NAMES = ("x", "y", "z")


@st.composite
def rules(draw, nonterminal_count: int, allow_epsilon: bool = True) -> Rule:
    nonterminals = [NonTerminal(n) for n in NONTERMINAL_NAMES[:nonterminal_count]]
    terminals = [Terminal(t) for t in TERMINAL_NAMES]
    lhs = draw(st.sampled_from(nonterminals))
    min_size = 0 if allow_epsilon else 1
    body = draw(
        st.lists(
            st.sampled_from(terminals + nonterminals),
            min_size=min_size,
            max_size=4,
        )
    )
    return Rule(lhs, body)


@st.composite
def grammars(
    draw,
    max_nonterminals: int = 4,
    max_rules: int = 10,
    allow_epsilon: bool = True,
) -> Grammar:
    """A random grammar with ``START ::= A`` plus random rules."""
    nonterminal_count = draw(st.integers(1, max_nonterminals))
    rule_count = draw(st.integers(1, max_rules))
    grammar = Grammar()
    grammar.add_rule(Rule(grammar.start, [NonTerminal("A")]))
    for _ in range(rule_count):
        grammar.add_rule(
            draw(rules(nonterminal_count, allow_epsilon=allow_epsilon))
        )
    return grammar


@st.composite
def sentences(draw, max_length: int = 6) -> List[Terminal]:
    """A random terminal string (mostly *not* in any given language)."""
    return draw(
        st.lists(
            st.sampled_from([Terminal(t) for t in TERMINAL_NAMES]),
            max_size=max_length,
        )
    )


def derive_sentence(
    grammar: Grammar, seed: int, max_expansions: int = 40
) -> Optional[List[Terminal]]:
    """A sentence *of the language*, by random leftmost derivation.

    Returns None when the random walk fails to terminate within the
    expansion budget (the grammar may be non-productive).
    """
    rng = random.Random(seed)
    sentential: List = list(next(iter(grammar.start_rules())).rhs)
    expansions = 0
    while expansions < max_expansions:
        index = next(
            (
                i
                for i, symbol in enumerate(sentential)
                if isinstance(symbol, NonTerminal)
            ),
            None,
        )
        if index is None:
            return [s for s in sentential]
        candidates = grammar.rules_for(sentential[index])
        if not candidates:
            return None
        # bias towards shorter bodies so derivations terminate
        choice = min(
            rng.sample(list(candidates), k=min(2, len(candidates))),
            key=lambda r: len(r.rhs),
        )
        sentential[index : index + 1] = list(choice.rhs)
        expansions += 1
        if len(sentential) > 30:
            return None
    return None


def graph_shape(graph) -> dict:
    """Kernel-keyed structural fingerprint of an item-set graph.

    Only the region *reachable from the start state* is included, so
    retained garbage (a feature of the incremental generator) does not
    defeat equality checks.
    """
    from repro.lr.states import ACCEPT

    def key(state):
        return frozenset(map(str, state.kernel))

    shape = {}
    work = [graph.start]
    seen = {id(graph.start)}
    while work:
        state = work.pop()
        transitions = {}
        for symbol, target in state.transitions.items():
            if target is ACCEPT:
                transitions[str(symbol)] = "accept"
            else:
                transitions[str(symbol)] = key(target)
                if id(target) not in seen:
                    seen.add(id(target))
                    work.append(target)
        shape[key(state)] = (
            frozenset(transitions.items()),
            frozenset(map(str, state.reductions)),
        )
    return shape


def is_pool_safe(grammar: Grammar) -> bool:
    """Can PAR-PARSE run without hitting its infinite-ambiguity guards?

    Excludes unit-derivation cycles and (directly) hidden left recursion —
    the configurations that let the pool of linear stacks grow without
    consuming input.  The check is a heuristic pre-filter: properties that
    use it still catch ``SweepLimitExceeded`` and discard the example,
    because *indirect* hidden left recursion slips through.
    """
    analysis = GrammarAnalysis(grammar)
    if analysis.has_cycles():
        return False
    return not _has_hidden_left_recursion(grammar, analysis)


def _has_hidden_left_recursion(grammar: Grammar, analysis) -> bool:
    """A ::= N1 ... Nk A ... with all Ni nullable and k >= 1."""
    for rule in grammar.rules:
        for position, symbol in enumerate(rule.rhs):
            if position == 0:
                continue
            if not isinstance(symbol, NonTerminal):
                break
            prefix = rule.rhs[:position]
            if symbol == rule.lhs and all(
                analysis.is_nullable(s) for s in prefix
            ):
                return True
            if not analysis.is_nullable(rule.rhs[position - 1]):
                break
    return False

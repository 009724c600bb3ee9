"""Desugaring of SDF-style iterators into plain context-free rules.

SDF (Appendix B of the paper) lets right-hand sides contain
``SORT+``, ``SORT*`` and ``{SORT sep}+`` / ``{SORT sep}*`` elements.  The
core grammar and the LR machinery only know plain rules, so the SDF
normalizer calls into this module to expand each iterator into a fresh
non-terminal with left-recursive rules:

``A+``            ``A-plus ::= A              | A-plus A``
``A*``            ``A-star ::= ε              | A-star A``  (via A-plus)
``{A s}+``        ``A-s-list ::= A            | A-s-list s A``
``{A s}*``        ``A-s-list-opt ::= ε        | A-s-list``

Left recursion is the natural encoding for an LR-family parser (constant
stack depth while iterating); it is also precisely what the top-down
baselines cannot handle, which the Fig. 2.1 capability bench exploits.

The expansion is *idempotent and shared*: asking twice for ``A+`` in the
same grammar returns the same non-terminal and adds no duplicate rules, so
iterator-heavy grammars (like SDF's own) stay small.
"""

from __future__ import annotations

from typing import Tuple

from .grammar import Grammar
from .rules import Rule
from .symbols import NonTerminal, Symbol


def _derived_name(base: str, suffix: str) -> str:
    return f"{base}{suffix}"


def plus(grammar: Grammar, element: Symbol) -> NonTerminal:
    """Return a non-terminal deriving one-or-more ``element``."""
    nt = NonTerminal(_derived_name(element.name, "+"))
    if not grammar.defines(nt):
        grammar.add_rule(Rule(nt, [element], label=f"{element}+ base"))
        grammar.add_rule(Rule(nt, [nt, element], label=f"{element}+ step"))
    return nt


def star(grammar: Grammar, element: Symbol) -> NonTerminal:
    """Return a non-terminal deriving zero-or-more ``element``."""
    nt = NonTerminal(_derived_name(element.name, "*"))
    if not grammar.defines(nt):
        plus_nt = plus(grammar, element)
        grammar.add_rule(Rule(nt, [], label=f"{element}* empty"))
        grammar.add_rule(Rule(nt, [plus_nt], label=f"{element}* non-empty"))
    return nt


def separated_plus(
    grammar: Grammar, element: Symbol, separator: Symbol
) -> NonTerminal:
    """Return a non-terminal deriving ``element (separator element)*``.

    This is SDF's ``{ELEM sep}+`` notation, used pervasively in Appendix B
    (e.g. ``{SORT ","}+`` in sorts declarations).
    """
    nt = NonTerminal(_derived_name(element.name, f"-{separator.name}-list"))
    if not grammar.defines(nt):
        grammar.add_rule(Rule(nt, [element], label=f"{{{element} {separator}}}+ base"))
        grammar.add_rule(
            Rule(nt, [nt, separator, element], label=f"{{{element} {separator}}}+ step")
        )
    return nt


def separated_star(
    grammar: Grammar, element: Symbol, separator: Symbol
) -> NonTerminal:
    """Return a non-terminal deriving a possibly-empty separated list."""
    nt = NonTerminal(_derived_name(element.name, f"-{separator.name}-list?"))
    if not grammar.defines(nt):
        base = separated_plus(grammar, element, separator)
        grammar.add_rule(Rule(nt, [], label="empty separated list"))
        grammar.add_rule(Rule(nt, [base], label="non-empty separated list"))
    return nt


def optional(grammar: Grammar, element: Symbol) -> NonTerminal:
    """Return a non-terminal deriving zero-or-one ``element``."""
    nt = NonTerminal(_derived_name(element.name, "?"))
    if not grammar.defines(nt):
        grammar.add_rule(Rule(nt, [], label=f"{element}? absent"))
        grammar.add_rule(Rule(nt, [element], label=f"{element}? present"))
    return nt


def augment(grammar: Grammar, *roots: NonTerminal) -> None:
    """Add ``START ::= root`` rules for each given root non-terminal.

    Section 4 requires every grammar handed to GENERATE-PARSER to define
    the distinguished ``START`` symbol; front ends call this once they know
    the user's intended top sort(s).  Multiple roots are permitted — the
    parallel parser will simply fork at the first token if their languages
    overlap.
    """
    for root in roots:
        grammar.add_rule(Rule(grammar.start, [root], label=f"start via {root}"))


def strip_unreachable(grammar: Grammar) -> Tuple[Rule, ...]:
    """Delete rules unreachable from the start symbol; return them.

    Useful after heavy editing sessions; the incremental generator does not
    need this (its GC reclaims item sets, not rules), but language
    designers appreciate the hygiene and the modular-composition example
    uses it to show what an import actually contributed.
    """
    from .analysis import GrammarAnalysis

    reachable = GrammarAnalysis(grammar).reachable()
    doomed = tuple(
        rule for rule in grammar.rules if rule.lhs not in reachable
    )
    for rule in doomed:
        grammar.delete_rule(rule)
    return doomed

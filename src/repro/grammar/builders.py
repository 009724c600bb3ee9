"""A small, explicit DSL for constructing grammars in Python code.

Grammars in tests, examples, and benchmarks are written like::

    g = GrammarBuilder()
    g.rule("B", ["true"])
    g.rule("B", ["false"])
    g.rule("B", ["B", "or", "B"])
    g.rule("B", ["B", "and", "B"])
    g.start("B")
    grammar = g.build()

Strings on the right-hand side are resolved *after* all rules are known:
any name that appears as a left-hand side anywhere is a non-terminal,
everything else is a terminal.  That matches how grammars read on paper and
avoids a whole class of "forgot to declare the sort" mistakes.

For one-liners there is also :func:`grammar_from_text`, accepting the BNF
notation the paper uses in its figures::

    grammar_from_text('''
        B ::= true
        B ::= false
        B ::= B or B
        B ::= B and B
        START ::= B
    ''')
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from .grammar import Grammar, GrammarError
from .rules import Rule
from .symbols import NonTerminal, START_NAME, Symbol, Terminal


class GrammarBuilder:
    """Accumulates rule sketches, then resolves names and builds a Grammar."""

    def __init__(self) -> None:
        self._sketches: List[Tuple[str, Tuple[Union[str, Symbol], ...], Optional[str]]] = []
        self._starts: List[str] = []
        self._declared_nonterminals: Set[str] = set()

    def sort(self, *names: str) -> "GrammarBuilder":
        """Force ``names`` to be non-terminals even if never defined.

        Mirrors SDF's ``sorts`` declaration; needed for non-terminals that
        are referenced before (or without) being defined — the incremental
        examples add their defining rules later.
        """
        self._declared_nonterminals.update(names)
        return self

    def rule(
        self,
        lhs: str,
        rhs: Sequence[Union[str, Symbol]],
        label: Optional[str] = None,
    ) -> "GrammarBuilder":
        """Record ``lhs ::= rhs``; returns self for chaining."""
        self._sketches.append((lhs, tuple(rhs), label))
        self._declared_nonterminals.add(lhs)
        return self

    def start(self, *roots: str) -> "GrammarBuilder":
        """Declare the user-level root sort(s); adds ``START ::= root``."""
        self._starts.extend(roots)
        self._declared_nonterminals.update(roots)
        return self

    def build(self) -> Grammar:
        nonterminal_names = set(self._declared_nonterminals)
        nonterminal_names.add(START_NAME)
        grammar = Grammar()
        for lhs, rhs, label in self._sketches:
            grammar.add_rule(self._resolve(lhs, rhs, label, nonterminal_names))
        for root in self._starts:
            grammar.add_rule(
                Rule(NonTerminal(START_NAME), [NonTerminal(root)], label=f"start {root}")
            )
        return grammar

    def build_rules(self) -> Tuple[Rule, ...]:
        """Resolve to plain rules without constructing a Grammar."""
        nonterminal_names = set(self._declared_nonterminals)
        nonterminal_names.add(START_NAME)
        rules = [
            self._resolve(lhs, rhs, label, nonterminal_names)
            for lhs, rhs, label in self._sketches
        ]
        rules.extend(
            Rule(NonTerminal(START_NAME), [NonTerminal(root)]) for root in self._starts
        )
        return tuple(rules)

    @staticmethod
    def _resolve(
        lhs: str,
        rhs: Sequence[Union[str, Symbol]],
        label: Optional[str],
        nonterminal_names: Set[str],
    ) -> Rule:
        body: List[Symbol] = []
        for part in rhs:
            if isinstance(part, Symbol):
                body.append(part)
            elif part in nonterminal_names:
                body.append(NonTerminal(part))
            else:
                body.append(Terminal(part))
        return Rule(NonTerminal(lhs), body, label=label)


def split_rule_text(line: str) -> Tuple[str, List[str]]:
    """Split ``"A ::= body"`` into the left-hand-side name and body parts.

    ``ε`` denotes the empty right-hand side and is only legal as the
    *entire* body: ``A ::= ε`` is an epsilon rule, but ``A ::= a ε b`` is
    a :class:`GrammarError` — silently dropping a mid-body ε would accept
    a rule the author never wrote.
    """
    if "::=" not in line:
        raise GrammarError(f"expected 'A ::= body', got {line!r}")
    lhs_text, rhs_text = line.split("::=", 1)
    lhs = lhs_text.strip()
    if not lhs:
        raise GrammarError(f"missing left-hand side in {line!r}")
    parts = rhs_text.split()
    if parts == ["ε"]:
        return lhs, []
    if "ε" in parts:
        raise GrammarError(
            f"ε denotes the empty right-hand side and cannot appear "
            f"inside a body: {line!r}"
        )
    return lhs, parts


def rule_from_text(
    text: str,
    known_nonterminals: Iterable[str] = (),
) -> Rule:
    """Parse one ``"A ::= body"`` line against a set of known sort names.

    A body name is a non-terminal iff it is in ``known_nonterminals`` or
    it is the rule's own left-hand side; everything else is a terminal.
    This is the coercion the Language ``add_rule``/``delete_rule``
    text forms use.
    """
    if not isinstance(text, str):
        raise GrammarError(f"expected a Rule or 'A ::= body' text, got {text!r}")
    lhs_name, parts = split_rule_text(text.strip())
    known = set(known_nonterminals)
    known.add(lhs_name)
    body: List[Symbol] = [
        NonTerminal(part) if part in known else Terminal(part) for part in parts
    ]
    return Rule(NonTerminal(lhs_name), body)


def grammar_from_text(text: str, sorts: Iterable[str] = ()) -> Grammar:
    """Parse the paper's ``A ::= x y z`` notation into a Grammar.

    One rule per line; blank lines and ``#`` comments ignored; an empty
    right-hand side (or the word ``ε``, standing alone) denotes an epsilon
    rule.  Names that occur as some left-hand side are non-terminals; pass
    ``sorts`` to force additional names to be non-terminals even though no
    rule in ``text`` defines them (forward references, snapshot
    round-trips).
    """
    sketches: List[Tuple[str, List[str]]] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        sketches.append(split_rule_text(line))

    builder = GrammarBuilder()
    builder.sort(*sorts)
    for lhs, parts in sketches:
        builder.rule(lhs, parts)
    return builder.build()


def rules_from_text(text: str) -> Tuple[Rule, ...]:
    """Like :func:`grammar_from_text` but returns the bare rules."""
    return tuple(grammar_from_text(text).rules)

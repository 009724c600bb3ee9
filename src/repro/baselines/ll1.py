"""LL(1) predictive parsing — the top-down table-driven row of Fig. 2.1.

Section 2.1: *"an LL generator constructs a parse table that is interpreted
by a fixed parser.  ...  The class of accepted languages depends on the
look-ahead k, but is always limited to non-left-recursive, non-ambiguous
grammars."*

The generator computes the classic FIRST/FOLLOW-driven prediction table
and *reports* every table conflict; the capability bench shows the SDF
grammar (left-recursive through its iterator encodings) is rejected while
IPG handles it unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..grammar.analysis import GrammarAnalysis
from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import END, NonTerminal, Symbol, Terminal
from ..runtime.errors import ParseError
from ..runtime.forest import Forest, Tree, TreeNode


class LL1Conflict:
    """Two rules claim the same (non-terminal, lookahead) prediction cell."""

    __slots__ = ("nonterminal", "lookahead", "rules")

    def __init__(self, nonterminal: NonTerminal, lookahead: Terminal, rules: Tuple[Rule, ...]) -> None:
        self.nonterminal = nonterminal
        self.lookahead = lookahead
        self.rules = rules

    def __repr__(self) -> str:
        return f"LL1Conflict({self.nonterminal}, on {self.lookahead}, {len(self.rules)} rules)"


class NotLL1Error(ValueError):
    """The grammar is not LL(1); carries the conflict list."""

    def __init__(self, conflicts: Sequence[LL1Conflict]) -> None:
        super().__init__(f"grammar is not LL(1): {len(conflicts)} conflicts")
        self.conflicts = tuple(conflicts)


class LL1Table:
    """The prediction table; ``table[A][t]`` is the rule to expand."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        analysis = GrammarAnalysis(grammar)
        self.table: Dict[NonTerminal, Dict[Terminal, Rule]] = {}
        self.conflicts: List[LL1Conflict] = []

        cells: Dict[NonTerminal, Dict[Terminal, List[Rule]]] = {}
        for rule in sorted(grammar.rules):
            row = cells.setdefault(rule.lhs, {})
            predicted = set(analysis.first_of(rule.rhs))
            if analysis.sequence_nullable(rule.rhs):
                predicted |= analysis.follow(rule.lhs)
            for lookahead in predicted:
                row.setdefault(lookahead, []).append(rule)

        for nonterminal, row in cells.items():
            table_row: Dict[Terminal, Rule] = {}
            for lookahead, rules in row.items():
                if len(rules) > 1:
                    self.conflicts.append(
                        LL1Conflict(nonterminal, lookahead, tuple(rules))
                    )
                table_row[lookahead] = rules[0]
            self.table[nonterminal] = table_row

    @property
    def is_ll1(self) -> bool:
        return not self.conflicts


class LL1Parser:
    """Stack-based predictive parser over an :class:`LL1Table`."""

    def __init__(self, grammar: Grammar, strict: bool = True) -> None:
        self.grammar = grammar
        self.table = LL1Table(grammar)
        if strict and not self.table.is_ll1:
            raise NotLL1Error(self.table.conflicts)

    def recognize(self, tokens: Iterable[Terminal]) -> bool:
        try:
            self.parse(tokens)
            return True
        except ParseError:
            return False

    def parse(self, tokens: Iterable[Terminal]) -> TreeNode:
        """Parse and build the (unique) tree; raises ParseError on failure."""
        sentence: List[Terminal] = list(tokens)
        sentence.append(END)
        forest = Forest()
        position = 0

        def next_token() -> Terminal:
            return sentence[position]

        def parse_symbol(symbol: Symbol) -> Tree:
            nonlocal position
            if isinstance(symbol, Terminal):
                if next_token() != symbol:
                    raise ParseError(
                        f"expected {symbol!s}, found {next_token()!s} "
                        f"at position {position}",
                        position=position,
                        symbol=next_token(),
                    )
                position += 1
                return symbol
            assert isinstance(symbol, NonTerminal)
            rule = self.table.table.get(symbol, {}).get(next_token())
            if rule is None:
                raise ParseError(
                    f"no prediction for {symbol!s} on {next_token()!s} "
                    f"at position {position}",
                    position=position,
                    symbol=next_token(),
                )
            children = [parse_symbol(part) for part in rule.rhs]
            return forest.node(rule, children)

        tree = parse_symbol(self.grammar.start)
        if next_token() != END:
            raise ParseError(
                f"trailing input at position {position}",
                position=position,
                symbol=next_token(),
            )
        return tree

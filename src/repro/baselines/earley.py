"""Earley's general context-free parsing algorithm [Ear70].

Section 2.1 places Earley at the opposite corner of the design space from
LR: *"Earley's algorithm does not have a separate generation phase, so it
adapts easily to modifications in the grammar.  It is this same lack of a
generation phase that makes the algorithm too inefficient for interactive
purposes."*  Section 7 predicts (without measuring) *"better generation
performance, but a much inferior parsing performance"* — our bench
``bench_earley_vs_ipg`` finally runs that comparison.

The implementation is the textbook chart algorithm over *dotted rules with
origins*, with the Aycock–Horspool nullable-prediction fix so epsilon rules
(ubiquitous in the SDF grammar) are completed correctly in a single pass.
Because there is no generation phase, the parser reads the live
:class:`~repro.grammar.grammar.Grammar` on every parse — modifying the
grammar needs no bookkeeping whatsoever, which is exactly the trade-off the
paper describes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..grammar.analysis import GrammarAnalysis
from ..grammar.grammar import Grammar
from ..grammar.symbols import END, NonTerminal, Terminal
from ..lr.items import Item


class EarleyItem:
    """A dotted rule plus the input position where its recognition began."""

    __slots__ = ("item", "origin", "_hash")

    def __init__(self, item: Item, origin: int) -> None:
        object.__setattr__(self, "item", item)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "_hash", hash((item, origin)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EarleyItem is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EarleyItem):
            return NotImplemented
        return self.origin == other.origin and self.item == other.item

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"EarleyItem({self.item!s}, origin={self.origin})"


class EarleyParser:
    """Grammar-driven recognition; no tables, no generation phase."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self._analysis = GrammarAnalysis(grammar)
        self.last_chart_size = 0
        #: ``(token_index, expected_terminal_names)`` of the last rejected
        #: :meth:`recognize` call; ``None`` after an accept.  The chart is
        #: Earley's equivalent of the LR failure record: the highest
        #: non-empty item set is where recognition stalled, and the
        #: terminals after a dot there are the viable continuations.
        self.last_failure: Optional[Tuple[int, Tuple[str, ...]]] = None

    # -- recognition -------------------------------------------------------

    def recognize(self, tokens: Iterable[Terminal]) -> bool:
        sentence: List[Terminal] = list(tokens)
        chart = self.chart(sentence)
        final = chart[-1]
        accepted = any(
            entry.item.at_end
            and entry.origin == 0
            and entry.item.rule.lhs == self.grammar.start
            for entry in final
        )
        self.last_failure = (
            None if accepted else self._failure_from_chart(chart, len(sentence))
        )
        return accepted

    def _failure_from_chart(
        self, chart: List[Set[EarleyItem]], length: int
    ) -> Tuple[int, Tuple[str, ...]]:
        """Where recognition stalled and which terminals could continue."""
        position = max(
            (index for index, items in enumerate(chart) if items), default=0
        )
        expected: Set[str] = set()
        for entry in chart[position]:
            symbol = entry.item.next_symbol
            if isinstance(symbol, Terminal):
                expected.add(symbol.name)
            elif (
                symbol is None
                and entry.origin == 0
                and entry.item.rule.lhs == self.grammar.start
            ):
                # A completed START item: only the end of input was
                # acceptable here (the LR engines report this as ``$``).
                expected.add(END.name)
        return position, tuple(sorted(expected))

    def chart(self, tokens: Iterable[Terminal]) -> List[Set[EarleyItem]]:
        """The full chart: one item set per input position (0..n)."""
        sentence: List[Terminal] = list(tokens)
        n = len(sentence)
        chart: List[Set[EarleyItem]] = [set() for _ in range(n + 1)]
        order: List[List[EarleyItem]] = [[] for _ in range(n + 1)]

        def add(position: int, entry: EarleyItem) -> None:
            if entry not in chart[position]:
                chart[position].add(entry)
                order[position].append(entry)

        for rule in self.grammar.start_rules():
            add(0, EarleyItem(Item(rule, 0), 0))

        for position in range(n + 1):
            cursor = 0
            pending = order[position]
            while cursor < len(pending):
                entry = pending[cursor]
                cursor += 1
                symbol = entry.item.next_symbol
                if symbol is None:
                    self._complete(entry, position, add, order)
                elif isinstance(symbol, NonTerminal):
                    self._predict(entry, symbol, position, add)
                elif position < n and sentence[position] == symbol:
                    add(position + 1, EarleyItem(entry.item.advanced(), entry.origin))

        self.last_chart_size = sum(len(s) for s in chart)
        return chart

    # -- the three Earley operations -------------------------------------

    def _predict(self, entry, symbol, position, add) -> None:
        for rule in self.grammar.rules_for(symbol):
            add(position, EarleyItem(Item(rule, 0), position))
        # Aycock–Horspool: a nullable non-terminal may be skipped outright.
        if self._analysis.is_nullable(symbol):
            add(position, EarleyItem(entry.item.advanced(), entry.origin))

    def _complete(self, entry, position, add, order) -> None:
        lhs = entry.item.rule.lhs
        # Iterate a snapshot: completing may extend the very list we scan.
        for waiting in list(order[entry.origin]):
            if waiting.item.next_symbol == lhs:
                add(position, EarleyItem(waiting.item.advanced(), waiting.origin))

    # -- diagnostics -------------------------------------------------------

    def accepts_empty(self) -> bool:
        return self.recognize([])

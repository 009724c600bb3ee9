"""OBJ-style backtracking recursive descent [FGJM85].

Section 2.1: *"OBJ uses a recursive descent parsing technique with
backtracking.  OBJ itself does not allow ambiguous grammars, but the
backtrack parser does detect all ambiguous parses.  This makes the parsing
system suitable for finitely ambiguous grammars, but ... 'parsing can be
expensive for complex expressions', which makes the algorithm less
suitable for large input sentences."*

Faithfully to that description, this parser:

* enumerates **all** parses (so it detects every ambiguity),
* explodes exponentially on pathological inputs — a work budget raises
  :class:`BacktrackBudgetExceeded` rather than hanging, and the Fig. 2.1
  bench uses exactly that to demonstrate the "not fast" rating,
* cannot handle left recursion: a (non-terminal, position) pair already on
  the descent path is cut off, so left-recursive derivations are simply
  never found.  :meth:`BacktrackingParser.left_recursion_risk` reports
  whether the current grammar has such rules.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from ..grammar.analysis import GrammarAnalysis
from ..grammar.grammar import Grammar
from ..grammar.symbols import NonTerminal, Symbol, Terminal
from ..runtime.forest import Forest, Tree, TreeNode


class BacktrackBudgetExceeded(Exception):
    """The exponential search exceeded its step budget."""


class BacktrackingParser:
    """All-parses recursive descent with backtracking."""

    def __init__(self, grammar: Grammar, max_steps: int = 2_000_000) -> None:
        self.grammar = grammar
        self.max_steps = max_steps
        self._steps = 0

    def parses(self, tokens: Sequence[Terminal]) -> List[TreeNode]:
        """Every derivation of ``tokens`` from the start symbol."""
        sentence = list(tokens)
        forest = Forest()
        self._steps = 0
        results: Dict[int, TreeNode] = {}
        for tree, end in self._parse_symbol(
            self.grammar.start, 0, sentence, forest, frozenset()
        ):
            if end == len(sentence):
                results.setdefault(id(tree), tree)
        return list(results.values())

    def recognize(self, tokens: Sequence[Terminal]) -> bool:
        sentence = list(tokens)
        forest = Forest()
        self._steps = 0
        for _tree, end in self._parse_symbol(
            self.grammar.start, 0, sentence, forest, frozenset()
        ):
            if end == len(sentence):
                return True
        return False

    def count_parses(self, tokens: Sequence[Terminal]) -> int:
        return len(self.parses(tokens))

    # -- the search ------------------------------------------------------

    def _parse_symbol(
        self,
        symbol: Symbol,
        position: int,
        sentence: List[Terminal],
        forest: Forest,
        in_progress: frozenset,
    ) -> Iterator[Tuple[Tree, int]]:
        self._steps += 1
        if self._steps > self.max_steps:
            raise BacktrackBudgetExceeded(
                f"backtracking exceeded {self.max_steps} steps"
            )
        if isinstance(symbol, Terminal):
            if position < len(sentence) and sentence[position] == symbol:
                yield symbol, position + 1
            return

        assert isinstance(symbol, NonTerminal)
        key = (symbol, position)
        if key in in_progress:
            # Left recursion: the OBJ-style parser cannot make progress
            # here; cutting the branch loses exactly the left-recursive
            # derivations (documented limitation).
            return
        deeper = in_progress | {key}
        for rule in self.grammar.rules_for(symbol):
            for children, end in self._parse_sequence(
                rule.rhs, 0, position, sentence, forest, deeper
            ):
                yield forest.node(rule, children), end

    def _parse_sequence(
        self,
        body: Tuple[Symbol, ...],
        index: int,
        position: int,
        sentence: List[Terminal],
        forest: Forest,
        in_progress: frozenset,
    ) -> Iterator[Tuple[List[Tree], int]]:
        if index == len(body):
            yield [], position
            return
        # The in-progress entries are (non-terminal, position) pairs, so
        # they only block a *re-entry at the same position* — i.e. (hidden)
        # left recursion.  As soon as input is consumed the position part
        # differs and the guard is inert, so it can be passed down blindly.
        for first_tree, after_first in self._parse_symbol(
            body[index], position, sentence, forest, in_progress
        ):
            for rest_trees, end in self._parse_sequence(
                body, index + 1, after_first, sentence, forest, in_progress
            ):
                yield [first_tree] + rest_trees, end

    # -- diagnostics -------------------------------------------------------

    def left_recursion_risk(self) -> bool:
        """True if the grammar contains (possibly indirect) left recursion."""
        return bool(GrammarAnalysis(self.grammar).left_recursive())

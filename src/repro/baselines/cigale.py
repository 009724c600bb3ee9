"""A Cigale-style trie parser [Voi86].

Section 2.1: *"Cigale uses a parsing algorithm that is specially tailored
to expression parsing.  It builds a trie for the grammar in which
production rules with the same prefix share a path.  During parsing this
trie is recursively traversed.  A trie can easily be extended with new
syntax rules and tries for different grammars can be combined just like
modules.  The class of grammars is only somewhat larger than LR(0),
because the parser does not use look-ahead in a general manner and cannot
backtrack."*

This reconstruction keeps all four advertised properties:

* **trie sharing** — rules of one non-terminal share their common prefix;
* **incremental extension** — :meth:`CigaleParser.add_rule` inserts a path,
  nothing is recomputed (the "flexible/modular" cells of Fig. 2.1);
* **module combination** — :meth:`merge` unions another parser's tries;
* **no backtracking, no general lookahead** — traversal is greedy: at a
  trie node the matching terminal edge wins, otherwise non-terminal edges
  are tried by recursion, and a committed path is never undone.  Grammars
  needing real lookahead or backtracking therefore fail — deliberately.

Left-recursive operator rules (``E ::= E + E``) are handled the way
operator-precedence tries do it: the rule's tail (everything after the
leading self-reference) goes into a separate *continuation* trie, and
after an operand has been recognized the parser repeatedly tries to extend
it along that trie.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import NonTerminal, Symbol, Terminal
from ..runtime.forest import Forest, Tree, TreeNode

#: Mutual-recursion cut-off: greedy traversal that descends this many
#: non-terminals without consuming input is going nowhere (no backtracking
#: means there is nothing cleverer to do than give up).
_MAX_DEPTH = 120


class TrieNode:
    """One trie vertex; edges are labelled with grammar symbols."""

    __slots__ = ("edges", "accepts")

    def __init__(self) -> None:
        self.edges: Dict[Symbol, "TrieNode"] = {}
        self.accepts: List[Rule] = []

    def insert_path(self, symbols: Sequence[Symbol], rule: Rule) -> None:
        node = self
        for symbol in symbols:
            node = node.edges.setdefault(symbol, TrieNode())
        if rule not in node.accepts:
            node.accepts.append(rule)

    def merge(self, other: "TrieNode") -> None:
        for rule in other.accepts:
            if rule not in self.accepts:
                self.accepts.append(rule)
        for symbol, child in other.edges.items():
            self.edges.setdefault(symbol, TrieNode()).merge(child)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.edges.values())


class CigaleParser:
    """Greedy trie traversal with operand-extension for infix operators."""

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        start: Optional[NonTerminal] = None,
    ) -> None:
        self._tries: Dict[NonTerminal, TrieNode] = {}
        self._continuations: Dict[NonTerminal, TrieNode] = {}
        self.start = start
        for rule in rules:
            self.add_rule(rule)

    @classmethod
    def from_grammar(cls, grammar: Grammar) -> "CigaleParser":
        return cls(grammar.rules, start=grammar.start)

    # -- incremental construction (the Cigale selling point) ---------------

    def add_rule(self, rule: Rule) -> None:
        """O(|rule|) trie insertion; nothing else changes."""
        if rule.rhs and rule.rhs[0] == rule.lhs:
            # Directly left-recursive: keep the tail in the continuation
            # trie, to be tried after an operand has been recognized.
            trie = self._continuations.setdefault(rule.lhs, TrieNode())
            trie.insert_path(rule.rhs[1:], rule)
        else:
            trie = self._tries.setdefault(rule.lhs, TrieNode())
            trie.insert_path(rule.rhs, rule)

    def merge(self, other: "CigaleParser") -> None:
        """Combine tries 'just like modules'."""
        for nonterminal, trie in other._tries.items():
            self._tries.setdefault(nonterminal, TrieNode()).merge(trie)
        for nonterminal, trie in other._continuations.items():
            self._continuations.setdefault(nonterminal, TrieNode()).merge(trie)

    def trie_size(self) -> int:
        total = sum(trie.size() for trie in self._tries.values())
        total += sum(trie.size() for trie in self._continuations.values())
        return total

    # -- parsing ---------------------------------------------------------

    def parse(self, tokens: Sequence[Terminal]) -> Optional[TreeNode]:
        """Parse the whole token sequence as the start symbol, or None."""
        if self.start is None:
            raise ValueError("no start symbol configured")
        forest = Forest()
        sentence = list(tokens)
        outcome = self._parse_nt(self.start, 0, sentence, forest, 0)
        if outcome is None:
            return None
        tree, end = outcome
        return tree if end == len(sentence) else None

    def recognize(self, tokens: Sequence[Terminal]) -> bool:
        return self.parse(tokens) is not None

    def _parse_nt(
        self,
        nonterminal: NonTerminal,
        position: int,
        sentence: List[Terminal],
        forest: Forest,
        depth: int,
    ) -> Optional[Tuple[TreeNode, int]]:
        if depth > _MAX_DEPTH:
            return None  # greedy traversal gave up (no backtracking)
        trie = self._tries.get(nonterminal)
        if trie is None:
            return None
        outcome = self._traverse(trie, position, sentence, forest, [], depth)
        if outcome is None:
            return None
        tree, end = outcome
        # Extension loop: left-recursive operator rules continue here.
        continuation = self._continuations.get(nonterminal)
        while continuation is not None:
            extended = self._traverse(
                continuation, end, sentence, forest, [tree], depth
            )
            if extended is None:
                break
            tree, end = extended
        return tree, end

    def _traverse(
        self,
        node: TrieNode,
        position: int,
        sentence: List[Terminal],
        forest: Forest,
        collected: List[Tree],
        depth: int,
    ) -> Optional[Tuple[TreeNode, int]]:
        # Greedy terminal step first — this *is* the lookahead Cigale has.
        if position < len(sentence):
            token = sentence[position]
            child = node.edges.get(token)
            if child is not None:
                result = self._traverse(
                    child,
                    position + 1,
                    sentence,
                    forest,
                    collected + [token],
                    depth,
                )
                if result is not None:
                    return result
        # Then non-terminal edges, first success wins (no backtracking
        # across this choice once the recursive parse commits).
        for symbol, child in node.edges.items():
            if not isinstance(symbol, NonTerminal):
                continue
            sub = self._parse_nt(symbol, position, sentence, forest, depth + 1)
            if sub is None:
                continue
            subtree, end = sub
            result = self._traverse(
                child, end, sentence, forest, collected + [subtree], depth
            )
            if result is not None:
                return result
        # Finally, accept here if a rule ends at this node.
        for rule in node.accepts:
            return forest.node(rule, collected), position
        return None

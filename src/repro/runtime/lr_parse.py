"""LR-PARSE: the simple (deterministic) LR parser of section 3.1.

Works against any control object (graph-backed or table-backed).  As in
the paper, ``ACTION`` returns a *set* of actions and this parser *"can only
handle sets of at most one action correctly"* — more than one raises
:class:`~repro.runtime.errors.AmbiguousInputError`.

Extensions over the paper's listing, both used by the measurements:
the parser can build a parse tree (section 7 protocol: "the parsers
constructed a parse tree but did not print it") and can record a
:class:`~repro.runtime.trace.Trace` of its moves (Fig. 4.2).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import END, Terminal
from ..lr.actions import Accept, Reduce, Shift
from .errors import AmbiguousInputError, ParseError
from .forest import Forest, TreeNode
from .stacks import StackCell
from .trace import Trace, TraceEvent


class DetParseResult:
    """Outcome of a deterministic parse."""

    __slots__ = ("accepted", "tree", "consumed")

    def __init__(self, accepted: bool, tree: Optional[TreeNode], consumed: int) -> None:
        self.accepted = accepted
        self.tree = tree
        self.consumed = consumed

    def __bool__(self) -> bool:
        return self.accepted

    def __repr__(self) -> str:
        return f"DetParseResult(accepted={self.accepted}, consumed={self.consumed})"


def recover_start_trees(
    stack: StackCell,
    start_rules: Sequence[Rule],
    forest: Forest,
) -> List[TreeNode]:
    """Build START-rule trees from the cells on top of an accepting stack.

    When ACTION answers 'accept', the top ``len(beta)`` cells hold the
    trees of some ``START ::= beta``'s body.  Several START rules can match
    simultaneously (that is sentence-level ambiguity between roots).
    """
    trees: List[TreeNode] = []
    for rule in start_rules:
        arity = len(rule.rhs)
        if stack.depth - 1 < arity:
            continue
        cells: List[StackCell] = []
        cell: Optional[StackCell] = stack
        for _ in range(arity):
            assert cell is not None
            cells.append(cell)
            cell = cell.below
        cells.reverse()
        children = [c.tree for c in cells]
        if any(child is None for child in children):
            continue
        if all(
            (child if child.__class__ is Terminal else child.symbol) == expected
            for child, expected in zip(children, rule.rhs)
        ):
            trees.append(forest.node(rule, children))
    return trees


class SimpleLRParser:
    """The paper's LR-PARSE, packaged as a reusable object.

    Parameters
    ----------
    control:
        Provides ``start_state``, ``action(state, terminal)`` and
        ``goto(state, nonterminal)``.
    grammar:
        Optional; enables START-rule tree recovery at accept time.  Without
        it the tree of the last recognized body symbol is returned.
    """

    def __init__(self, control: Any, grammar: Optional[Grammar] = None) -> None:
        self.control = control
        self.grammar = grammar

    def recognize(self, tokens: Iterable[Terminal]) -> bool:
        try:
            return self.parse(tokens, build_tree=False).accepted
        except ParseError:
            return False

    def parse(
        self,
        tokens: Iterable[Terminal],
        build_tree: bool = True,
        trace: Optional[Trace] = None,
    ) -> DetParseResult:
        """Run LR-PARSE over ``tokens`` (the end-marker is appended here)."""
        sentence: List[Terminal] = list(tokens)
        sentence.append(END)
        forest = Forest() if build_tree else None

        stack = StackCell(self.control.start_state)
        position = 0
        symbol = sentence[position]

        while True:
            state = stack.state
            actions = self.control.action(state, symbol)
            if not actions:
                # the paper's error action: an empty action set
                raise ParseError(
                    f"no action in state {_uid(state)} on {symbol!s} "
                    f"at position {position}",
                    position=position,
                    symbol=symbol,
                )
            if len(actions) > 1:
                raise AmbiguousInputError(
                    f"{len(actions)} possible actions in state {_uid(state)} "
                    f"on {symbol!s}; LR-PARSE requires a deterministic table",
                    position=position,
                    symbol=symbol,
                )
            action = actions[0]

            if isinstance(action, Shift):
                stack = stack.push(action.target, symbol if forest else None)
                if trace is not None:
                    trace.record(
                        TraceEvent(
                            "shift",
                            state,
                            symbol=symbol,
                            target=action.target,
                            position=position,
                        )
                    )
                position += 1
                symbol = sentence[position]
            elif isinstance(action, Reduce):
                rule = action.rule
                below, children = stack.pop(len(rule.rhs))
                goto_state = self.control.goto(below.state, rule.lhs)
                node = forest.node(rule, children) if forest else None
                stack = below.push(goto_state, node)
                if trace is not None:
                    trace.record(
                        TraceEvent(
                            "reduce", state, rule=rule, target=goto_state, position=position
                        )
                    )
            else:
                assert isinstance(action, Accept)
                if trace is not None:
                    trace.record(TraceEvent("accept", state, position=position))
                tree = self._final_tree(stack, forest) if forest else None
                return DetParseResult(True, tree, consumed=position)

    def _final_tree(self, stack: StackCell, forest: Forest) -> Optional[TreeNode]:
        if self.grammar is not None:
            trees = recover_start_trees(stack, self.grammar.start_rules(), forest)
            if len(trees) > 1:
                raise AmbiguousInputError(
                    "multiple START rules match the accepted input"
                )
            if trees:
                return trees[0]
        return stack.tree


def _uid(state: Any) -> Any:
    return getattr(state, "uid", state)

"""Parse stacks as immutable cons cells with structural sharing.

Section 3.2 (description of PAR-PARSE): *"It is important for the lazy
parser generator that the implementation of the copy operation for parsers
is such that the parse stacks become different objects which share the
states on them."*

A stack is a linked chain of :class:`StackCell`; copying a parser is
copying a single pointer, and pushing allocates one cell.  Popping ``n``
cells is walking ``n`` links — the original chain is untouched, so sibling
parsers created by a fork keep their view intact.

Each cell carries the parser state plus the parse-forest node for the
symbol that was recognized on entering that state (None for the start
cell), which is how PAR-PARSE builds trees without a separate pass.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple


class StackCell:
    """One immutable stack cell: (state, tree, link to the cell below).

    A cell is *its own signature key*: ``sig`` is an incremental hash of
    the whole chain's (state, tree) identities, combined at push time from
    the parent cell's cached value, and ``__hash__``/``__eq__`` compare
    stacks by that identity chain.  Putting the top cell in a set is
    therefore an O(1) duplicate test — equality only walks the chains on
    a genuine duplicate or hash collision, and stops at the first
    physically shared cell (converging forks share their tail, so the
    walk covers just the divergent prefix).
    """

    __slots__ = ("state", "tree", "below", "depth", "sig")

    # Cells are immutable by convention, not enforcement: one cell is
    # allocated per parser step on the hot path, and routing five slot
    # writes through a raising ``__setattr__`` (via ``object.__setattr__``)
    # measures ~2.7x slower per push than plain slot stores.  Nothing in
    # the runtime writes to a cell after construction.
    def __init__(
        self,
        state: Any,
        below: Optional["StackCell"] = None,
        tree: Any = None,
    ) -> None:
        self.state = state
        self.below = below
        self.tree = tree
        if below is None:
            self.depth = 1
            self.sig = hash((1, id(state), id(tree)))
        else:
            self.depth = below.depth + 1
            self.sig = hash((below.sig, id(state), id(tree)))

    def __hash__(self) -> int:
        return self.sig

    def __eq__(self, other: object) -> bool:
        """Whole-stack identity equality: same states *and* same trees.

        For recognition (all trees ``None``) this compares states only;
        for tree-building parses trees are hash-consed, so two equal
        stacks are completely interchangeable — same states *and* same
        derivations — and one can be dropped without losing any parse.
        """
        if self is other:
            return True
        if not isinstance(other, StackCell):
            return NotImplemented
        if self.depth != other.depth or self.sig != other.sig:
            return False
        a: "StackCell" = self
        b: "StackCell" = other
        while a is not b:
            if a.state is not b.state or a.tree is not b.tree:
                return False
            a = a.below
            b = b.below
        return True

    def push(self, state: Any, tree: Any = None) -> "StackCell":
        """A new top cell on this stack (O(1), shares the whole chain)."""
        return StackCell(state, self, tree)

    def pop(self, count: int) -> Tuple["StackCell", List[Any]]:
        """Walk ``count`` cells down; return (new top, popped trees).

        Trees come back in *left-to-right* order (the deepest popped cell
        first), ready to be used as the children of a reduction.
        """
        trees: List[Any] = []
        cell: Optional[StackCell] = self
        for _ in range(count):
            if cell is None:
                raise IndexError("pop past the bottom of the parse stack")
            trees.append(cell.tree)
            cell = cell.below
        if cell is None:
            raise IndexError("pop removed the start state")
        trees.reverse()
        return cell, trees

    def states(self) -> Tuple[Any, ...]:
        """States from top to bottom."""
        result = []
        cell: Optional[StackCell] = self
        while cell is not None:
            result.append(cell.state)
            cell = cell.below
        return tuple(result)

    def __iter__(self) -> Iterator["StackCell"]:
        cell: Optional[StackCell] = self
        while cell is not None:
            yield cell
            cell = cell.below

    def __len__(self) -> int:
        return self.depth

    def __repr__(self) -> str:
        return f"StackCell(depth={self.depth}, top={self.state!r})"


def shared_cells(a: StackCell, b: StackCell) -> int:
    """Number of cells physically shared between two stacks.

    Only used by tests and the stack-sharing ablation bench to demonstrate
    that forking really is O(1) and reduction preserves the common tail.
    """
    a_cells = set(map(id, a))
    return sum(1 for cell in b if id(cell) in a_cells)

"""Parse trees with hash-consed sharing.

The measurements footnote of section 7: *"after a suggestion of B. Lang, we
improved the sharing of parse trees."*  We realize that sharing with a
hash-consing factory: requesting the same ``(rule, children)`` node twice
returns the *same object*.  Sub-derivations common to several parallel
parsers are therefore represented once, and duplicate accepting parses
collapse by object identity.

A leaf is the interned :class:`~repro.grammar.symbols.Terminal` the parser
shifted: symbols are already hash-consed, so a tree is identified by its
rules and its terminals alone.  Nothing in a tree records where it sits in
the input; its leaves spell its tokens in order, so positions follow from
the context.  Only :class:`PackedNode` carries a ``(symbol, start, end)``
span, because the GSS engine packs derivations by span.

Leaves and parse nodes are immutable; ambiguity appears either as several
distinct root nodes (the pool parser reports all of them) or, for the GSS
engine, as :class:`PackedNode` alternatives inside a shared packed parse
forest (SPPF).  :func:`count_trees` and :func:`enumerate_strings` treat a
shared node as the single subtree it is, and both are iterative with
memoized counts so cyclic or exponentially ambiguous forests produce an
explicit error instead of a hang or a recursion-depth crash.  Rendering
a tree as text is one iterative pass over the forest itself, linear in
the output, with no intermediate tree.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..grammar.rules import Rule
from ..grammar.symbols import Symbol, Terminal
from .deadline import CHECK_MASK, active_deadline
from .errors import CyclicForestError, ForestCapExceeded

#: Hard ceiling for ``trees(limit=None)`` / unbounded enumeration.  A
#: forest packing more derivations than this must be consumed through an
#: explicit ``limit`` (or inspected via ``tree_count()`` alone).
ENUMERATION_CAP = 10_000


class TreeNode:
    """Base class for the inner forest nodes; all know their grammar symbol.

    Leaves are not tree nodes: a leaf is its :class:`Terminal` (see
    :data:`Tree`).
    """

    __slots__ = ()

    @property
    def symbol(self) -> Symbol:
        raise NotImplementedError


#: A parse tree: a terminal leaf or an inner node.
Tree = Union[Terminal, TreeNode]


class ParseNode(TreeNode):
    """An application of ``rule`` to already-built children.

    A third slot, ``_width``, caches the number of tokens the node spans
    once :func:`width` has been asked for it (a tree-mode reparse asks
    for the subtrees it may reuse).  It is left unset at construction,
    so a plain parse never pays for it, and set through
    ``object.__setattr__``: the node is otherwise immutable, and its
    width is a fact of its children.  There is no packed-free flag: a
    reparse reuses only subtrees its base built without a general sweep,
    and those hold no packed node.
    """

    __slots__ = ("rule", "children", "_width")

    def __init__(self, rule: Rule, children: Tuple[Tree, ...]) -> None:
        if len(children) != len(rule.rhs):
            raise ValueError(
                f"rule {rule} wants {len(rule.rhs)} children, got {len(children)}"
            )
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "children", children)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ParseNode is immutable")

    @property
    def symbol(self) -> Symbol:
        return self.rule.lhs

    def __repr__(self) -> str:
        return f"ParseNode({self.rule.lhs!s}, {len(self.children)} children)"


class PackedNode(TreeNode):
    """An ambiguity node: one ``(symbol, start, end)`` span, many derivations.

    This is the SPPF construction of Rekers' improvement to Tomita's
    forests: when two reductions derive the same nonterminal over the same
    input span, both derivations are *packed* under a single node, and
    every parent built over that span sees all alternatives — including
    ones discovered after the parent itself was built.  That late-binding
    is why packed nodes are the one mutable node kind: ``add`` appends an
    alternative in place.
    """

    __slots__ = ("packed_symbol", "start", "end", "alternatives", "_alt_ids")

    def __init__(self, symbol: Symbol, start: int, end: int) -> None:
        self.packed_symbol = symbol
        self.start = start
        self.end = end
        self.alternatives: List[TreeNode] = []
        self._alt_ids: set = set()

    @property
    def symbol(self) -> Symbol:
        return self.packed_symbol

    def add(self, tree: TreeNode) -> bool:
        """Record a derivation; returns True if it was new to this node."""
        if id(tree) in self._alt_ids:
            return False
        self._alt_ids.add(id(tree))
        self.alternatives.append(tree)
        return True

    def __repr__(self) -> str:
        return (
            f"PackedNode({self.packed_symbol!s}@{self.start}..{self.end}, "
            f"{len(self.alternatives)} alternatives)"
        )


class Forest:
    """Hash-consing factory for parse nodes and packed nodes."""

    def __init__(self) -> None:
        self._nodes: Dict[Tuple[Rule, Tuple[int, ...]], ParseNode] = {}
        self._packed: Dict[Tuple[Symbol, int, int], PackedNode] = {}

    def node(self, rule: Rule, children: Sequence[Tree]) -> ParseNode:
        children_tuple = tuple(children)
        key = (rule, tuple(map(id, children_tuple)))
        node = self._nodes.get(key)
        if node is None:
            node = ParseNode(rule, children_tuple)
            self._nodes[key] = node
        return node

    def packed(self, symbol: Symbol, start: int, end: int) -> PackedNode:
        """The unique packed node for ``symbol`` over ``[start, end)``."""
        key = (symbol, start, end)
        node = self._packed.get(key)
        if node is None:
            node = PackedNode(symbol, start, end)
            self._packed[key] = node
        return node

    def branch(self) -> "Forest":
        """A forest that shares this one's parse nodes and packs afresh.

        Parse nodes carry no positions, so a run resumed after an input
        edit may reuse them; packed nodes are keyed by span, and the edit
        moves every span after the resume boundary.
        """
        forest = Forest()
        forest._nodes = self._nodes
        return forest

    @property
    def size(self) -> int:
        """Distinct nodes allocated (a sharing metric for the benches)."""
        return len(self._nodes) + len(self._packed)


# -- tree utilities ----------------------------------------------------------


def tokens_of(tree: Tree) -> Tuple[Terminal, ...]:
    """The terminal yield of a tree, left to right (iterative)."""
    result: List[Terminal] = []
    stack: List[Tree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Terminal):
            result.append(node)
        else:
            stack.extend(reversed(node.children))
    return tuple(result)


def bracketed(tree: Tree) -> str:
    """Compact  ``A(b c(d))``  rendering, convenient in tests.

    Iterative (see :func:`_render`), so deep trees render fine; a packed
    node inside ``tree`` renders as its first alternative.
    """
    return _render(tree, 0, {})


def width(tree: Tree) -> int:
    """The number of tokens ``tree`` spans, cached on parse nodes.

    A packed node reads its span; a parse node sums its children, in an
    iterative post-order that stops at nodes whose width is cached.
    """
    kind = tree.__class__
    if kind is Terminal:
        return 1
    if kind is PackedNode:
        return tree.end - tree.start
    cached = getattr(tree, "_width", None)
    if cached is not None:
        return cached
    stack: List[ParseNode] = [tree]
    while stack:
        node = stack[-1]
        pending = [
            child
            for child in node.children
            if child.__class__ is ParseNode and getattr(child, "_width", None) is None
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        total = 0
        for child in node.children:
            kind = child.__class__
            if kind is Terminal:
                total += 1
            elif kind is PackedNode:
                total += child.end - child.start
            else:
                total += child._width
        object.__setattr__(node, "_width", total)
    return tree._width


def node_count(tree: Tree, _seen: Optional[set] = None) -> int:
    """Distinct nodes in the (possibly shared) tree, leaves included."""
    seen = _seen if _seen is not None else set()
    count = 0
    stack: List[Tree] = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += 1
        if not isinstance(node, Terminal):
            stack.extend(node.children)
    return count


# -- packed-forest counting and enumeration ----------------------------------


def _children_of(node: Tree) -> Sequence[Tree]:
    if isinstance(node, ParseNode):
        return node.children
    if isinstance(node, PackedNode):
        return node.alternatives
    return ()


def _count_into(root: TreeNode, memo: Dict[int, int]) -> int:
    """Trees derivable from ``root``; fills ``memo`` (id(node) -> count).

    Iterative post-order with a gray set: a node reached again while it is
    still being expanded lies on a derivation cycle (``A ::= A``), so the
    forest has infinitely many trees and we raise instead of looping.
    The request deadline is polled every ``CHECK_MASK + 1`` steps.
    """
    deadline = active_deadline()
    gray: set = set()
    stack: List[Tree] = [root]
    steps = 0
    while stack:
        if (
            deadline is not None
            and (steps & CHECK_MASK) == 0
            and deadline.expired()
        ):
            raise deadline.exceed(stage="counting trees")
        steps += 1
        node = stack[-1]
        nid = id(node)
        if nid in memo:
            stack.pop()
            continue
        if node.__class__ is Terminal:
            memo[nid] = 1
            stack.pop()
            continue
        children = _children_of(node)
        if nid in gray:
            if isinstance(node, PackedNode):
                memo[nid] = sum(memo[id(child)] for child in children)
            else:
                count = 1
                for child in children:
                    count *= memo[id(child)]
                memo[nid] = count
            gray.discard(nid)
            stack.pop()
            continue
        gray.add(nid)
        for child in children:
            cid = id(child)
            if cid in memo:
                continue
            if cid in gray:
                raise CyclicForestError(
                    f"forest is cyclic at {child!r}: infinitely many trees"
                )
            stack.append(child)
    return memo[id(root)]


def count_trees(root: TreeNode) -> int:
    """Number of distinct derivation trees packed under ``root``.

    Linear in the size of the forest even when the count is exponential;
    raises :class:`CyclicForestError` on cyclic forests.
    """
    return _count_into(root, {})


def _nth_tree(root: TreeNode, index: int, counts: Dict[int, int]) -> TreeNode:
    """Decode tree ``index`` (0-based) out of the packed forest at ``root``.

    Tree indices form a mixed-radix number: a packed node spends the index
    on choosing an alternative, a parse node splits it across children by
    their subtree counts.  Entirely iterative — deep derivation chains must
    not hit the recursion limit.  Unambiguous subtrees decode to the shared
    node itself, preserving identity (and sharing) where nothing varies.
    Only :meth:`ParseForest.trees` decodes; rendering walks the forest
    directly (:func:`_render`).
    """
    results: Dict[int, Tree] = {}
    next_key = 1
    # ("visit", node, index, key) resolves one subtree into results[key];
    # ("build", node, child_keys, key) assembles a ParseNode afterwards.
    stack: List[tuple] = [("visit", root, index, 0)]
    while stack:
        task = stack.pop()
        if task[0] == "visit":
            _, node, idx, key = task
            while isinstance(node, PackedNode):
                for alternative in node.alternatives:
                    count = counts[id(alternative)]
                    if idx < count:
                        node = alternative
                        break
                    idx -= count
                else:
                    raise IndexError("tree index out of range")
            if node.__class__ is Terminal:
                results[key] = node
                continue
            assert isinstance(node, ParseNode)
            child_indices: List[int] = []
            for child in reversed(node.children):
                count = counts[id(child)]
                child_indices.append(idx % count)
                idx //= count
            child_indices.reverse()
            child_keys = []
            for child_index in child_indices:
                child_keys.append(next_key)
                next_key += 1
            stack.append(("build", node, child_keys, key))
            for child, child_index, child_key in zip(
                node.children, child_indices, child_keys
            ):
                stack.append(("visit", child, child_index, child_key))
        else:
            _, node, child_keys, key = task
            children = tuple(results.pop(k) for k in child_keys)
            if all(c is o for c, o in zip(children, node.children)):
                results[key] = node
            else:
                results[key] = ParseNode(node.rule, children)
    return results[0]


#: The frame of a parse node whose only child is already being rendered.
_CLOSED: Iterator[Any] = iter(())


def _render(root: Tree, index: int, counts: Dict[int, int]) -> str:
    """Bracketed rendering of tree ``index`` under ``root``, in one pass.

    The same mixed-radix walk as :func:`_nth_tree`, but it emits text
    instead of building a tree: a packed node spends the index on
    choosing an alternative, a parse node splits it across its children,
    and the name, ``(``, `` `` and ``)`` pieces go onto one list that is
    joined once.  Each open parse node is an iterator over its children,
    or over ``(child, index)`` pairs when it has a nonzero index to split;
    leaves are emitted straight from that iterator.  Iterative, so the
    cost is linear in the output and deep chains cannot hit the recursion
    limit.  Index 0 always takes every first alternative (no subtree count
    is below 1), so it reads no ``counts`` at all.
    """
    pieces: List[str] = []
    append = pieces.append
    # the children still to render of every open parse node, innermost last
    frames: List[Iterator[Any]] = []
    push = frames.append
    pop = frames.pop
    node, idx = root, index
    while True:
        # exact class tests (no node class is subclassed) beat isinstance
        kind = node.__class__
        while kind is PackedNode:
            if not idx:
                node = node.alternatives[0]
            else:
                for alternative in node.alternatives:
                    count = counts[id(alternative)]
                    if idx < count:
                        node = alternative
                        break
                    idx -= count
                else:
                    raise IndexError("tree index out of range")
            kind = node.__class__
        if kind is Terminal:
            append(node.name)
        else:
            append(node.rule.lhs.name + "(")
            children = node.children
            if len(children) == 1:  # a unit chain: the child takes the index
                push(_CLOSED)
                node = children[0]
                continue
            if idx:
                indices = []
                for child in children[:0:-1]:
                    count = counts[id(child)]
                    indices.append(idx % count)
                    idx //= count
                indices.append(idx)
                indices.reverse()
                frame: Iterator[Any] = zip(children, indices)
            else:
                frame = iter(children)
            item = next(frame, None)
            if item is not None:  # descend into the first child
                push(frame)
                if item.__class__ is tuple:
                    node, idx = item
                else:
                    node = item
                continue
            append(")")
        # Close finished nodes until one has a next child to descend into.
        while frames:
            item = next(frames[-1], None)
            if item is None:
                pop()
                append(")")
                continue
            append(" ")
            if item.__class__ is Terminal:
                append(item.name)
                continue
            break
        else:
            return "".join(pieces)
        if item.__class__ is tuple:
            node, idx = item
        else:
            node = item


def _enumerated(total: int, limit: Optional[int]) -> int:
    """How many of ``total`` trees an enumeration up to ``limit`` yields.

    ``limit=None`` means all of them, refused with
    :class:`ForestCapExceeded` past :data:`ENUMERATION_CAP`: an unbounded
    enumeration of a bigger forest is almost certainly a caller bug.
    """
    if limit is None:
        if total > ENUMERATION_CAP:
            raise ForestCapExceeded(
                f"forest packs {total} trees, over the unbounded-enumeration "
                f"cap of {ENUMERATION_CAP}; pass an explicit limit"
            )
        return total
    return min(limit, total)


def enumerate_strings(
    root: TreeNode, limit: Optional[int] = None
) -> Iterator[str]:
    """Bracketed renderings of the trees packed under ``root``, lazily.

    With ``limit=None`` the forest must hold at most
    :data:`ENUMERATION_CAP` trees, else :class:`ForestCapExceeded` is
    raised up front.
    """
    counts: Dict[int, int] = {}
    count = _enumerated(_count_into(root, counts), limit)
    return (_render(root, i, counts) for i in range(count))


def _root_indices(
    roots: Sequence[TreeNode], counts: Dict[int, int], remaining: int
) -> Iterator[Tuple[TreeNode, int]]:
    """``(root, index)`` for the first ``remaining`` trees over ``roots``."""
    for root in roots:
        if remaining <= 0:
            return
        taken = min(counts[id(root)], remaining)
        for index in range(taken):
            yield root, index
        remaining -= taken


class ParseForest:
    """The result of an accepting parse: a handle over the root trees.

    Pool engines hand it their (already distinct) root trees; the GSS
    engine hands it SPPF roots whose packed nodes may hide exponentially
    many derivations.  Either way ``tree_count()`` is cheap, and
    enumeration is lazy and indexed rather than exhaustive.
    """

    __slots__ = ("roots", "_counts", "_total")

    def __init__(self, roots: Sequence[TreeNode]) -> None:
        self.roots = tuple(roots)
        self._counts: Optional[Dict[int, int]] = None
        self._total: Optional[int] = None

    def tree_count(self) -> int:
        """Distinct derivations, without enumerating them."""
        if self._total is None:
            counts: Dict[int, int] = {}
            self._total = sum(
                _count_into(root, counts) for root in self.roots
            )
            self._counts = counts
        return self._total

    @property
    def is_ambiguous(self) -> bool:
        return self.tree_count() > 1

    def trees(self, limit: Optional[int] = None) -> Iterator[TreeNode]:
        """Lazily yield derivation trees, up to ``limit``.

        ``limit=None`` means *all* trees, which is refused with
        :class:`ForestCapExceeded` past :data:`ENUMERATION_CAP`.
        """
        counts, indices = self._enumeration(limit)
        return (_nth_tree(root, index, counts) for root, index in indices)

    def brackets(self, limit: Optional[int] = None) -> List[str]:
        """Sorted bracketed renderings (see :func:`bracketed`) of the
        trees :meth:`trees` would yield, rendered by :func:`_render`.

        The request deadline is polled once per rendered tree.
        """
        counts, indices = self._enumeration(limit)
        deadline = active_deadline()
        rendered = []
        for root, index in indices:
            if deadline is not None and deadline.expired():
                raise deadline.exceed()
            rendered.append(_render(root, index, counts))
        rendered.sort()
        return rendered

    def _enumeration(
        self, limit: Optional[int]
    ) -> Tuple[Dict[int, int], Iterator[Tuple[TreeNode, int]]]:
        """The subtree counts and a lazy ``(root, index)`` walk over the
        first trees up to ``limit``; the cap check runs here, eagerly."""
        remaining = _enumerated(self.tree_count(), limit)
        assert self._counts is not None
        return self._counts, _root_indices(self.roots, self._counts, remaining)

    def __repr__(self) -> str:
        return f"ParseForest({len(self.roots)} roots)"

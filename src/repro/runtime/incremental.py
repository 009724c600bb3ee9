"""Incremental re-parsing across *input* edits: checkpoint, resume, converge.

The paper makes parser **generation** incremental under grammar edits; this
module closes the symmetric gap for **parsing** under input edits, in the
spirit of Plaisted's abstract-congruence view of reusing prior
derivations.  The graph-structured stack is never mutated below its
frontier once a level is finished, so the configuration of the whole
parser at a token boundary is captured by a tuple of
:class:`~repro.runtime.gss.GSSNode` pointers — an O(stack tops)
*checkpoint* that shares every vertex with the run that produced it.

There is no second parser here.  :func:`checkpointed_parse` and
:func:`reparse` are the checkpoint *policy* over a
:class:`~repro.runtime.gss.GSSParser`; the mechanism — start at a
boundary, record the frontier at every boundary, stop on re-convergence —
is :class:`~repro.runtime.gss.Checkpoints` inside
:meth:`GSSParser.run <repro.runtime.gss.GSSParser.run>`, the same loop
(deterministic stretch plus general sweep) a plain parse runs.  So a
checkpointed parse takes exactly the steps of a plain one.  Given a splice
edit ``(start, end, replacement)`` over the previous input,
:func:`reparse`

1. **resumes** from the last checkpoint at or before ``start`` instead of
   re-running the prefix (the frontier at boundary *i* depends only on
   ``tokens[:i]``),
2. re-parses the damaged region plus as much of the suffix as needed, and
3. **stops early** once the live frontier *re-converges* with the prior
   run's checkpoint at the corresponding boundary — from equal frontiers
   over an equal remaining input, every future sweep is identical, so the
   prior outcome's acceptance, derivations, failure record and remaining
   checkpoints are reused wholesale.

Two regimes fall out of the frontier match covering *labels as well as
states*:

* **Recognition** (``build_trees=False``) — edges carry no labels, so
  convergence is pure state-graph equality and fires shortly after the
  damaged region for any edit, including length-changing ones.  This is
  the regime the service's hot re-submission traffic runs in.
* **Tree building** — edges carry forest nodes.  The reparse shares the
  prior run's hash-consed parse nodes, so equal derivations are
  *identical* objects; parse nodes carry no positions, but a whole stack
  spells the whole prefix before its boundary, so convergence certifies
  identical derivations of prefixes of the same length.  That only
  happens for edits that rewrite a region into the same parse (e.g.
  re-submissions); after an edit that changes a token no stack spells the
  base's prefix again, so no frontier is compared.  The run reuses the
  base *tree* instead: :func:`reparse` hands it the base tree's subtrees
  after the edit with their LR left states, and the deterministic stretch
  shifts each one whole once its state matches (right-context subtree
  reuse, Wagner & Graham, TOPLAS 1998; see :mod:`repro.runtime.gss`).
  Only the spine above the edit and the subtrees that do not fit are
  parsed again.  Packed nodes are keyed by span and an edit moves every
  span after it, so a resumed run packs into a table of its own
  (:meth:`~repro.runtime.forest.Forest.branch`).

Checkpoints are **invalidated by grammar edits**: every MODIFY bumps
:attr:`Grammar.revision <repro.grammar.grammar.Grammar.revision>`, and
``reparse`` falls back to a full (checkpointed) parse when the base
outcome's grammar revision, owner, or tree mode no longer matches.  The
fallback is the correctness story: ``reparse`` never answers differently
from parsing the spliced input from scratch, it only answers faster when
reuse is sound.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..grammar.symbols import Terminal
from .forest import Forest, ParseNode, width
from .gss import (
    Checkpoints,
    Frontier,
    GSSParser,
    GSSResult,
    Subtree,
    left_states,
    subtree_children,
)
from .parallel import ParseFailure

__all__ = ["Edit", "IncrementalOutcome", "checkpointed_parse", "reparse"]


class Edit:
    """One splice edit: replace ``tokens[start:end]`` with ``replacement``."""

    __slots__ = ("start", "end", "replacement")

    def __init__(
        self, start: int, end: int, replacement: Iterable[Terminal] = ()
    ) -> None:
        if start < 0 or end < start:
            raise ValueError(
                f"invalid edit range [{start}:{end}] — need 0 <= start <= end"
            )
        self.start = start
        self.end = end
        self.replacement: Tuple[Terminal, ...] = tuple(replacement)

    @property
    def delta(self) -> int:
        """How much the edit shifts every position after it."""
        return len(self.replacement) - (self.end - self.start)

    def apply(self, tokens: Sequence[Terminal]) -> Tuple[Terminal, ...]:
        """The spliced token sequence (the edit's *meaning*)."""
        if self.end > len(tokens):
            raise ValueError(
                f"edit range [{self.start}:{self.end}] exceeds the "
                f"{len(tokens)}-token input"
            )
        return (
            tuple(tokens[: self.start])
            + self.replacement
            + tuple(tokens[self.end :])
        )

    def key(self) -> Tuple[int, int, Tuple[str, ...]]:
        """Hashable identity for cache keys (names, not Terminal objects)."""
        return (self.start, self.end, tuple(t.name for t in self.replacement))

    def __repr__(self) -> str:
        names = " ".join(t.name for t in self.replacement)
        return f"Edit([{self.start}:{self.end}] -> {names!r})"



class IncrementalOutcome:
    """A parse result plus everything a later ``reparse`` needs.

    ``frontiers[i]`` is the frontier before consuming token ``i``
    (``frontiers[0]`` is the start configuration, ``frontiers[n]`` the one
    facing the end-marker); entries after the point a rejected run died at
    are ``None``.  ``owner`` is the :class:`GSSParser` that produced it.
    ``reuse`` describes how the outcome was obtained — see :func:`reparse`.
    ``sweeps`` lists, in order, the positions where the runs behind a
    tree-mode outcome made a general sweep: a subtree spanning none of
    them was built by the deterministic stretch alone.
    """

    __slots__ = (
        "result",
        "tokens",
        "frontiers",
        "build_trees",
        "forest",
        "version",
        "owner",
        "reuse",
        "sweeps",
    )

    def __init__(
        self,
        result: GSSResult,
        tokens: Tuple[Terminal, ...],
        frontiers: List[Frontier],
        build_trees: bool,
        forest: Optional[Forest],
        version: int,
        owner: GSSParser,
    ) -> None:
        self.result = result
        self.tokens = tokens
        self.frontiers = frontiers
        self.build_trees = build_trees
        self.forest = forest
        self.version = version
        self.owner = owner
        self.reuse: Dict[str, Any] = {}
        self.sweeps: List[int] = []

    @property
    def checkpoint_count(self) -> int:
        return sum(1 for frontier in self.frontiers if frontier is not None)

    def __repr__(self) -> str:
        return (
            f"IncrementalOutcome(accepted={self.result.accepted}, "
            f"tokens={len(self.tokens)}, "
            f"checkpoints={self.checkpoint_count})"
        )


def checkpointed_parse(
    parser: GSSParser, tokens: Iterable[Terminal], build_trees: bool = True
) -> IncrementalOutcome:
    """A full parse that records a checkpoint at every token boundary."""
    sentence = tuple(tokens)
    checkpoints = Checkpoints([None] * (len(sentence) + 1))
    forest = Forest() if build_trees else None
    return _run(parser, sentence, checkpoints, build_trees, forest, None)


def reparse(
    parser: GSSParser,
    base: IncrementalOutcome,
    edit: Edit,
    build_trees: Optional[bool] = None,
    spliced: Optional[Sequence[Terminal]] = None,
) -> IncrementalOutcome:
    """Parse ``edit.apply(base.tokens)`` on ``parser``, reusing ``base``'s work.

    Equivalent to ``checkpointed_parse(parser, edit.apply(base.tokens))`` in
    every observable (acceptance, derivations, ambiguity, failure record) —
    proven by the differential property suite — but resumes from the last
    checkpoint before the edit and stops at frontier re-convergence; a
    tree-mode edit that changes a token shifts the base tree's subtrees
    after it whole instead (``reuse["parsed_tokens"]`` still counts the
    tokens they span, ``stats["subtrees_reused"]`` counts them).  When
    the base is unusable (grammar modified since it was produced, different
    tree mode, or a checkpoint from another parser) the function falls back
    to a full checkpointed parse; ``outcome.reuse["fallback"]`` names the
    reason.
    """
    if not isinstance(base, IncrementalOutcome):
        raise TypeError(
            f"reparse needs an IncrementalOutcome base, got {base!r}"
        )
    if build_trees is None:
        build_trees = base.build_trees
    # Callers that already spliced (Language.reparse needs the result
    # for its own bookkeeping) pass it in; recomputing would double
    # the O(n) splice on a path whose sweep often touches ~2 tokens.
    spliced = (
        tuple(spliced) if spliced is not None else edit.apply(base.tokens)
    )

    reason: Optional[str] = None
    if base.owner is not parser:
        reason = "foreign-checkpoint"
    elif base.version != parser.control.grammar.revision:
        reason = "grammar-modified"
    elif base.build_trees != build_trees:
        reason = "mode-changed"
    if reason is not None:
        outcome = checkpointed_parse(parser, spliced, build_trees=build_trees)
        outcome.reuse["fallback"] = reason
        return outcome

    n = len(spliced)
    forest = base.forest if build_trees else None
    if forest is not None:
        if forest.size > 64 * (n + 16):
            # Chained tree-mode reparses share the base's parse nodes
            # (that is what makes identity-convergence O(1)), but its
            # memo table retains every node ever built — a long edit
            # chain would grow memory linearly.  Past this cap the
            # chain restarts on a fresh forest: still correct (prefix
            # resume and run-out are forest-agnostic; resumed stacks
            # keep their old nodes alive only while reachable), only
            # this turn's tree-identity convergence is forfeited.
            forest = Forest()
        else:
            # Never the base's packed table: its spans after the
            # resume boundary name other tokens once the edit moves them.
            forest = forest.branch()
    frontiers: List[Frontier] = [None] * (n + 1)
    # Checkpoints at boundaries <= start depend only on the unchanged
    # prefix, so they carry over verbatim; resume from the last one
    # the base run actually reached (a base that died before the edit
    # re-dies identically from there, at the same token).
    upto = min(edit.start, len(base.frontiers) - 1)
    frontiers[: upto + 1] = base.frontiers[: upto + 1]
    boundary = upto
    while boundary > 0 and frontiers[boundary] is None:
        boundary -= 1

    watched = base.frontiers
    right: Optional[List[Subtree]] = None
    if build_trees and edit.replacement != tuple(base.tokens[edit.start : edit.end]):
        # A label spells its yield, so a tree-mode frontier can match the
        # base's only over the same prefix: once the edit changes a token,
        # no later boundary converges and none is compared.  The run
        # shifts the base tree's subtrees after the edit whole instead.
        watched = []
        right = _right_context(parser, base, edit)
    checkpoints = Checkpoints(
        frontiers,
        start=boundary,
        base_frontiers=watched,
        delta=edit.delta,
        watch_from=edit.start + len(edit.replacement),
        right_context=right,
    )
    return _run(parser, spliced, checkpoints, build_trees, forest, base)


def _right_context(
    parser: GSSParser, base: IncrementalOutcome, edit: Edit
) -> Optional[List[Subtree]]:
    """The base tree's maximal reusable subtrees after ``edit``, as the
    :class:`~repro.runtime.gss.Checkpoints` stack (leftmost last).

    Only an accepted base with a single root has one.  The walk starts
    at the root in ``control.start_state`` and goes right to left,
    descending through parse nodes only — never into a packed node,
    whose alternatives may come from other left states — until it
    reaches ``edit.end``; so it reads the widths of the tree after the
    edit only.  A subtree starting at or after ``edit.end`` is kept (its
    start moved by ``edit.delta``) if no general sweep of the base ran
    at a position it spans.  A sweep there may have let stacks die that
    the edited left context keeps alive; such a subtree is broken down
    instead, so every entry is one the deterministic stretch built alone.
    """
    forest = base.result.forest
    if forest is None or len(forest.roots) != 1:
        return None
    cut = edit.end
    root = forest.roots[0]
    # One frame per open node, the root first: [node, its children's
    # left states, the next child to place (right to left), the position
    # that child ends at, the children found wholly after the cut,
    # rightmost first].
    frames: List[List[Any]] = [[
        root,
        left_states(parser.control.start_state, root.children),
        len(root.children) - 1,
        len(base.tokens),
        [],
    ]]
    while True:
        frame = frames[-1]
        node, lefts, index, end, found = frame
        if index < 0:
            if len(frames) == 1:
                break
            # The node lies wholly after the cut: its parent places it.
            frames.pop()
            width(node)  # its children's widths are known: caches its own
            parent = frames[-1]
            parent[4].append((end, parent[1][parent[2]], node))
            parent[2] -= 1
            parent[3] = end
            continue
        child = node.children[index]
        kind = child.__class__
        if kind is ParseNode:
            size = getattr(child, "_width", None)
        else:
            size = width(child)
        if size is not None and end - size >= cut:
            found.append((end - size, lefts[index], child))
            frame[2] = index - 1
            frame[3] = end - size
            continue
        if end == cut or kind is not ParseNode:
            break  # the rest lies before the cut, or a packed node spans it
        frames.append(
            [child, left_states(lefts[index], child.children), len(child.children) - 1, end, []]
        )

    # Every open frame spans the cut; their finds, root first, run right
    # to left.  A find that spans a sweep is broken down.
    sweeps = base.sweeps
    delta = edit.delta
    entries: List[Subtree] = []
    for frame in frames:
        pending = list(reversed(frame[4]))
        while pending:
            start, left, tree = pending.pop()
            if tree.__class__ is not ParseNode:
                continue
            end = start + width(tree)
            index = bisect_left(sweeps, start)
            if index == len(sweeps) or sweeps[index] >= end:
                if end > start:
                    entries.append((start + delta, left, tree))
            else:
                pending.extend(reversed(list(subtree_children(tree, left, end))))
    return entries


def _run(
    parser: GSSParser,
    sentence: Tuple[Terminal, ...],
    checkpoints: Checkpoints,
    build_trees: bool,
    forest: Optional[Forest],
    base: Optional[IncrementalOutcome],
) -> IncrementalOutcome:
    """Run ``parser`` from ``checkpoints.start``; adopt the base on convergence."""
    n = len(sentence)
    result = parser.run(
        sentence, build_trees, forest=forest, checkpoints=checkpoints
    )
    frontiers = checkpoints.frontiers
    converged_at = checkpoints.converged_at
    sweeps = checkpoints.sweeps
    if base is not None:
        # Below the resume boundary the base's sweeps stand.
        sweeps[:0] = base.sweeps[: bisect_left(base.sweeps, checkpoints.start)]
    if converged_at is not None:
        assert base is not None
        # Equal frontiers + equal remaining input => every future
        # sweep is identical: adopt the base run's verdict and its
        # remaining checkpoints (shifted by the edit's delta).
        delta = checkpoints.delta
        failure = base.result.failure
        if failure is not None:
            failure = ParseFailure(
                failure.token_index + delta, failure.symbol, failure.states
            )
        result = GSSResult(
            base.result.accepted,
            base.result.forest if build_trees else None,
            result.stats,
            failure,
        )
        frontiers[converged_at + 1 :] = base.frontiers[converged_at + 1 - delta :]
        sweeps.extend(
            position + delta
            for position in base.sweeps[bisect_left(base.sweeps, converged_at - delta) :]
        )
        # the boundary the sweeps actually reached
        stopped_at = converged_at
    elif result.failure is not None:
        stopped_at = result.failure.token_index
    else:
        stopped_at = n

    revision = parser.control.grammar.revision
    outcome = IncrementalOutcome(
        result, sentence, frontiers, build_trees, forest, revision, parser
    )
    outcome.sweeps = sweeps
    start = checkpoints.start
    outcome.reuse = {
        "converged_at": converged_at,
        "fallback": None,
        "resumed_at": start,
        "reused_prefix": start,
        "parsed_tokens": max(0, stopped_at - start),
        "total_tokens": n,
    }
    return outcome

"""Incremental re-parsing across *input* edits: checkpoint, resume, converge.

The paper makes parser **generation** incremental under grammar edits; this
module closes the symmetric gap for **parsing** under input edits, in the
spirit of Plaisted's abstract-congruence view of reusing prior
derivations.  The observation is the same one that makes PAR-PARSE's
stacks cheap to copy: parse stacks are immutable cons chains, so the
configuration of the whole parser pool at a token boundary is captured by
a tuple of :class:`~repro.runtime.stacks.StackCell` pointers — an O(live
parsers) *checkpoint* that shares every cell with the run that produced
it.

There is no second parser here.  :func:`checkpointed_parse` and
:func:`reparse` are the checkpoint *policy* over a
:class:`~repro.runtime.parallel.PoolParser`; the mechanism — start at a
boundary, record the frontier at every boundary, stop on re-convergence —
is :class:`~repro.runtime.parallel.Checkpoints` inside
:meth:`PoolParser.run <repro.runtime.parallel.PoolParser.run>`, the same
loop (deterministic stretch plus general sweep) a plain parse runs.  So a
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

Two regimes fall out of the cell signature covering *trees as well as
states*:

* **Recognition** (``build_trees=False``) — cells carry no trees, so
  convergence is pure state-frontier equality and fires shortly after the
  damaged region for any edit, including length-changing ones.  This is
  the regime the service's hot re-submission traffic runs in.
* **Tree building** — cells carry hash-consed subtrees (the reparse
  reuses the prior run's :class:`~repro.runtime.forest.Forest`, so equal
  derivations are *identical* objects).  Convergence then certifies that
  derivations and token positions match exactly, which only happens for
  edits that rewrite a region into the same parse (e.g. re-submissions);
  a genuinely changed region keeps its differing subtree on the stack, so
  the run continues to the end — still skipping the whole prefix, and
  still correct by construction.

Checkpoints are **invalidated by grammar edits**: every MODIFY bumps
:attr:`Grammar.revision <repro.grammar.grammar.Grammar.revision>`, and
``reparse`` falls back to a full (checkpointed) parse when the base
outcome's grammar revision, owner, or tree mode no longer matches.  The
fallback is the correctness story: ``reparse`` never answers differently
from parsing the spliced input from scratch, it only answers faster when
reuse is sound.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..grammar.symbols import Terminal
from .forest import Forest
from .parallel import Checkpoints, Frontier, ParseFailure, ParseResult, PoolParser

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

    ``frontiers[i]`` is the pool frontier before consuming token ``i``
    (``frontiers[0]`` is the start configuration, ``frontiers[n]`` the one
    facing the end-marker); entries after the point a rejected run died at
    are ``None``.  ``owner`` is the :class:`PoolParser` that produced it.
    ``reuse`` describes how the outcome was obtained — see :func:`reparse`.
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
    )

    def __init__(
        self,
        result: ParseResult,
        tokens: Tuple[Terminal, ...],
        frontiers: List[Frontier],
        build_trees: bool,
        forest: Optional[Forest],
        version: int,
        owner: PoolParser,
    ) -> None:
        self.result = result
        self.tokens = tokens
        self.frontiers = frontiers
        self.build_trees = build_trees
        self.forest = forest
        self.version = version
        self.owner = owner
        self.reuse: Dict[str, Any] = {}

    @property
    def checkpoint_count(self) -> int:
        return sum(1 for frontier in self.frontiers if frontier is not None)

    def __repr__(self) -> str:
        return (
            f"IncrementalOutcome(accepted={self.result.accepted}, "
            f"tokens={len(self.tokens)}, "
            f"checkpoints={self.checkpoint_count})"
        )


def _revision(pool: PoolParser) -> int:
    return pool.grammar.revision if pool.grammar is not None else 0


def checkpointed_parse(
    pool: PoolParser, tokens: Iterable[Terminal], build_trees: bool = True
) -> IncrementalOutcome:
    """A full parse that records a checkpoint at every token boundary."""
    sentence = tuple(tokens)
    checkpoints = Checkpoints([None] * (len(sentence) + 1))
    forest = Forest() if build_trees else None
    return _run(pool, sentence, checkpoints, build_trees, forest, None)


def reparse(
    pool: PoolParser,
    base: IncrementalOutcome,
    edit: Edit,
    build_trees: Optional[bool] = None,
    spliced: Optional[Sequence[Terminal]] = None,
) -> IncrementalOutcome:
    """Parse ``edit.apply(base.tokens)`` on ``pool``, reusing ``base``'s work.

    Equivalent to ``checkpointed_parse(pool, edit.apply(base.tokens))`` in
    every observable (acceptance, derivations, ambiguity, failure record) —
    proven by the differential property suite — but resumes from the last
    checkpoint before the edit and stops at frontier re-convergence.  When
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
    if base.owner is not pool:
        reason = "foreign-checkpoint"
    elif base.version != _revision(pool):
        reason = "grammar-modified"
    elif base.build_trees != build_trees:
        reason = "mode-changed"
    if reason is not None:
        outcome = checkpointed_parse(pool, spliced, build_trees=build_trees)
        outcome.reuse["fallback"] = reason
        return outcome

    n = len(spliced)
    forest = base.forest if build_trees else None
    if forest is not None and forest.size > 64 * (n + 16):
        # Chained tree-mode reparses share the base's hash-consing
        # forest (that is what makes identity-convergence O(1)), but
        # its memo tables retain every node ever built — a long edit
        # chain would grow memory linearly.  Past this cap the chain
        # restarts on a fresh forest: still correct (prefix resume
        # and run-out are forest-agnostic; resumed stacks keep their
        # old nodes alive only while reachable), only this turn's
        # tree-identity convergence is forfeited.
        forest = Forest()
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

    checkpoints = Checkpoints(
        frontiers,
        start=boundary,
        base_frontiers=base.frontiers,
        delta=edit.delta,
        watch_from=edit.start + len(edit.replacement),
    )
    return _run(pool, spliced, checkpoints, build_trees, forest, base)


def _run(
    pool: PoolParser,
    sentence: Tuple[Terminal, ...],
    checkpoints: Checkpoints,
    build_trees: bool,
    forest: Optional[Forest],
    base: Optional[IncrementalOutcome],
) -> IncrementalOutcome:
    """Run ``pool`` from ``checkpoints.start``; adopt the base on convergence."""
    n = len(sentence)
    result = pool.run(
        sentence, build_trees, forest=forest, checkpoints=checkpoints
    )
    frontiers = checkpoints.frontiers
    converged_at = checkpoints.converged_at
    if converged_at is not None:
        assert base is not None
        # Equal frontiers + equal remaining input => every future
        # sweep is identical: adopt the base run's verdict and its
        # remaining checkpoints (shifted by the edit's delta).
        delta = checkpoints.delta
        failure = base.result.failure
        if failure is not None:
            failure = ParseFailure(
                failure.token_index + delta,
                failure.symbol,
                failure.stacks,
                failure.states,
            )
        result = ParseResult(
            base.result.accepted,
            base.result.trees if build_trees else (),
            result.stats,
            failure,
        )
        frontiers[converged_at + 1 :] = base.frontiers[converged_at + 1 - delta :]
        # the boundary the sweeps actually reached
        stopped_at = converged_at
    elif result.failure is not None:
        stopped_at = result.failure.token_index
    else:
        stopped_at = n

    outcome = IncrementalOutcome(
        result, sentence, frontiers, build_trees, forest, _revision(pool), pool
    )
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

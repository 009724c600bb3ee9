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

:class:`IncrementalParser` calls the same sweep function as
:class:`~repro.runtime.parallel.PoolParser`
(:func:`~repro.runtime.parallel.sweep_symbol`: shift-synchronized parser
pool, duplicate elision, sweep budget) but records the pool frontier at
every token boundary.  Given a splice edit ``(start, end, replacement)``
over the previous input, :meth:`IncrementalParser.reparse`

1. **resumes** from the last checkpoint at or before ``start`` instead of
   re-running the prefix (the frontier at boundary *i* depends only on
   ``tokens[:i]``),
2. re-parses the damaged region plus as much of the suffix as needed, and
3. **stops early** once the live frontier *re-converges* with the prior
   run's checkpoint at the corresponding boundary — from equal frontiers
   over an equal remaining input, every future sweep is identical, so the
   prior outcome's acceptance, derivations, failure record and remaining
   checkpoints are reused wholesale.

Convergence tests are cheap because a :class:`StackCell` *is* its own
O(1) signature (the incremental hash introduced for the compiled control
plane): comparing frontiers is a small set comparison, and the underlying
``__eq__`` walk stops at the first physically shared cell.

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

Checkpoints are **invalidated by grammar edits** through the existing
:meth:`Grammar.subscribe <repro.grammar.grammar.Grammar.subscribe>` hook:
every MODIFY bumps the parser's ``epoch``, and ``reparse`` falls back to
a full (checkpointed) parse when the base outcome's epoch, grammar
revision, owner, or tree mode no longer matches.  The fallback is the
correctness story: ``reparse`` never answers differently from parsing the
spliced input from scratch, it only answers faster when reuse is sound.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..grammar.grammar import Grammar
from ..grammar.symbols import END, Terminal
from .deadline import active_deadline
from .forest import Forest, TreeNode
from .parallel import (
    ParseFailure,
    ParseResult,
    ParseStats,
    collect_accepted,
    stack_depth_limit,
    sweep_symbol,
)
from .stacks import StackCell

__all__ = ["Edit", "IncrementalOutcome", "IncrementalParser", "splice"]


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


def splice(
    tokens: Sequence[Terminal], edit: Edit
) -> Tuple[Terminal, ...]:
    """Functional alias for :meth:`Edit.apply` (reads better in tests)."""
    return edit.apply(tokens)


#: Frontier at one token boundary: the live stacks *before* consuming the
#: token at that index (``None`` marks boundaries the run never reached).
Frontier = Optional[Tuple[StackCell, ...]]


class IncrementalOutcome:
    """A parse result plus everything a later ``reparse`` needs.

    ``frontiers[i]`` is the pool frontier before consuming token ``i``
    (``frontiers[0]`` is the start configuration, ``frontiers[n]`` the one
    facing the end-marker); entries after the point a rejected run died at
    are ``None``.  ``reuse`` describes how the outcome was obtained — see
    :meth:`IncrementalParser.reparse`.
    """

    __slots__ = (
        "result",
        "tokens",
        "frontiers",
        "build_trees",
        "forest",
        "version",
        "epoch",
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
        epoch: int,
        owner: "IncrementalParser",
    ) -> None:
        self.result = result
        self.tokens = tokens
        self.frontiers = frontiers
        self.build_trees = build_trees
        self.forest = forest
        self.version = version
        self.epoch = epoch
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


class IncrementalParser:
    """PAR-PARSE with per-token checkpoints and splice-edit resume.

    Runs PAR-PARSE's general sweep
    (:func:`~repro.runtime.parallel.sweep_symbol`) symbol by symbol over
    the same control protocol as :class:`PoolParser` (``start_state`` /
    ``action`` / ``goto``), so it runs over the lazy graph or the compiled
    control plane unchanged, and a checkpointed parse reports the same
    stats as a plain one.  There is no deterministic stretch: every
    boundary needs its frontier recorded.  When
    constructed with a grammar it subscribes to it: every MODIFY bumps
    ``epoch``, which invalidates all previously issued checkpoints (a
    stale ``reparse`` silently becomes a full checkpointed parse).
    Call :meth:`close` to detach from the grammar's observer list.
    """

    def __init__(
        self,
        control: Any,
        grammar: Optional[Grammar] = None,
        max_sweep_steps: int = 1_000_000,
    ) -> None:
        self.control = control
        self.grammar = grammar
        self.max_sweep_steps = max_sweep_steps
        #: bumped by every grammar MODIFY (via ``Grammar.subscribe``)
        self.epoch = 0
        self._unsubscribe = (
            grammar.subscribe(self._on_modify) if grammar is not None else None
        )

    def _on_modify(self, _grammar: Grammar, _rule: Any, _added: bool) -> None:
        self.epoch += 1

    def close(self) -> None:
        """Detach from the grammar's observer chain."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- full (checkpointed) parsing ---------------------------------------

    def parse(
        self, tokens: Iterable[Terminal], build_trees: bool = True
    ) -> IncrementalOutcome:
        """A full parse that records a checkpoint at every token boundary."""
        sentence = tuple(tokens)
        frontiers: List[Frontier] = [None] * (len(sentence) + 1)
        frontiers[0] = (StackCell(self.control.start_state),)
        outcome = self._run(
            sentence,
            boundary=0,
            frontiers=frontiers,
            build_trees=build_trees,
            forest=Forest() if build_trees else None,
            base=None,
            delta=0,
            watch_from=None,
        )
        outcome.reuse.update(
            fallback=None,
            resumed_at=0,
            reused_prefix=0,
            parsed_tokens=outcome.reuse.pop("stopped_at"),
            total_tokens=len(sentence),
        )
        return outcome

    # -- incremental re-parsing --------------------------------------------

    def reparse(
        self,
        base: IncrementalOutcome,
        edit: Edit,
        build_trees: Optional[bool] = None,
        spliced: Optional[Sequence[Terminal]] = None,
    ) -> IncrementalOutcome:
        """Parse ``edit.apply(base.tokens)``, reusing ``base``'s work.

        Equivalent to ``parse(edit.apply(base.tokens))`` in every
        observable (acceptance, derivations, ambiguity, failure record) —
        proven by the differential property suite — but resumes from the
        last checkpoint before the edit and stops at frontier
        re-convergence.  When the base is unusable (grammar modified since
        it was produced, different tree mode, or a checkpoint from another
        parser) the method falls back to a full checkpointed parse;
        ``outcome.reuse["fallback"]`` names the reason.
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
        if base.owner is not self:
            reason = "foreign-checkpoint"
        elif base.epoch != self.epoch or (
            self.grammar is not None and base.version != self.grammar.revision
        ):
            reason = "grammar-modified"
        elif base.build_trees != build_trees:
            reason = "mode-changed"
        if reason is not None:
            outcome = self.parse(spliced, build_trees=build_trees)
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

        outcome = self._run(
            spliced,
            boundary=boundary,
            frontiers=frontiers,
            build_trees=build_trees,
            forest=forest,
            base=base,
            delta=edit.delta,
            watch_from=edit.start + len(edit.replacement),
        )
        outcome.reuse.update(
            fallback=None,
            resumed_at=boundary,
            reused_prefix=boundary,
            parsed_tokens=max(0, outcome.reuse.pop("stopped_at") - boundary),
            total_tokens=n,
        )
        return outcome

    # -- the sweep driver --------------------------------------------------

    def _run(
        self,
        sentence: Tuple[Terminal, ...],
        boundary: int,
        frontiers: List[Frontier],
        build_trees: bool,
        forest: Optional[Forest],
        base: Optional[IncrementalOutcome],
        delta: int,
        watch_from: Optional[int],
    ) -> IncrementalOutcome:
        """Sweep from ``boundary`` to acceptance, death, or convergence."""
        n = len(sentence)
        grammar = self.grammar
        control = self.control
        max_depth = stack_depth_limit(n, grammar)
        deadline = active_deadline()

        stats = ParseStats()
        accepted_trees: Dict[TreeNode, None] = {}
        failure: Optional[ParseFailure] = None
        converged_at: Optional[int] = None

        frontier = frontiers[boundary]
        assert frontier is not None, "resume boundary has no checkpoint"
        position = boundary
        while position <= n:
            if (
                base is not None
                and watch_from is not None
                and position >= watch_from
            ):
                old_index = position - delta
                if 0 <= old_index < len(base.frontiers):
                    old_frontier = base.frontiers[old_index]
                    if (
                        old_frontier is not None
                        and len(old_frontier) == len(frontier)
                        and set(frontier) == set(old_frontier)
                    ):
                        converged_at = position
                        break
            symbol = sentence[position] if position < n else END
            stats.sweeps += 1
            if deadline is not None and deadline.expired():
                raise deadline.exceed(position)
            next_frontier, dead_states, accepting = sweep_symbol(
                frontier,
                symbol,
                position,
                control,
                forest,
                max_depth,
                self.max_sweep_steps,
                stats,
                deadline,
            )
            collect_accepted(accepting, grammar, forest, stats, accepted_trees)
            if not next_frontier:
                if not stats.accepting_parsers:
                    failure = ParseFailure(
                        position, symbol, tuple(frontier), tuple(dead_states)
                    )
                break
            if position < n:
                frontiers[position + 1] = next_frontier
            frontier = next_frontier
            position += 1

        accepted = stats.accepting_parsers > 0
        if converged_at is not None:
            assert base is not None
            # Equal frontiers + equal remaining input => every future
            # sweep is identical: adopt the base run's verdict and its
            # remaining checkpoints (shifted by the edit's delta).
            accepted = base.result.accepted
            if build_trees:
                accepted_trees = dict.fromkeys(base.result.trees)
            base_failure = base.result.failure
            if base_failure is not None:
                failure = ParseFailure(
                    base_failure.token_index + delta,
                    base_failure.symbol,
                    base_failure.stacks,
                    base_failure.states,
                )
            for index in range(converged_at + 1, n + 1):
                old_index = index - delta
                if 0 <= old_index < len(base.frontiers):
                    frontiers[index] = base.frontiers[old_index]

        result = ParseResult(
            accepted, tuple(accepted_trees), stats, failure
        )
        outcome = IncrementalOutcome(
            result,
            sentence,
            frontiers,
            build_trees,
            forest,
            self.grammar.revision if self.grammar is not None else 0,
            self.epoch,
            self,
        )
        # ``stopped_at``: the boundary the sweeps actually reached (the
        # convergence point, the death site, or the end) — parse/reparse
        # turn it into the user-facing ``parsed_tokens`` count.
        outcome.reuse = {
            "converged_at": converged_at,
            "stopped_at": min(position, n),
        }
        return outcome

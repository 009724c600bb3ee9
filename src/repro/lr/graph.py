"""The graph of item sets: CLOSURE and EXPAND (section 4).

This module is shared verbatim by all three generators of the paper:

* the conventional generator **PG** (section 4) expands every state before
  parsing starts,
* the lazy generator (section 5) expands states from inside ``ACTION``,
* the incremental generator (section 6) additionally un-expands states via
  ``MODIFY`` and lets the lazy machinery re-expand them.

Determinism: closures are produced in a stable order (sorted kernel, then
breadth-first discovery with sorted rule lists), and ``EXPAND`` creates
successor states in first-occurrence order of the symbol after the dot.
Together with a FIFO expansion queue in PG this reproduces the exact state
numbering of the paper's Fig. 4.1 — which the test suite checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import END, NonTerminal, Symbol
from .items import Item, Kernel, kernel_of, sorted_items
from .states import ACCEPT, ItemSet, StateType


class GraphStats:
    """Counters the benchmarks and the committed ``BENCH_*.json`` report on.

    ``expansions`` counts every EXPAND call (including re-expansions after
    a grammar modification); ``states_created`` counts item sets ever
    allocated; ``states_removed`` counts garbage-collected ones.
    """

    __slots__ = ("expansions", "states_created", "states_removed", "closure_items")

    def __init__(self) -> None:
        self.expansions = 0
        self.states_created = 0
        self.states_removed = 0
        self.closure_items = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "expansions": self.expansions,
            "states_created": self.states_created,
            "states_removed": self.states_removed,
            "closure_items": self.closure_items,
        }

    def __repr__(self) -> str:
        return f"GraphStats({self.snapshot()})"


class ItemSetGraph:
    """Holds the paper's global variables ``Itemsets`` and ``Grammar``.

    Section 5.1: *"The implementation of the lazy parser generator has to
    treat variables Itemsets and Grammar of GENERATE-PARSER as global
    variables, because they are needed during the expansion of sets of
    items."*  Here they are instance state instead, so several independent
    parsers can coexist.
    """

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self._by_kernel: Dict[Kernel, ItemSet] = {}
        self._states: Dict[int, ItemSet] = {}
        self._next_uid = 0
        self.stats = GraphStats()
        self.start = self._create_state(self._start_kernel())
        # The start state is pinned: the root of the graph is never garbage.
        self.start.refcount += 1

    # -- kernel bookkeeping ---------------------------------------------

    def _start_kernel(self) -> Kernel:
        """Kernel of the start state: all START rules with the dot in front.

        GENERATE-PARSER: *"The kernel field of start-itemset is composed of
        all rules in Grammar with START as left-hand side, with the dot
        placed before the first symbol of the right-hand side."*
        """
        return kernel_of(
            Item(rule, 0) for rule in self.grammar.start_rules()
        )

    def refresh_start_kernel(self) -> None:
        """Re-derive the start kernel after a START-rule modification.

        MODIFY's special case: when the modified rule defines ``START``,
        only the start state can contain ``START ::= .beta`` in its kernel,
        so its kernel is updated in place and the state is made initial.
        """
        new_kernel = self._start_kernel()
        if new_kernel == self.start.kernel:
            return
        del self._by_kernel[self.start.kernel]
        self.start.kernel = new_kernel
        self._by_kernel[new_kernel] = self.start

    # -- state access ------------------------------------------------------

    def states(self) -> Tuple[ItemSet, ...]:
        """All live item sets, in creation order (the paper's Itemsets)."""
        return tuple(self._states[uid] for uid in sorted(self._states))

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, itemset: ItemSet) -> bool:
        return self._states.get(itemset.uid) is itemset

    def state_by_kernel(self, kernel: Kernel) -> Optional[ItemSet]:
        return self._by_kernel.get(kernel)

    def complete_states(self) -> Tuple[ItemSet, ...]:
        return tuple(s for s in self.states() if s.is_complete)

    def pending_states(self) -> Tuple[ItemSet, ...]:
        """States with type initial or dirty (awaiting (re-)expansion)."""
        return tuple(s for s in self.states() if s.needs_expansion)

    def _create_state(self, kernel: Kernel) -> ItemSet:
        existing = self._by_kernel.get(kernel)
        if existing is not None:
            raise ValueError(f"state with this kernel already exists: {existing!r}")
        state = ItemSet(self._next_uid, kernel)
        self._next_uid += 1
        self._states[state.uid] = state
        self._by_kernel[kernel] = state
        self.stats.states_created += 1
        return state

    def remove_state(self, itemset: ItemSet) -> None:
        """Drop a state from Itemsets (used by the garbage collector)."""
        if itemset is self.start:
            raise ValueError("the start state is pinned and cannot be removed")
        self._states.pop(itemset.uid, None)
        if self._by_kernel.get(itemset.kernel) is itemset:
            del self._by_kernel[itemset.kernel]
        self.stats.states_removed += 1

    # -- CLOSURE (section 4) ---------------------------------------------

    def closure(self, kernel: Iterable[Item]) -> Tuple[Item, ...]:
        """Extend ``kernel`` with all rules that may become applicable.

        *"If there is a rule A ::= alpha . B beta in the kernel it means
        that non-terminal B may become applicable.  Hence, the kernel can be
        extended with all rules B ::= .gamma."*

        Returns the closure as an ordered tuple: sorted kernel items first,
        then discovered items in breadth-first order.  The order is what
        downstream state numbering inherits.
        """
        ordered: List[Item] = list(sorted_items(kernel))
        seen: Set[Item] = set(ordered)
        queue_index = 0
        while queue_index < len(ordered):
            item = ordered[queue_index]
            queue_index += 1
            symbol = item.next_symbol
            if not isinstance(symbol, NonTerminal):
                continue
            for rule in self.grammar.rules_for(symbol):
                fresh = Item(rule, 0)
                if fresh not in seen:
                    seen.add(fresh)
                    ordered.append(fresh)
        self.stats.closure_items += len(ordered)
        return tuple(ordered)

    # -- EXPAND (section 4) ------------------------------------------------

    def expand(self, itemset: ItemSet) -> None:
        """Transform an initial (or dirty) set of items into a complete one.

        Follows EXPAND of section 4 exactly: compute the closure, partition
        it by the symbol after the dot, link (or create) the successor
        state for each partition, then derive reductions (and the accept
        transition) from items with the dot at the end.

        Reference counts of link targets are incremented here, as section
        6.2 prescribes ("Routine EXPAND sets and increments the refcount
        fields of the sets of items it creates transitions to").  Dirty
        states are *not* special-cased here — RE-EXPAND in
        :mod:`repro.core.gc` wraps this routine and settles the old
        transitions afterwards.
        """
        closure_items = self.closure(itemset.kernel)

        by_symbol: Dict[Symbol, List[Item]] = {}
        symbol_order: List[Symbol] = []
        completed: List[Item] = []
        for item in closure_items:
            symbol = item.next_symbol
            if symbol is None:
                completed.append(item)
                continue
            bucket = by_symbol.get(symbol)
            if bucket is None:
                by_symbol[symbol] = [item]
                symbol_order.append(symbol)
            else:
                bucket.append(item)

        itemset.transitions = {}
        reductions: List[Rule] = []

        for symbol in symbol_order:
            advanced = kernel_of(item.advanced() for item in by_symbol[symbol])
            target = self._by_kernel.get(advanced)
            if target is None:
                target = self._create_state(advanced)
            itemset.transitions[symbol] = target
            target.refcount += 1

        for item in completed:
            if item.rule.lhs == self.grammar.start:
                itemset.transitions[END] = ACCEPT
            elif item.rule not in reductions:
                reductions.append(item.rule)

        itemset.reductions = tuple(reductions)
        itemset.type = StateType.COMPLETE
        self.stats.expansions += 1

    # -- whole-graph helpers ---------------------------------------------

    def expand_all(self) -> None:
        """Expand until no initial states remain (PG's generation loop).

        A FIFO queue over creation order gives the breadth-first numbering
        of the paper's figures.
        """
        from collections import deque

        queue = deque(s for s in self.states() if s.needs_expansion)
        while queue:
            state = queue.popleft()
            if state.uid not in self._states or not state.needs_expansion:
                continue
            before = self._next_uid
            self.expand(state)
            queue.extend(
                self._states[uid] for uid in range(before, self._next_uid)
            )

    def fraction_complete(self) -> float:
        """Fraction of live states that are complete (the §5.2 metric)."""
        total = len(self._states)
        if not total:
            return 0.0
        done = sum(1 for s in self._states.values() if s.is_complete)
        return done / total

    def validate(self) -> None:
        """Internal consistency checks (used by tests, not hot paths)."""
        for state in self._states.values():
            assert self._by_kernel.get(state.kernel) is state, (
                f"kernel index out of sync for {state!r}"
            )
            if state.is_complete:
                for symbol, target in state.transitions.items():
                    if target is ACCEPT:
                        assert symbol == END
                        continue
                    assert isinstance(target, ItemSet)
                    assert target.uid in self._states, (
                        f"{state!r} points at removed state {target!r}"
                    )

    def to_dot(self) -> str:
        """Graphviz rendering of the current graph (debugging aid)."""
        lines = ["digraph itemsets {", "  node [shape=box, fontname=monospace];"]
        for state in self.states():
            shape = "filled" if state.is_complete else "dashed"
            label = "\\l".join(str(i) for i in state.kernel_items()) + "\\l"
            lines.append(
                f'  s{state.uid} [label="{state.uid}\\n{label}", style={shape}];'
            )
            for symbol, target in state.transitions.items():
                if target is ACCEPT:
                    lines.append(
                        f'  s{state.uid} -> accept [label="{symbol}"];'
                    )
                else:
                    lines.append(
                        f'  s{state.uid} -> s{target.uid} [label="{symbol}"];'
                    )
        lines.append("}")
        return "\n".join(lines)

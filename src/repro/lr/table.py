"""Tabular ACTION/GOTO parse tables — Fig. 4.1(b) of the paper.

*"The parse table in Fig 4.1(b) is a tabular representation of the graph of
item sets of Fig 4.1(c)."*  The graph-driven generators never use this form
(they need the kernels at parse time), but the Yacc baseline of section 7
does: a :class:`ParseTable` is a frozen, kernel-free rendering of a fully
expanded automaton, with per-lookahead reduce actions for SLR(1)/LALR(1).

A :class:`TableControl` adapts a table to the same ``start_state`` /
``action`` / ``goto`` interface the graph controls expose, so every parsing
runtime in :mod:`repro.runtime` can run off either representation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..grammar.rules import Rule
from ..grammar.symbols import END, NonTerminal, Terminal
from .actions import ACCEPT_ACTION, Action, ActionSet, Reduce, Shift
from .compiled import Step, encode_step
from .conflicts import Conflict
from .graph import ItemSetGraph
from .states import ACCEPT, ItemSet


class TableRow:
    """One parser state in tabular form."""

    __slots__ = ("shifts", "gotos", "reduces", "accepts")

    def __init__(self) -> None:
        #: terminal -> target state index
        self.shifts: Dict[Terminal, int] = {}
        #: non-terminal -> target state index
        self.gotos: Dict[NonTerminal, int] = {}
        #: (rule, lookaheads); ``None`` lookaheads = reduce on *every*
        #: terminal (the LR(0) convention of Fig. 4.1(b)).
        self.reduces: List[Tuple[Rule, Optional[FrozenSet[Terminal]]]] = []
        #: accept on the end-marker
        self.accepts: bool = False


class ParseTable:
    """An immutable ACTION/GOTO table plus conflict metadata."""

    def __init__(
        self,
        rows: Sequence[TableRow],
        start: int,
        terminals: Sequence[Terminal],
        nonterminals: Sequence[NonTerminal],
        rule_numbers: Optional[Dict[Rule, int]] = None,
    ) -> None:
        self._rows = tuple(rows)
        self.start = start
        self.terminals = tuple(terminals)
        self.nonterminals = tuple(nonterminals)
        self.rule_numbers = dict(rule_numbers or {})
        self._conflicts: Optional[Tuple[Conflict, ...]] = None
        self._dense: Optional["DenseTable"] = None

    # -- the ACTION / GOTO functions -----------------------------------

    def action(self, state: int, symbol: Terminal) -> ActionSet:
        row = self._rows[state]
        actions: List[Action] = [
            Reduce(rule)
            for rule, lookaheads in row.reduces
            if lookaheads is None or symbol in lookaheads
        ]
        if symbol == END and row.accepts:
            actions.append(ACCEPT_ACTION)
        target = row.shifts.get(symbol)
        if target is not None:
            actions.append(Shift(target))
        return tuple(actions)

    def goto(self, state: int, symbol: NonTerminal) -> int:
        target = self._rows[state].gotos.get(symbol)
        if target is None:
            raise LookupError(f"no GOTO on {symbol} from state {state}")
        return target

    # -- inspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def conflicts(self) -> Tuple[Conflict, ...]:
        """Every multi-action (state, terminal) cell.

        The end-marker column is included: an accept can clash with a
        reduce on ``$`` (e.g. for cyclic grammars), and such a cell is a
        conflict like any other.

        The table is immutable, so the state × terminal scan runs once and
        the result is cached — repeated ``is_deterministic`` probes (the
        Yacc baseline, ``resolve_conflicts``) would otherwise re-scan the
        full grid on every call.
        """
        if self._conflicts is not None:
            return self._conflicts
        found: List[Conflict] = []
        columns = list(self.terminals)
        if END not in columns:
            columns.append(END)
        for index in range(len(self._rows)):
            for terminal in columns:
                actions = self.action(index, terminal)
                if len(actions) > 1:
                    found.append(Conflict(index, terminal, actions))
        self._conflicts = tuple(found)
        return self._conflicts

    @property
    def is_deterministic(self) -> bool:
        return not self.conflicts()

    def dense(self) -> "DenseTable":
        """The dense integer-indexed form of this table (built once)."""
        if self._dense is None:
            self._dense = DenseTable(self)
        return self._dense

    def cell_count(self) -> int:
        """Number of populated ACTION/GOTO cells (a size metric)."""
        total = 0
        for row in self._rows:
            total += len(row.shifts) + len(row.gotos) + len(row.reduces)
            total += 1 if row.accepts else 0
        return total

    # -- rendering (Fig. 4.1(b) style) -------------------------------------

    def render(self) -> str:
        """ASCII table in the layout of the paper's Fig. 4.1(b)."""
        terminals = list(self.terminals)
        if END not in terminals:
            terminals.append(END)
        headers = (
            ["state"]
            + [t.name for t in terminals]
            + [nt.name for nt in self.nonterminals]
        )
        table: List[List[str]] = [headers]
        for index, row in enumerate(self._rows):
            cells = [str(index)]
            for terminal in terminals:
                entries: List[str] = []
                for rule, lookaheads in row.reduces:
                    if lookaheads is None or terminal in lookaheads:
                        number = self.rule_numbers.get(rule)
                        entries.append(f"r{number}" if number is not None else "r?")
                if terminal == END and row.accepts:
                    entries.append("acc")
                if terminal in row.shifts:
                    entries.append(f"s{row.shifts[terminal]}")
                cells.append("/".join(entries))
            for nonterminal in self.nonterminals:
                target = row.gotos.get(nonterminal)
                cells.append("" if target is None else str(target))
            table.append(cells)
        widths = [
            max(len(line[col]) for line in table) for col in range(len(headers))
        ]
        rendered = [
            "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(line)).rstrip()
            for line in table
        ]
        return "\n".join(rendered)


class DenseTable:
    """Dense integer-indexed rendering of a :class:`ParseTable`.

    Symbols are interned to column indices once; every ACTION cell becomes
    an integer index (packed into a flat per-state row) into a pool of
    pre-built, shared action tuples, and every GOTO cell an interned state
    number.  A lookup is then two list indexings plus one dict probe for
    the symbol's column — no per-call allocation at all.

    State numbers are *interned int objects* (``_state_objects``): the
    pool parser's duplicate elision keys on state identity, so every
    occurrence of state ``n`` — shift target, goto target, start state —
    must be the same object even where CPython does not cache the int.
    """

    __slots__ = (
        "table",
        "step_cache",
        "_term_index",
        "_nt_index",
        "_state_objects",
        "_pool",
        "_action_rows",
        "_default_actions",
        "_goto_rows",
    )

    def __init__(self, table: ParseTable) -> None:
        self.table = table
        columns: List[Terminal] = list(table.terminals)
        if END not in columns:
            columns.append(END)
        self._term_index: Dict[Terminal, int] = {
            t: i for i, t in enumerate(columns)
        }
        self._nt_index: Dict[NonTerminal, int] = {
            nt: i for i, nt in enumerate(table.nonterminals)
        }
        self._state_objects: List[int] = [int(n) for n in range(len(table))]

        # ACTION: rows of pool indices; equal cells share one tuple, and
        # the step pool mirrors it so equal cells also share one
        # pre-decoded step (encode once per distinct cell, not per grid
        # position).
        pool: List[ActionSet] = [()]
        pool_index: Dict[ActionSet, int] = {(): 0}
        step_pool: List[Step] = [encode_step(())]
        self._pool = pool
        self._action_rows: List[List[int]] = []
        # Unknown terminals (input tokens outside the grammar) still reduce
        # on LR(0)-style "reduce on everything" entries; one shared default
        # tuple per state mirrors ParseTable.action for that case.
        self._default_actions: List[ActionSet] = []
        self._goto_rows: List[List[Optional[int]]] = []
        #: state -> {terminal -> pre-decoded step} for the runtime fast
        #: path (the step-cache protocol of :mod:`repro.lr.compiled`);
        #: keyed by the interned state ints, built once alongside the
        #: dense rows.  Tables are immutable, so it never invalidates.
        self.step_cache: Dict[int, Dict[Terminal, Step]] = {}

        for state in range(len(table)):
            action_row: List[int] = []
            steps: Dict[Terminal, Step] = {}
            for terminal in columns:
                actions = self._reintern(table.action(state, terminal))
                index = pool_index.get(actions)
                if index is None:
                    index = len(pool)
                    pool.append(actions)
                    pool_index[actions] = index
                    step_pool.append(encode_step(actions))
                action_row.append(index)
                steps[terminal] = step_pool[index]
            self._action_rows.append(action_row)
            self.step_cache[self._state_objects[state]] = steps

            row = table._rows[state]
            defaults = tuple(
                Reduce(rule) for rule, lookaheads in row.reduces if lookaheads is None
            )
            default_index = pool_index.get(defaults)
            if default_index is None:
                default_index = len(pool)
                pool.append(defaults)
                pool_index[defaults] = default_index
                step_pool.append(encode_step(defaults))
            self._default_actions.append(pool[default_index])

            goto_row: List[Optional[int]] = [None] * len(self._nt_index)
            for nonterminal, target in row.gotos.items():
                goto_row[self._nt_index[nonterminal]] = self._state_objects[target]
            self._goto_rows.append(goto_row)

    def _reintern(self, actions: ActionSet) -> ActionSet:
        """Rebuild shift actions so their targets are interned state ints."""
        rebuilt: List[Action] = []
        changed = False
        for action in actions:
            if isinstance(action, Shift):
                interned = self._state_objects[action.target]
                if interned is not action.target:
                    action = Shift(interned)
                    changed = True
            rebuilt.append(action)
        return tuple(rebuilt) if changed else actions

    # -- the ACTION / GOTO fast path -----------------------------------

    @property
    def start_state(self) -> int:
        return self._state_objects[self.table.start]

    def action(self, state: int, symbol: Terminal) -> ActionSet:
        index = self._term_index.get(symbol)
        if index is None:
            return self._default_actions[state]
        return self._pool[self._action_rows[state][index]]

    def goto(self, state: int, symbol: NonTerminal) -> int:
        index = self._nt_index.get(symbol)
        target = self._goto_rows[state][index] if index is not None else None
        if target is None:
            raise LookupError(f"no GOTO on {symbol} from state {state}")
        return target

    def __len__(self) -> int:
        return len(self._action_rows)

    def pool_size(self) -> int:
        """Distinct action tuples backing the whole grid (a sharing metric)."""
        return len(self._pool)


class TableControl:
    """Adapter: run the parsing runtimes off a :class:`ParseTable`.

    States are plain integers here — the kernel-free representation the
    paper says conventional LR parsers use ("only the ACTION and GOTO
    information was needed during parsing", section 5.3).  Lookups are
    served from the table's :class:`DenseTable` form (built once, cached
    on the table), so the Yacc baseline and the ``dense`` engine both run
    on packed integer rows.
    """

    def __init__(self, table: ParseTable) -> None:
        self.table = table
        self._dense = table.dense()
        #: Step-cache protocol (see :mod:`repro.lr.compiled`): lets the
        #: pool parser's deterministic stretch dispatch on pre-decoded
        #: cells without per-step action-object inspection.
        self.fast_step_cache = self._dense.step_cache

    @property
    def start_state(self) -> int:
        return self._dense.start_state

    def action(self, state: int, symbol: Terminal) -> ActionSet:
        return self._dense.action(state, symbol)

    def goto(self, state: int, symbol: NonTerminal) -> int:
        return self._dense.goto(state, symbol)


def resolve_conflicts(table: ParseTable) -> Tuple[ParseTable, Tuple[Conflict, ...]]:
    """Determinize a table the way Yacc does; returns (table, conflicts).

    Yacc's default conflict resolution: a shift beats a reduce
    (shift/reduce), and among several reduces the rule declared first wins
    (reduce/reduce).  Accept beats a reduce on the end-marker.  The
    returned conflict list is what Yacc would print as its
    ``n shift/reduce, m reduce/reduce`` summary.

    The parallel parser never needs this — it forks on conflicts — but the
    deterministic LR-PARSE of the Yacc baseline does.
    """
    conflicts = table.conflicts()
    if not conflicts:
        return table, ()

    all_terminals = set(table.terminals)
    all_terminals.add(END)

    def rule_priority(entry) -> int:
        rule, _lookaheads = entry
        return table.rule_numbers.get(rule, 1 << 30)

    new_rows: List[TableRow] = []
    for index in range(len(table)):
        old = table._rows[index]
        row = TableRow()
        row.shifts = dict(old.shifts)
        row.gotos = dict(old.gotos)
        row.accepts = old.accepts
        claimed: set = set(row.shifts)
        if row.accepts:
            claimed.add(END)
        for rule, lookaheads in sorted(old.reduces, key=rule_priority):
            effective = all_terminals if lookaheads is None else set(lookaheads)
            keep = frozenset(effective - claimed)
            claimed |= keep
            if keep:
                row.reduces.append((rule, keep))
        new_rows.append(row)

    resolved = ParseTable(
        new_rows,
        start=table.start,
        terminals=table.terminals,
        nonterminals=table.nonterminals,
        rule_numbers=table.rule_numbers,
    )
    return resolved, conflicts


def _index_graph(graph: ItemSetGraph) -> Tuple[Dict[int, int], Tuple[ItemSet, ...]]:
    states = graph.states()
    mapping = {state.uid: index for index, state in enumerate(states)}
    return mapping, states


def lr0_table(graph: ItemSetGraph) -> ParseTable:
    """Flatten a fully expanded graph into an LR(0) table.

    Reduce actions carry no lookahead restriction: as in Fig. 4.1(b), a
    state with a reduction reduces on every terminal, yielding the
    characteristic ``s5/r3`` conflict cells the parallel parser forks on.
    """
    for state in graph.states():
        if state.needs_expansion:
            raise ValueError(
                "lr0_table requires a fully expanded graph; "
                f"state #{state.uid} is {state.type.value}"
            )
    mapping, states = _index_graph(graph)
    rows: List[TableRow] = []
    for state in states:
        row = TableRow()
        for symbol, target in state.transitions.items():
            if target is ACCEPT:
                row.accepts = True
            elif isinstance(symbol, Terminal):
                row.shifts[symbol] = mapping[target.uid]
            else:
                row.gotos[symbol] = mapping[target.uid]
        row.reduces = [(rule, None) for rule in state.reductions]
        rows.append(row)
    grammar = graph.grammar
    rule_numbers = {rule: i for i, rule in enumerate(sorted(grammar.rules))}
    return ParseTable(
        rows,
        start=mapping[graph.start.uid],
        terminals=sorted(grammar.terminals),
        nonterminals=sorted(grammar.nonterminals - {grammar.start}),
        rule_numbers=rule_numbers,
    )

"""Tabular ACTION/GOTO parse tables — Fig. 4.1(b) of the paper.

*"The parse table in Fig 4.1(b) is a tabular representation of the graph of
item sets of Fig 4.1(c)."*  The graph-driven generators never use this form
(they need the kernels at parse time), but the Yacc baseline of section 7
does: a :class:`ParseTable` is a frozen, kernel-free rendering of a fully
expanded automaton, with per-lookahead reduce actions for SLR(1)/LALR(1).

A conventional parser needs *"only the ACTION and GOTO information"*
(section 5.3), so the table is itself a parser control: it exposes the
same ``start_state`` / ``action`` / ``goto`` interface as the graph
controls, so the pool parser of :mod:`repro.runtime.parallel` and the
deterministic LR-PARSE of :mod:`repro.runtime.lr_parse` run off it
directly.

:func:`table_from_graph` builds all three table kinds; LR(0), SLR(1) and
LALR(1) differ only in the reduce list each state gets.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..grammar.rules import Rule
from ..grammar.symbols import END, NonTerminal, Terminal
from .actions import ACCEPT_ACTION, Action, ActionSet, Reduce, Shift
from .conflicts import Conflict
from .graph import ItemSetGraph
from .states import ACCEPT, ItemSet

#: A state's reduce actions: ``(rule, lookaheads)`` pairs, where ``None``
#: lookaheads reduce on *every* terminal (the LR(0) convention of
#: Fig. 4.1(b)).
Reduces = List[Tuple[Rule, Optional[FrozenSet[Terminal]]]]


class TableRow:
    """One parser state in tabular form (the input of :class:`ParseTable`)."""

    __slots__ = ("shifts", "gotos", "reduces", "accepts")

    def __init__(self) -> None:
        #: terminal -> target state index
        self.shifts: Dict[Terminal, int] = {}
        #: non-terminal -> target state index
        self.gotos: Dict[NonTerminal, int] = {}
        self.reduces: Reduces = []
        #: accept on the end-marker
        self.accepts: bool = False


class ParseTable:
    """An immutable ACTION/GOTO table that is its own parser control.

    Every ACTION cell is decided once, at construction, into a per-state
    dict of shared action tuples (equal cells are one tuple), so a lookup
    is one list index and one dict probe.  A terminal outside the grammar gets the state's default: its
    lookahead-free reduces.

    State numbers are interned int objects: the pool parser's duplicate
    elision keys on state identity, so every occurrence of state ``n`` —
    shift target, goto target, start state — is the same object even
    where CPython does not cache the int.
    """

    def __init__(
        self,
        rows: Sequence[TableRow],
        start: int,
        terminals: Sequence[Terminal],
        nonterminals: Sequence[NonTerminal],
        rule_numbers: Optional[Dict[Rule, int]] = None,
    ) -> None:
        self.terminals = tuple(terminals)
        self.nonterminals = tuple(nonterminals)
        self.rule_numbers = dict(rule_numbers or {})
        columns = list(self.terminals)
        if END not in columns:
            columns.append(END)
        self._columns = tuple(columns)
        # One int object per state number, shared by every reference.
        states = list(range(len(rows)))
        self.start_state = states[start]

        # Equal cells anywhere in the grid are interned into one tuple.
        shared: Dict[ActionSet, ActionSet] = {}
        self._actions: List[Dict[Terminal, ActionSet]] = []
        self._defaults: List[ActionSet] = []
        self._gotos: List[Dict[NonTerminal, int]] = []
        for row in rows:
            cells: Dict[Terminal, ActionSet] = {}
            for terminal in columns:
                actions: List[Action] = [
                    Reduce(rule)
                    for rule, lookaheads in row.reduces
                    if lookaheads is None or terminal in lookaheads
                ]
                if terminal == END and row.accepts:
                    actions.append(ACCEPT_ACTION)
                target = row.shifts.get(terminal)
                if target is not None:
                    actions.append(Shift(states[target]))
                cell = tuple(actions)
                cells[terminal] = shared.setdefault(cell, cell)
            self._actions.append(cells)
            defaults = tuple(
                Reduce(rule) for rule, lookaheads in row.reduces if lookaheads is None
            )
            self._defaults.append(shared.setdefault(defaults, defaults))
            self._gotos.append(
                {nonterminal: states[target] for nonterminal, target in row.gotos.items()}
            )
        # The end-marker column is included: an accept can clash with a
        # reduce on ``$`` (e.g. for cyclic grammars), and such a cell is a
        # conflict like any other.
        self._conflicts = tuple(
            Conflict(state, terminal, actions)
            for state, cells in zip(states, self._actions)
            for terminal, actions in cells.items()
            if len(actions) > 1
        )

    # -- the ACTION / GOTO functions -----------------------------------

    def action(self, state: int, symbol: Terminal) -> ActionSet:
        cell = self._actions[state].get(symbol)
        return self._defaults[state] if cell is None else cell

    def goto(self, state: int, symbol: NonTerminal) -> int:
        target = self._gotos[state].get(symbol)
        if target is None:
            raise LookupError(f"no GOTO on {symbol} from state {state}")
        return target

    # -- inspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._actions)

    def conflicts(self) -> Tuple[Conflict, ...]:
        """Every multi-action (state, terminal) cell, state by state."""
        return self._conflicts

    @property
    def is_deterministic(self) -> bool:
        return not self._conflicts

    def cell_count(self) -> int:
        """Number of populated ACTION/GOTO cells (a size metric)."""
        populated = sum(1 for cells in self._actions for cell in cells.values() if cell)
        return populated + sum(len(gotos) for gotos in self._gotos)

    # -- rendering (Fig. 4.1(b) style) -------------------------------------

    def _label(self, action: Action) -> str:
        if isinstance(action, Shift):
            return f"s{action.target}"
        if isinstance(action, Reduce):
            number = self.rule_numbers.get(action.rule)
            return f"r{number}" if number is not None else "r?"
        return "acc"

    def render(self) -> str:
        """ASCII table in the layout of the paper's Fig. 4.1(b)."""
        headers = (
            ["state"]
            + [t.name for t in self._columns]
            + [nt.name for nt in self.nonterminals]
        )
        table: List[List[str]] = [headers]
        for state, cells in enumerate(self._actions):
            line = [str(state)]
            line += ["/".join(map(self._label, cell)) for cell in cells.values()]
            line += [str(self._gotos[state].get(nt, "")) for nt in self.nonterminals]
            table.append(line)
        widths = [
            max(len(line[col]) for line in table) for col in range(len(headers))
        ]
        rendered = [
            "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(line)).rstrip()
            for line in table
        ]
        return "\n".join(rendered)


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

    def rule_priority(action: Reduce) -> int:
        return table.rule_numbers.get(action.rule, 1 << 30)

    rows: List[TableRow] = []
    for cells, gotos in zip(table._actions, table._gotos):
        row = TableRow()
        row.gotos = dict(gotos)
        lookaheads: Dict[Rule, Set[Terminal]] = {}
        for terminal, actions in cells.items():
            kept = [a for a in actions if not isinstance(a, Reduce)]
            for action in kept or sorted(actions, key=rule_priority)[:1]:
                if isinstance(action, Shift):
                    row.shifts[terminal] = action.target
                elif isinstance(action, Reduce):
                    lookaheads.setdefault(action.rule, set()).add(terminal)
                else:
                    row.accepts = True
        row.reduces = [(rule, frozenset(las)) for rule, las in lookaheads.items()]
        rows.append(row)

    resolved = ParseTable(
        rows,
        start=table.start_state,
        terminals=table.terminals,
        nonterminals=table.nonterminals,
        rule_numbers=table.rule_numbers,
    )
    return resolved, conflicts


def table_from_graph(
    graph: ItemSetGraph, reduces: Callable[[ItemSet], Reduces]
) -> ParseTable:
    """Flatten a fully expanded graph into a table.

    Shifts, gotos and the accept come from the graph's transitions; the
    only part that differs between LR(0), SLR(1) and LALR(1) is the reduce
    list ``reduces(state)`` each state gets.
    """
    states = graph.states()
    for state in states:
        if state.needs_expansion:
            raise ValueError(
                "a parse table requires a fully expanded graph; "
                f"state #{state.uid} is {state.type.value}"
            )
    index = {state.uid: number for number, state in enumerate(states)}
    rows: List[TableRow] = []
    for state in states:
        row = TableRow()
        for symbol, target in state.transitions.items():
            if target is ACCEPT:
                row.accepts = True
            elif isinstance(symbol, Terminal):
                row.shifts[symbol] = index[target.uid]
            else:
                row.gotos[symbol] = index[target.uid]
        row.reduces = reduces(state)
        rows.append(row)
    grammar = graph.grammar
    return ParseTable(
        rows,
        start=index[graph.start.uid],
        terminals=sorted(grammar.terminals),
        nonterminals=sorted(grammar.nonterminals - {grammar.start}),
        rule_numbers={rule: i for i, rule in enumerate(sorted(grammar.rules))},
    )


def lr0_table(graph: ItemSetGraph) -> ParseTable:
    """Flatten a fully expanded graph into an LR(0) table.

    Reduce actions carry no lookahead restriction: as in Fig. 4.1(b), a
    state with a reduction reduces on every terminal, yielding the
    characteristic ``s5/r3`` conflict cells the parallel parser forks on.
    """
    return table_from_graph(graph, lambda state: [(rule, None) for rule in state.reductions])

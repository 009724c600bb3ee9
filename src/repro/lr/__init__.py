"""LR substrate: items, item sets, the graph of item sets, and generators.

* :mod:`repro.lr.graph` — CLOSURE/EXPAND and the graph object (section 4).
* :mod:`repro.lr.generator` — the conventional generator PG plus the
  graph-backed ACTION/GOTO control.
* :mod:`repro.lr.table` — tabular parse tables (Fig. 4.1(b)), each its own
  parser control, built for every table kind by ``table_from_graph``.
* :mod:`repro.lr.slr` / :mod:`repro.lr.lalr` — SLR(1) and LALR(1)
  constructions (the Yacc baseline of section 7).
"""

from .actions import ACCEPT_ACTION, Accept, Action, ActionSet, Reduce, Shift
from .compiled import CompiledControl, CompiledStats
from .conflicts import Conflict, report
from .generator import ConventionalGenerator, GotoOnNonCompleteState, GraphControl
from .graph import GraphStats, ItemSetGraph
from .items import Item, Kernel, kernel_of, sorted_items
from .lalr import compute_lalr_lookaheads, lalr_table, lalr_table_from_graph
from .slr import slr_table, slr_table_from_graph
from .states import ACCEPT, ItemSet, StateType
from .table import ParseTable, TableRow, lr0_table, resolve_conflicts, table_from_graph

__all__ = [
    "ACCEPT",
    "ACCEPT_ACTION",
    "Accept",
    "Action",
    "ActionSet",
    "CompiledControl",
    "CompiledStats",
    "Conflict",
    "ConventionalGenerator",
    "GotoOnNonCompleteState",
    "GraphControl",
    "GraphStats",
    "Item",
    "ItemSet",
    "ItemSetGraph",
    "Kernel",
    "ParseTable",
    "Reduce",
    "Shift",
    "StateType",
    "TableRow",
    "compute_lalr_lookaheads",
    "kernel_of",
    "lalr_table",
    "lalr_table_from_graph",
    "lr0_table",
    "resolve_conflicts",
    "report",
    "slr_table",
    "slr_table_from_graph",
    "sorted_items",
    "table_from_graph",
]

"""Parsing runtimes: the grammar-independent halves of Fig. 2.2(c).

All engines are parameterized by a *control* object exposing
``start_state``, ``action(state, terminal)`` and ``goto(state,
nonterminal)`` — a graph-backed control (conventional or lazy) or a
table-backed one plug in interchangeably.
"""

from .disambiguation import DisambiguationFilter
from .errors import AmbiguousInputError, ParseError, SweepLimitExceeded
from .forest import (
    Forest,
    Leaf,
    ParseNode,
    TreeNode,
    bracketed,
    depth,
    node_count,
    pretty,
    tokens_of,
)
from .gss import GSSNode, GSSParser
from .incremental import Edit, IncrementalOutcome
from .lr_parse import DetParseResult, SimpleLRParser, recover_start_trees
from .parallel import ParseResult, ParseStats, PoolParser
from .stacks import StackCell, shared_cells
from .trace import Trace, TraceEvent

__all__ = [
    "AmbiguousInputError",
    "DetParseResult",
    "DisambiguationFilter",
    "Edit",
    "Forest",
    "GSSNode",
    "GSSParser",
    "IncrementalOutcome",
    "Leaf",
    "ParseError",
    "ParseNode",
    "ParseResult",
    "ParseStats",
    "PoolParser",
    "SimpleLRParser",
    "StackCell",
    "SweepLimitExceeded",
    "Trace",
    "TraceEvent",
    "TreeNode",
    "bracketed",
    "depth",
    "node_count",
    "pretty",
    "recover_start_trees",
    "shared_cells",
    "tokens_of",
]

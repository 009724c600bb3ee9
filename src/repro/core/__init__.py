"""The paper's contribution: lazy + incremental parser generation with GC."""

from .gc import GarbageCollector, GCStats
from .incremental import IncrementalGenerator
from .lazy import LazyControl, LazyGenerator
from .metrics import (
    AppendixAViolation,
    ControlProbe,
    graph_summary,
    table_fraction,
)

__all__ = [
    "AppendixAViolation",
    "ControlProbe",
    "GCStats",
    "GarbageCollector",
    "IncrementalGenerator",
    "LazyControl",
    "LazyGenerator",
    "graph_summary",
    "table_fraction",
]

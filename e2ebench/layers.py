"""Per-layer timing from outside the program: timers around the public
entry points of each layer, installed by the benchmark for a traced run.

A layer's *self time* is its span minus the spans of the calls it made
into other wrapped layers, so the self times of all layers plus the
untraced residual (the benchmark's own loop) add up to the wall time of
the traced phase.  The wrappers are removed when the tracer closes.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.diagnostics import ParseOutcome
from repro.api.engines import Engine
from repro.api.language import Language
from repro.core.incremental import IncrementalGenerator
from repro.corpus.manager import CorpusManager
from repro.runtime.forest import ParseForest
from repro.service.cache import ResultCache
from repro.service.dispatcher import Dispatcher
from repro.service.workspace import Workspace

from stats import percentile

Observe = Callable[["Layer", Tuple[Any, ...], Any], None]


class Layer:
    """Calls, self seconds, per-call (inclusive) durations, counts."""

    __slots__ = ("name", "calls", "self_time", "durations", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.self_time = 0.0
        self.durations: List[float] = []
        self.counts: Dict[str, float] = {}

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def p_us(self, q: float) -> float:
        return percentile(self.durations, q) * 1e6 if self.durations else 0.0


def _count_tokens(layer: Layer, args: Tuple[Any, ...], result: Any) -> None:
    layer.count("tokens", len(result))


def _count_engine(layer: Layer, args: Tuple[Any, ...], result: Any) -> None:
    layer.count("tokens", len(args[1]))
    for key, value in (result.stats or {}).items():
        if key in ("shifts", "reduces", "forks", "sweeps"):
            layer.count(key, value)


def _count_reuse(layer: Layer, args: Tuple[Any, ...], result: Any) -> None:
    reuse = result.reuse or {}
    layer.count("total_tokens", reuse.get("total_tokens") or 0)
    layer.count("reused_prefix", reuse.get("reused_prefix") or 0)
    layer.count("parsed_tokens", reuse.get("parsed_tokens") or 0)
    if reuse.get("converged_at") is not None:
        layer.count("converged")


def _count_render(layer: Layer, args: Tuple[Any, ...], result: Any) -> None:
    layer.count("trees", len(result))
    layer.count("chars", sum(len(tree) for tree in result))


def _engine_methods() -> List[Tuple[type, str]]:
    """Every (class, method) pair that implements an engine's parse,
    recognize or checkpointed parse, each exactly once."""
    classes, pending = [], [Engine]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    found = []
    for cls in classes:
        for owner in cls.__mro__:
            for method in ("parse", "recognize", "parse_incremental"):
                if method in vars(owner) and (owner, method) not in found:
                    found.append((owner, method))
    return found


#: (owner, attribute, layer, observer) for every wrapped entry point.
ENTRY_POINTS: List[Tuple[Any, str, str, Optional[Observe]]] = [
    (Dispatcher, "handle", "dispatch", None),
    (Workspace, "parse", "workspace", None),
    (Workspace, "recognize", "workspace", None),
    (Workspace, "edit_parse", "workspace", None),
    (ResultCache, "get", "cache.get", None),
    (ResultCache, "put", "cache.put", None),
    (Language, "lex", "lex", _count_tokens),
    (Language, "parse_lexed", "language", None),
    (Language, "reparse", "reparse", _count_reuse),
    (IncrementalGenerator, "add_rule", "modify", None),
    (IncrementalGenerator, "delete_rule", "modify", None),
    (ParseOutcome, "to_payload", "payload", None),
    (ParseForest, "tree_count", "forest.count", None),
    (ParseForest, "brackets", "render", _count_render),
    (json, "dumps", "json.encode", None),
    (CorpusManager, "ingest", "corpus.ingest", None),
    (CorpusManager, "parse", "corpus.parse", None),
    (CorpusManager, "query", "corpus.query", None),
]


class LayerTracer:
    """Installs the wrappers on enter and removes them on exit.

    Single-threaded by design: the traced phase drives an in-process
    dispatcher from one thread, so one span stack suffices.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        self.covered = 0.0  # seconds inside top-level spans
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer(name)
        return layer

    def _wrap(self, owner: Any, attr: str, name: str,
              observe: Optional[Observe]) -> None:
        original = getattr(owner, attr)
        layer = self.layer(name)
        stack = self._stack
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.covered += elapsed
                layer.calls += 1
                layer.self_time += elapsed - frame[0]
                layer.durations.append(elapsed)
            if observe is not None:
                observe(layer, args, result)
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "LayerTracer":
        for owner, attr, name, observe in ENTRY_POINTS:
            self._wrap(owner, attr, name, observe)
        for owner, attr in _engine_methods():
            self._wrap(owner, attr, "engine", _count_engine)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self, wall: float) -> List[Dict[str, Any]]:
        """Rows ``{layer, share, calls, p50_us, self_s, counts}`` plus the
        untraced residual, largest share first."""
        rows = [
            {
                "layer": layer.name,
                "share": layer.self_time / wall,
                "calls": layer.calls,
                "p50_us": layer.p_us(0.5),
                "self_s": layer.self_time,
                "counts": dict(layer.counts),
            }
            for layer in self.layers.values()
            if layer.calls
        ]
        rows.append({
            "layer": "(untraced residual)",
            "share": (wall - self.covered) / wall,
            "calls": 0,
            "p50_us": 0.0,
            "self_s": wall - self.covered,
            "counts": {},
        })
        return sorted(rows, key=lambda row: -row["share"])

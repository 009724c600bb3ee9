"""The metrics registry: counters, gauges, histograms under dotted names.

One process-global :class:`MetricsRegistry` (see :mod:`repro.obs`)
absorbs the stat islands that grew organically — ``CompiledStats``,
``CacheStats``, ``GraphStats``, ``LatencyStats``, incremental ``reuse``
outcomes — under stable dotted names like
``repro.compiled.action_cache.hits``.

Two feeding styles:

* **Instruments** (:class:`Counter`, :class:`Gauge`, :class:`Histogram`)
  are created once with :meth:`MetricsRegistry.counter` & co. and
  mutated on the hot path; mutation takes one small lock.
* **Collectors** are callables polled only at snapshot time; they read
  existing stat objects (via weak references, so registering an object
  never extends its lifetime) and yield samples.  This is how library
  objects created long after import — ``Language`` instances, a
  ``Workspace`` — surface their private stats without per-event cost.

Snapshots are plain JSON-able dicts, and :meth:`MetricsRegistry.merge`
sums any number of them — the scheduler uses that to combine per-child
registries from process-mode shards into one global view.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "sample_key",
]

#: Latency-shaped bucket upper bounds, in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

LabelsTuple = Tuple[Tuple[str, str], ...]


def sample_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """The canonical string key for a (name, labels) series."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Instrument:
    __slots__ = ("name", "labels", "help", "_lock")

    def __init__(self, name: str, labels: LabelsTuple, help: str, lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = lock

    @property
    def labels_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    @property
    def key(self) -> str:
        return sample_key(self.name, dict(self.labels))


class Counter(_Instrument):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelsTuple, help: str, lock: threading.Lock):
        super().__init__(name, labels, help, lock)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def _sample(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Gauge(_Instrument):
    """A value that can go up and down (sizes, fractions, depths)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelsTuple, help: str, lock: threading.Lock):
        super().__init__(name, labels, help, lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _sample(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self._value}


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus ``le`` convention)."""

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: LabelsTuple,
        help: str,
        lock: threading.Lock,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels, help, lock)
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +inf bucket last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def _sample(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        # non-cumulative per-bucket counts; export.py re-accumulates
        return {
            "type": "histogram",
            "buckets": [list(pair) for pair in zip(self.buckets, counts)],
            "inf": counts[-1],
            "sum": round(total, 9),
            "count": n,
        }


Sample = Tuple[str, Optional[Dict[str, str]], str, float]
Collector = Callable[[], Iterable[Sample]]


class MetricsRegistry:
    """Thread-safe instrument store plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}
        self._collectors: List[Collector] = []
        self._object_collectors: List[Tuple[weakref.ref, Callable[[Any], Iterable[Sample]]]] = []

    # -- instruments -------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labels: Dict[str, str], **kwargs):
        labels_tuple: LabelsTuple = tuple(sorted((k, str(v)) for k, v in labels.items()))
        key = sample_key(name, dict(labels_tuple))
        with self._lock:
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = cls(name, labels_tuple, help, threading.Lock(), **kwargs)
                self._metrics[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {key!r} already registered as {type(instrument).__name__}"
                )
        return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- collectors --------------------------------------------------------

    def register_collector(self, collector: Collector) -> None:
        """Poll ``collector()`` for samples at every snapshot."""
        with self._lock:
            self._collectors.append(collector)

    def register_object_collector(
        self, owner: Any, collector: Callable[[Any], Iterable[Sample]]
    ) -> None:
        """Like :meth:`register_collector`, but weakly tied to ``owner``.

        The collector is called as ``collector(owner)`` while ``owner``
        is alive and silently dropped once it is collected, so stat
        holders (a ``Workspace``, a ``Scheduler``) can self-register in
        ``__init__`` without leaking.
        """
        with self._lock:
            # Sweep dead owners here as well as at snapshot time: a process
            # that never exports metrics would otherwise keep one entry per
            # owner it ever built.  Owners are heavyweight, so the scan over
            # the live ones is noise next to constructing one.
            self._object_collectors = [
                (ref, fn) for ref, fn in self._object_collectors if ref() is not None
            ]
            self._object_collectors.append((weakref.ref(owner), collector))

    def _collected_samples(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            collectors = list(self._collectors)
            object_collectors = list(self._object_collectors)
        samples: Dict[str, Dict[str, Any]] = {}

        def absorb(produced: Iterable[Sample]) -> None:
            for name, labels, kind, value in produced:
                key = sample_key(name, labels)
                entry = samples.get(key)
                if entry is None:
                    samples[key] = {
                        "type": kind,
                        "value": value,
                        "name": name,
                        "labels": dict(labels) if labels else {},
                    }
                else:
                    # several live owners feeding one series: sum them
                    entry["value"] += value

        for collector in collectors:
            absorb(collector())
        dead = False
        for ref, collector in object_collectors:
            owner = ref()
            if owner is None:
                dead = True
                continue
            absorb(collector(owner))
        if dead:
            with self._lock:
                self._object_collectors = [
                    (ref, fn) for ref, fn in self._object_collectors if ref() is not None
                ]
        return samples

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All series as one JSON-able dict keyed by ``name{labels}``."""
        with self._lock:
            instruments = list(self._metrics.values())
        result: Dict[str, Dict[str, Any]] = {}
        for instrument in instruments:
            entry = instrument._sample()
            entry["name"] = instrument.name
            entry["labels"] = instrument.labels_dict
            result[instrument.key] = entry
        for key, entry in self._collected_samples().items():
            existing = result.get(key)
            if existing is None:
                result[key] = entry
            else:
                existing["value"] = existing.get("value", 0) + entry["value"]
        return result

    @staticmethod
    def merge(snapshots: Iterable[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, Any]]:
        """Sum several snapshots (counters/gauges add; histograms add)."""
        merged: Dict[str, Dict[str, Any]] = {}
        for snap in snapshots:
            if not isinstance(snap, dict):
                continue
            for key, entry in snap.items():
                current = merged.get(key)
                if current is None:
                    merged[key] = {
                        k: (list(list(b) for b in v) if k == "buckets" else v)
                        for k, v in entry.items()
                    }
                    continue
                kind = entry.get("type")
                if kind == "histogram":
                    ours = {le: n for le, n in current.get("buckets", [])}
                    for le, n in entry.get("buckets", []):
                        ours[le] = ours.get(le, 0) + n
                    current["buckets"] = [list(pair) for pair in sorted(ours.items())]
                    current["inf"] = current.get("inf", 0) + entry.get("inf", 0)
                    current["sum"] = round(current.get("sum", 0.0) + entry.get("sum", 0.0), 9)
                    current["count"] = current.get("count", 0) + entry.get("count", 0)
                else:
                    current["value"] = current.get("value", 0) + entry.get("value", 0)
        return merged

    def reset(self) -> None:
        """Drop every instrument and collector (tests only)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()
            self._object_collectors.clear()

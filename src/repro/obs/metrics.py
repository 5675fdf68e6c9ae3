"""Process-wide metrics registry: counters, gauges, histograms with labels.

The registry is the shared substrate every subsystem's telemetry lands on
(serving latencies, JIT op timings, parallel worker liveness, experiment
stage costs).  Design constraints, in order:

* **thread-safe** — the serving worker pool, the parallel trainer and the
  experiments thread dispatcher all record concurrently; every child metric
  owns one small lock and updates are plain ``+=`` under it, so a snapshot
  taken mid-traffic is internally consistent per metric;
* **bounded memory** — no metric stores per-event state.  A histogram keeps
  fixed bucket counts, running ``count``/``sum``/``min``/``max`` and a
  fixed-capacity uniform reservoir (Vitter's algorithm R with a
  deterministic per-child stream) for streaming quantile estimation:
  quantiles are *exact* while ``count <= reservoir_size`` and carry sampling
  error beyond (see :meth:`HistogramChild.quantile`);
* **two exporters** — Prometheus text exposition
  (:meth:`MetricsRegistry.render_prometheus`) and a JSON snapshot writable
  into ``$REPRO_BENCH_DIR`` (:meth:`MetricsRegistry.write_json_snapshot`;
  the file is *not* ``BENCH_``-prefixed so the benchmark-regression
  comparator never mistakes it for a bench report).

Metric *families* are registered by name; label sets select children
(``registry.counter("requests_total", labels=("route",)).labels(route="/p")``).
Re-registering a name with a different type or label schema raises
:class:`~repro.exceptions.ObservabilityError` — silent schema drift is how
two subsystems end up publishing incompatible series under one name.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
import zlib
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import ObservabilityError

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "DEFAULT_RESERVOIR_SIZE",
    "CounterChild",
    "GaugeChild",
    "HistogramChild",
    "MetricFamily",
    "MetricsRegistry",
    "get_registry",
    "merge_reservoirs",
    "set_registry",
]

#: Default histogram buckets, tuned for millisecond-scale latencies.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, float("inf"),
)

DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

#: Reservoir capacity: quantiles are exact up to this many observations and
#: uniformly-sampled estimates beyond.  4096 float64 samples = 32 KiB per
#: histogram child, the whole memory story of a collector under any traffic.
DEFAULT_RESERVOIR_SIZE = 4096

TYPE_COUNTER = "counter"
TYPE_GAUGE = "gauge"
TYPE_HISTOGRAM = "histogram"

LabelValues = Tuple[Tuple[str, str], ...]


def _normalise_labels(labelnames: Sequence[str], labels: Dict[str, object]) -> LabelValues:
    if set(labels) != set(labelnames):
        raise ObservabilityError(
            f"label set {sorted(labels)} does not match the registered "
            f"label names {sorted(labelnames)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


def _validate_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
        raise ObservabilityError(
            f"invalid metric name {name!r}: use [a-zA-Z0-9_:] (Prometheus exposition)"
        )
    return name


class CounterChild:
    """Monotonically increasing count for one label set."""

    __slots__ = ("_lock", "_value")
    _GUARDED_BY = {"_lock": ("_value",)}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up; use a gauge for decrements")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def export(self) -> Dict[str, object]:
        return {"value": self.value}

    def dump(self) -> Dict[str, object]:
        """Mergeable wire state (see :mod:`repro.obs.aggregate`)."""
        return {"value": self.value}

    def merge_state(self, state: Dict[str, object]) -> None:
        """Counters merge by summation: add another child's dumped total."""
        self.inc(float(state["value"]))


class GaugeChild:
    """Point-in-time value for one label set.

    A gauge either holds an explicitly :meth:`set` value or polls a callback
    installed with :meth:`set_function` (used for liveness: the value is read
    at snapshot time, so it is current even if nobody pushed an update).
    """

    __slots__ = ("_lock", "_value", "_fn")
    _GUARDED_BY = {"_lock": ("_value", "_fn")}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._fn = None
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """Poll ``fn`` at read time instead of storing a pushed value."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:  # noqa: BLE001 — a dead callback must not break snapshots
            return float("nan")

    def reset(self) -> None:
        with self._lock:
            self._fn = None
            self._value = 0.0

    def export(self) -> Dict[str, object]:
        return {"value": self.value}

    def dump(self) -> Dict[str, object]:
        """Mergeable wire state; callback gauges resolve to their value here
        (a callable cannot cross a process boundary)."""
        return {"value": self.value}

    def merge_state(self, state: Dict[str, object]) -> None:
        """Gauges resolve per label set: the incoming value wins.

        Distinct sources are expected to merge under distinct label sets
        (e.g. ``worker=<rank>``); merging two sources into *one* label set is
        last-write-wins, matching gauge point-in-time semantics.
        """
        self.set(float(state["value"]))


class HistogramChild:
    """Fixed-bucket histogram plus a bounded quantile reservoir."""

    __slots__ = (
        "_lock", "_bounds", "_bucket_counts", "_count", "_sum", "_min", "_max",
        "_reservoir", "_reservoir_size", "_rng", "_quantiles",
    )
    # _bounds/_reservoir_size/_quantiles are immutable after __init__ and
    # deliberately read lock-free by export().
    _GUARDED_BY = {
        "_lock": (
            "_count", "_sum", "_min", "_max", "_bucket_counts",
            "_reservoir", "_rng",
        )
    }

    def __init__(
        self,
        buckets: Sequence[float],
        quantiles: Sequence[float],
        reservoir_size: int,
        seed: int,
    ) -> None:
        self._lock = threading.Lock()
        self._bounds = tuple(buckets)
        self._bucket_counts = [0] * len(self._bounds)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._quantiles = tuple(quantiles)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._bucket_counts[bisect_left(self._bounds, value)] += 1
            if len(self._reservoir) < self._reservoir_size:
                self._reservoir.append(value)
            else:
                # Vitter's algorithm R: every observation ends up in the
                # reservoir with probability reservoir_size / count.
                slot = self._rng.randrange(self._count)
                if slot < self._reservoir_size:
                    self._reservoir[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def state_size(self) -> int:
        """Floats held by this child — constant once the reservoir fills."""
        with self._lock:
            return len(self._reservoir) + len(self._bucket_counts) + 4

    def samples(self) -> List[float]:
        """A consistent copy of the quantile reservoir."""
        with self._lock:
            return list(self._reservoir)

    def quantile(self, q: float) -> float:
        """Streaming quantile estimate.

        Exact while ``count <= reservoir_size`` (the reservoir holds every
        observation); beyond that the reservoir is a uniform sample, so the
        estimate carries the usual order-statistic sampling error
        (~``1/sqrt(reservoir_size)`` of the local density scale).
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        samples = self.samples()
        if not samples:
            return 0.0
        import numpy as np

        return float(np.percentile(np.asarray(samples, dtype=float), 100.0 * q))

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * len(self._bounds)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf
            self._reservoir = []

    def export(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._bucket_counts)
            count, total = self._count, self._sum
            low = self._min if self._count else 0.0
            high = self._max if self._count else 0.0
        payload: Dict[str, object] = {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "buckets": {
                ("+Inf" if math.isinf(bound) else repr(bound)): n
                for bound, n in zip(self._bounds, counts)
            },
        }
        payload["quantiles"] = {f"p{100 * q:g}": self.quantile(q) for q in self._quantiles}
        return payload

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def dump(self) -> Dict[str, object]:
        """Mergeable wire state: exact running stats, per-bucket (non-
        cumulative) counts aligned to :attr:`bounds`, and the reservoir.

        ``min``/``max`` are ``None`` while empty (infinities are not
        JSON-safe); bucket bounds travel separately with the family schema.
        """
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "bucket_counts": list(self._bucket_counts),
                "reservoir": list(self._reservoir),
            }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Merge another child's dumped state into this one.

        Running stats and bucket counts merge *exactly* (sums of sums, elementwise
        bucket addition, min/max of extrema); the reservoirs merge by weighted
        subsampling (:func:`merge_reservoirs`), so the merged reservoir is a
        uniform sample of the union stream and quantile estimates keep their
        usual sampling error.  The caller is responsible for only merging
        children with identical bucket bounds (the registry schema check in
        :func:`repro.obs.aggregate.merge_snapshot`).
        """
        other_count = int(state["count"])
        counts = [int(n) for n in state["bucket_counts"]]
        if len(counts) != len(self._bounds):
            raise ObservabilityError(
                f"cannot merge a histogram with {len(counts)} buckets into one "
                f"with {len(self._bounds)}"
            )
        if other_count == 0:
            return
        with self._lock:
            self._reservoir = merge_reservoirs(
                self._reservoir,
                self._count,
                [float(value) for value in state["reservoir"]],
                other_count,
                self._reservoir_size,
                self._rng,
            )
            self._count += other_count
            self._sum += float(state["sum"])
            if state["min"] is not None:
                self._min = min(self._min, float(state["min"]))
            if state["max"] is not None:
                self._max = max(self._max, float(state["max"]))
            for index, n in enumerate(counts):
                self._bucket_counts[index] += n


def merge_reservoirs(
    samples_a: Sequence[float],
    count_a: int,
    samples_b: Sequence[float],
    count_b: int,
    size: int,
    rng: random.Random,
) -> List[float]:
    """Merge two uniform reservoirs into one uniform reservoir of ``size``.

    ``samples_x`` is a uniform sample of a stream of ``count_x`` observations
    (``count_x >= len(samples_x)``).  When everything fits, the merge is the
    exact concatenation (quantiles stay exact in the sub-capacity regime).
    Otherwise each output slot draws its source with probability proportional
    to the *remaining represented mass* — each element of reservoir ``x``
    stands for ``count_x / len(samples_x)`` stream observations — and removes
    a uniform element from that source, which makes every merged element a
    uniform draw from the union stream.
    """
    if len(samples_a) + len(samples_b) <= size:
        return list(samples_a) + list(samples_b)
    pool_a, pool_b = list(samples_a), list(samples_b)
    weight_a = count_a / len(pool_a) if pool_a else 0.0
    weight_b = count_b / len(pool_b) if pool_b else 0.0
    merged: List[float] = []
    while len(merged) < size and (pool_a or pool_b):
        mass_a = weight_a * len(pool_a)
        mass_b = weight_b * len(pool_b)
        take_a = bool(pool_a) and (
            not pool_b or rng.random() < mass_a / (mass_a + mass_b)
        )
        pool = pool_a if take_a else pool_b
        index = rng.randrange(len(pool))
        pool[index], pool[-1] = pool[-1], pool[index]
        merged.append(pool.pop())
    return merged


_CHILD_TYPES = {
    TYPE_COUNTER: CounterChild,
    TYPE_GAUGE: GaugeChild,
    TYPE_HISTOGRAM: HistogramChild,
}


class MetricFamily:
    """One named metric and its per-label-set children.

    Calling recording methods (``inc``/``set``/``observe``…) directly on the
    family operates on the *unlabelled* child, which keeps the common
    no-labels case one call shorter.
    """

    # name/labelnames/_child_kwargs are immutable after __init__; only the
    # child map mutates.
    _GUARDED_BY = {"_lock": ("_children",)}

    def __init__(
        self,
        name: str,
        description: str,
        metric_type: str,
        labelnames: Sequence[str],
        child_kwargs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = _validate_name(name)
        self.description = description
        self.type = metric_type
        self.labelnames = tuple(labelnames)
        self._child_kwargs = dict(child_kwargs or {})
        self._children: Dict[LabelValues, object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: object):
        """Get or create the child for one label set."""
        key = _normalise_labels(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.type == TYPE_HISTOGRAM:
                    # Distinct deterministic reservoir stream per child: a
                    # digest of the name and label values, which, unlike
                    # hash(), no per-process string-hash salt changes.
                    seed = zlib.crc32(repr((self.name, key)).encode("utf-8"))
                    child = HistogramChild(seed=seed, **self._child_kwargs)
                else:
                    child = _CHILD_TYPES[self.type]()
                self._children[key] = child
            return child

    def _default_child(self):
        if self.labelnames:
            raise ObservabilityError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                "select a child with .labels(...) first"
            )
        return self.labels()

    # Unlabelled convenience surface -----------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        self._default_child().set_function(fn)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    # Introspection ----------------------------------------------------
    @property
    def child_kwargs(self) -> Dict[str, object]:
        """Construction schema of this family's children (histogram buckets,
        quantiles, reservoir size) — part of the snapshot wire format."""
        return dict(self._child_kwargs)

    def children(self) -> List[Tuple[LabelValues, object]]:
        with self._lock:
            return list(self._children.items())

    def reset(self) -> None:
        for _, child in self.children():
            child.reset()

    def export(self) -> Dict[str, object]:
        return {
            "type": self.type,
            "description": self.description,
            "values": [
                {"labels": dict(key), **child.export()}
                for key, child in sorted(self.children(), key=lambda item: item[0])
            ],
        }


class MetricsRegistry:
    """Thread-safe, process-wide collection of metric families."""

    _GUARDED_BY = {"_lock": ("_families",)}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration (get-or-create; schema conflicts are errors)
    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        description: str,
        metric_type: str,
        labelnames: Sequence[str],
        child_kwargs: Optional[Dict[str, object]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.type != metric_type or family.labelnames != tuple(labelnames):
                    raise ObservabilityError(
                        f"metric {name!r} is already registered as a "
                        f"{family.type} with labels {family.labelnames}; "
                        f"cannot re-register as a {metric_type} with labels "
                        f"{tuple(labelnames)}"
                    )
                return family
            family = MetricFamily(name, description, metric_type, labelnames, child_kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, description: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, description, TYPE_COUNTER, labels)

    def gauge(
        self, name: str, description: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, description, TYPE_GAUGE, labels)

    def histogram(
        self,
        name: str,
        description: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
    ) -> MetricFamily:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or not math.isinf(bounds[-1]):
            bounds = bounds + (float("inf"),)
        if reservoir_size < 1:
            raise ObservabilityError("reservoir_size must be >= 1")
        return self._register(
            name,
            description,
            TYPE_HISTOGRAM,
            labels,
            child_kwargs={
                "buckets": bounds,
                "quantiles": tuple(quantiles),
                "reservoir_size": int(reservoir_size),
            },
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Zero every child (counts, reservoirs, gauge callbacks)."""
        for family in self.families():
            family.reset()

    def clear(self) -> None:
        """Drop every family (tests building a registry from scratch)."""
        with self._lock:
            self._families.clear()

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable view of every family and child."""
        return {
            "created_unix": time.time(),
            "metrics": {family.name: family.export() for family in self.families()},
        }

    def write_json_snapshot(
        self, directory: Optional[Path] = None, name: str = "OBS_metrics.json"
    ) -> Path:
        """Write the JSON snapshot into ``directory`` (default
        ``$REPRO_BENCH_DIR`` / ``bench_out``).

        Deliberately not ``BENCH_``-prefixed: the benchmark comparator globs
        ``BENCH_*.json`` and would reject a metrics snapshot as malformed.
        """
        if directory is None:
            directory = Path(os.environ.get("REPRO_BENCH_DIR", "bench_out"))
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.snapshot(), sort_keys=True, indent=2), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.description:
                lines.append(f"# HELP {family.name} {family.description}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for key, child in sorted(family.children(), key=lambda item: item[0]):
                if family.type == TYPE_HISTOGRAM:
                    lines.extend(_render_histogram(family.name, key, child))
                else:
                    lines.append(
                        f"{family.name}{_render_labels(key)} {_render_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(key: LabelValues, extra: Iterable[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in pairs
    )
    return "{" + body + "}"


def _render_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _render_histogram(name: str, key: LabelValues, child: HistogramChild) -> List[str]:
    exported = child.export()
    lines = []
    cumulative = 0
    for bound, count in exported["buckets"].items():
        cumulative += count
        lines.append(f"{name}_bucket{_render_labels(key, [('le', bound)])} {cumulative}")
    lines.append(f"{name}_sum{_render_labels(key)} {_render_value(exported['sum'])}")
    lines.append(f"{name}_count{_render_labels(key)} {exported['count']}")
    return lines


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem records into by default."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise ObservabilityError("set_registry expects a MetricsRegistry")
    with _default_lock:
        previous, _default_registry = _default_registry, registry
    return previous


def _fresh_registry_after_fork() -> None:
    """Replace the inherited registry in a freshly forked child.

    Called from the ``os.register_at_fork`` handler installed by
    :func:`repro.obs.aggregate.install_fork_handlers`.  The inherited
    registry is a frozen shadow copy of the parent's — recording into it is
    silently discarded at exit, and its per-child locks may have been held by
    parent threads that do not exist in the child.  The child starts from an
    empty registry with fresh locks, so everything it records is a clean
    delta that can be flushed to and merged by the parent.  No locking here:
    the child is single-threaded at this point, and taking the inherited
    ``_default_lock`` could deadlock if a parent thread held it at fork time.
    """
    global _default_registry, _default_lock
    _default_lock = threading.Lock()
    _default_registry = MetricsRegistry()

"""Request tracing: sampled spans with cross-thread propagation.

One serving request crosses three threads — the caller's (submit), a
micro-batcher worker's (queue wait, batch assembly, forward) and whichever
thread resolves the future (response).  The tracer ties those fragments into
one *trace*: the submitting side draws a trace id (:meth:`Tracer.sample`),
the id travels with the queued request, and every side records finished
spans against it with :meth:`Tracer.record`.  Spans land in a bounded ring
buffer and export as Chrome trace-event JSON
(:meth:`Tracer.export_chrome_trace`), loadable in ``chrome://tracing`` or
Perfetto.

Cost model
----------
Tracing is **off by default** (``sample_rate == 0``) and the disabled path
allocates nothing: :meth:`sample` is one attribute check returning ``None``,
every recording site is guarded by ``if trace_id is not None`` and
:meth:`span` returns a shared no-op context-manager singleton.  When
enabled, each root trace is sampled independently with probability
``sample_rate``; unsampled requests take the exact disabled path.

``REPRO_TRACE_SAMPLE`` (a float in ``[0, 1]``) configures the process-wide
tracer at import, mirroring how ``REPRO_DTYPE`` selects the precision
policy; :func:`configure_tracing` changes it at runtime.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from ..exceptions import ObservabilityError

__all__ = [
    "SpanRecord",
    "Tracer",
    "configure_tracing",
    "get_tracer",
    "set_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (times are ``time.perf_counter`` seconds).

    ``pid`` is stamped at *record* time, not export time: a span recorded
    before a ``fork`` must keep the recording process's pid even when the
    deque it lives in is exported by (or flushed from) the child, and spans
    ingested from a forked worker must keep the worker's pid so a merged
    Chrome export shows one lane per process.
    """

    trace_id: str
    name: str
    started: float
    finished: float
    pid: int
    thread_id: int
    thread_name: str
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return 1000.0 * (self.finished - self.started)


class _NullSpan:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()

# Each thread's name, resolved once per thread: threading.current_thread() is
# a dict lookup plus object traversal per call, too slow for six records per
# request.  The cache dies with its thread, so a new thread that CPython gives
# a finished thread's get_ident() cannot inherit that thread's name.
_this_thread = threading.local()


class _Span:
    """Context manager recording one span on exit."""

    __slots__ = ("_tracer", "_trace_id", "_name", "_args", "_started")

    def __init__(self, tracer: "Tracer", trace_id: str, name: str, args) -> None:
        self._tracer = tracer
        self._trace_id = trace_id
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer.record(
            self._trace_id, self._name, self._started, time.perf_counter(), args=self._args
        )
        return False


class Tracer:
    """Span collector with bounded storage and probabilistic root sampling."""

    # The recording hot path (record/ingest) appends lock-free — a single
    # deque.append is atomic under the GIL — so only the compound
    # read-modify sequences (configure's resize, drain's copy-and-clear)
    # take the lock.  Lock-free sites carry inline REP104 exemptions.
    _GUARDED_BY = {"_lock": ("_spans",)}

    def __init__(self, sample_rate: float = 0.0, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        # Raw (trace_id, name, started, finished, pid, thread_id,
        # thread_name, args) tuples; SpanRecord materialisation is deferred
        # to spans().
        self._spans: Deque[tuple] = deque(maxlen=int(capacity))
        # Sampling decisions are intentionally non-reproducible: the tracer
        # must not perturb (or depend on) the experiment's seeded RNG stream.
        self._rng = random.Random()  # repro: noqa[REP102]
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()
        self.sample_rate = sample_rate  # property setter validates

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    @sample_rate.setter
    def sample_rate(self, rate: float) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ObservabilityError(f"sample_rate must be in [0, 1], got {rate}")
        self._sample_rate = rate

    @property
    def enabled(self) -> bool:
        return self._sample_rate > 0.0

    @property
    def capacity(self) -> int:
        # maxlen is only replaced wholesale by configure(); a stale read
        # here is benign.
        return self._spans.maxlen or 0  # repro: noqa[REP104]

    def configure(
        self, sample_rate: Optional[float] = None, capacity: Optional[int] = None
    ) -> "Tracer":
        if sample_rate is not None:
            self.sample_rate = sample_rate
        if capacity is not None:
            if capacity < 1:
                raise ObservabilityError("capacity must be >= 1")
            with self._lock:
                # record() appends lock-free, so a hot-path append can land in
                # the old deque between the copy below and the swap.  Swap
                # under the lock, then re-append anything that raced into the
                # old deque after the copy (record tuples are unique objects,
                # so identity is a safe membership test).  An append that
                # lands after this scan is carried over by _append().
                old = self._spans
                copied = list(old)
                self._spans = deque(copied, maxlen=int(capacity))
                copied_ids = {id(record) for record in copied}
                raced = [record for record in old if id(record) not in copied_ids]
                self._spans.extend(raced)
        return self

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def sample(self) -> Optional[str]:
        """Draw a new trace id, or ``None`` when this root is unsampled.

        ``None`` is the contract every instrumentation site relies on for
        the zero-cost disabled path: propagate the ``None`` and skip every
        :meth:`record` behind an ``is not None`` guard.
        """
        rate = self._sample_rate
        if rate <= 0.0:
            return None
        if rate < 1.0 and self._rng.random() >= rate:
            return None
        return f"t{next(self._ids):08x}"

    def record(
        self,
        trace_id: Optional[str],
        name: str,
        started: float,
        finished: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append one finished span (no-op when ``trace_id`` is ``None``).

        The hot path stores a plain tuple: ``deque.append`` is atomic under
        the GIL, so no lock is taken, and the :class:`SpanRecord` (plus the
        defensive copy of ``args``) is materialised lazily by :meth:`spans`.
        Callers therefore must not mutate ``args`` after recording.  The
        recording process's pid is stamped into the tuple here — deferring it
        to export time misattributes pre-fork spans to whichever process
        happens to export them.
        """
        if trace_id is None:
            return
        thread_name = getattr(_this_thread, "name", None)
        if thread_name is None:
            thread_name = _this_thread.name = threading.current_thread().name
        self._append(
            (trace_id, name, started, finished, os.getpid(), threading.get_ident(), thread_name, args)
        )

    def _append(self, record: tuple) -> None:
        """Append ``record`` lock-free, surviving a concurrent :meth:`configure`.

        ``deque.append`` is atomic under the GIL, but the deque is looked up
        first: a configure() that copies, swaps and re-scans in between leaves
        the record in the discarded deque.  A record that sees the swap after
        appending takes the lock, so no swap is half done, and re-appends
        itself unless the swap already carried it over.
        """
        spans = self._spans  # repro: noqa[REP104] — GIL-atomic hot path
        spans.append(record)
        if spans is not self._spans:  # repro: noqa[REP104] — identity check only
            with self._lock:
                if not any(kept is record for kept in self._spans):
                    self._spans.append(record)

    def span(self, name: str, trace_id: Optional[str], **args):
        """Context manager recording ``name`` under ``trace_id`` on exit."""
        if trace_id is None:
            return _NULL_SPAN
        return _Span(self, trace_id, name, args)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def spans(self, trace_id: Optional[str] = None) -> List[SpanRecord]:
        with self._lock:
            raw = list(self._spans)
        records = [
            SpanRecord(
                trace_id=tid,
                name=name,
                started=started,
                finished=finished,
                pid=pid,
                thread_id=thread_id,
                thread_name=thread_name,
                args=dict(args) if args else {},
            )
            for (tid, name, started, finished, pid, thread_id, thread_name, args) in raw
            if trace_id is None or tid == trace_id
        ]
        return sorted(records, key=lambda span: span.started)

    def drain(self) -> List[tuple]:
        """Atomically take (and clear) every raw span tuple.

        The worker-side flush primitive: a forked worker drains its tracer at
        step boundaries and ships the raw tuples to the parent, which
        re-appends them with :meth:`ingest`.  Tuples are
        ``(trace_id, name, started, finished, pid, thread_id, thread_name,
        args)`` — all JSON-safe when ``args`` is.
        """
        with self._lock:
            raw = list(self._spans)
            self._spans.clear()
        return raw

    def ingest(self, records: Iterable[Sequence]) -> int:
        """Append foreign span records (e.g. flushed from a forked worker).

        Accepts the 8-field sequences produced by :meth:`drain` (tuples or
        JSON-decoded lists).  The recorded pid/tid are preserved, so a merged
        Chrome export keeps one lane per originating process; on POSIX,
        ``time.perf_counter`` reads the machine-wide monotonic clock, so
        parent and worker fragments share a timeline.  Returns the number of
        records appended.
        """
        appended = 0
        for record in records:
            trace_id, name, started, finished, pid, thread_id, thread_name, args = record
            if trace_id is None:
                continue
            self._append(
                (
                    str(trace_id), str(name), float(started), float(finished),
                    int(pid), int(thread_id), str(thread_name),
                    dict(args) if args else None,
                )
            )
            appended += 1
        return appended

    def trace_ids(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def chrome_events(self, trace_id: Optional[str] = None) -> List[Dict[str, object]]:
        """Spans as Chrome trace-event dicts (``ph: "X"`` complete events).

        Timestamps are microseconds since the tracer's epoch; ``pid`` is the
        process that *recorded* the span (stamped at record time, so ingested
        worker fragments keep their own lane), ``tid`` the recording thread,
        and the trace id rides in ``args`` so one export holding many traces
        stays filterable.
        """
        events: List[Dict[str, object]] = []
        for span in self.spans(trace_id):
            args = dict(span.args)
            args["trace_id"] = span.trace_id
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": 1e6 * (span.started - self._epoch),
                    "dur": 1e6 * (span.finished - span.started),
                    "pid": span.pid,
                    "tid": span.thread_id,
                    "args": args,
                }
            )
        return events

    def export_chrome_trace(
        self, path: Path, trace_id: Optional[str] = None
    ) -> Path:
        """Write Chrome trace-event JSON (Perfetto-loadable) to ``path``."""
        path = Path(path)
        payload = {
            "traceEvents": self.chrome_events(trace_id),
            "displayTimeUnit": "ms",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return path

    def __repr__(self) -> str:
        return (
            f"Tracer(sample_rate={self._sample_rate}, "
            f"spans={len(self._spans)}, "  # repro: noqa[REP104] — debug repr
            f"capacity={self.capacity})"
        )


def _rate_from_env() -> float:
    raw = os.environ.get("REPRO_TRACE_SAMPLE", "").strip()
    if not raw:
        return 0.0
    try:
        rate = float(raw)
    except ValueError as exc:
        raise ObservabilityError(
            f"REPRO_TRACE_SAMPLE={raw!r} is not a float in [0, 1]"
        ) from exc
    if not 0.0 <= rate <= 1.0:
        raise ObservabilityError(f"REPRO_TRACE_SAMPLE={raw!r} is not in [0, 1]")
    return rate


_default_tracer = Tracer(sample_rate=_rate_from_env())


def get_tracer() -> Tracer:
    """The process-wide tracer (off unless configured or ``REPRO_TRACE_SAMPLE``)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer (tests); returns the previous one."""
    global _default_tracer
    if not isinstance(tracer, Tracer):
        raise ObservabilityError("set_tracer expects a Tracer")
    previous, _default_tracer = _default_tracer, tracer
    return previous


def _fresh_tracer_after_fork() -> None:
    """Replace the inherited tracer in a freshly forked child.

    Called from the ``os.register_at_fork`` handler installed by
    :func:`repro.obs.aggregate.install_fork_handlers`.  The child keeps the
    parent's configuration (sample rate, capacity) but gets a fresh deque and
    lock: the inherited buffer is a frozen shadow copy of the parent's spans
    — anything recorded into it would be silently discarded at exit, and its
    lock may have been held by a parent thread that does not exist in the
    child.  No locking here: the child is single-threaded at this point.
    """
    global _default_tracer
    inherited = _default_tracer
    _default_tracer = Tracer(
        sample_rate=inherited._sample_rate, capacity=inherited.capacity or 4096
    )


def configure_tracing(
    sample_rate: Optional[float] = None, capacity: Optional[int] = None
) -> Tracer:
    """Configure the process-wide tracer; returns it for chaining."""
    return _default_tracer.configure(sample_rate=sample_rate, capacity=capacity)

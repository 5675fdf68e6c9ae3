"""In-memory span recording around calls into the program's public API.

A traced run wraps public functions and methods of ``repro`` from here, so no
span is added inside ``src/``: each wrapped call records one span (name,
start, end, parent span, request id) on a per-thread stack.  Spans stay in
memory until the run ends and are then written out as a Chrome trace
(``chrome://tracing`` / Perfetto "JSON trace event" format).

Self time of a span is its duration less the durations of its direct child
spans; children on one thread are sequential, so they never overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[int]
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.enabled = True
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float,
            request_id: Optional[int] = None) -> None:
        """Record a span measured by the caller, under the current parent."""
        if not self.enabled:
            return
        stack = self._stack()
        span = Span(next(self._ids), name, start, end, stack[-1] if stack else None,
                    request_id, threading.get_ident())
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, None, threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def wrap(self, owner, attr: str, name: str,
             counter: Optional[Callable[..., Dict[str, float]]] = None) -> None:
        """Replace ``owner.attr`` (a function or method) with a recording wrapper.

        ``counter(*args, **kwargs)`` may return counts to add per call, e.g.
        the number of windows a call handles.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter is not None and recorder.enabled:
                for key, amount in counter(*args, **kwargs).items():
                    recorder.count(key, amount)
            return recorder.call(name, original, *args, **kwargs)

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total_seconds(self, names: Iterable[str]) -> float:
        wanted = set(names)
        return sum(span.seconds for span in self.spans if span.name in wanted)

    def _child_seconds(self) -> Dict[int, float]:
        """Span id to the summed durations of its direct children."""
        seconds: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                seconds[span.parent] = seconds.get(span.parent, 0.0) + span.seconds
        return seconds

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        child_seconds = self._child_seconds()
        return sum(span.seconds - child_seconds.get(span.span_id, 0.0)
                   for span in self.named(name))

    def nesting_violations(self, tolerance: float = 1e-6) -> List[str]:
        """Spans whose children add up to more than the span itself."""
        by_id = {span.span_id: span for span in self.spans}
        problems = []
        for span_id, seconds in self._child_seconds().items():
            parent = by_id.get(span_id)
            if parent is not None and seconds > parent.seconds + tolerance:
                problems.append(
                    f"children of {parent.name} take {seconds:.6f} s > {parent.seconds:.6f} s"
                )
        return problems

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        """The spans as Chrome trace events; timestamps are this host's
        monotonic clock, so traces of several processes line up."""
        pid = os.getpid()
        events = []
        for span in self.spans:
            args = {"span_id": span.span_id, "parent": span.parent}
            if span.request_id is not None:
                args["request_id"] = span.request_id
            events.append({
                "name": span.name, "ph": "X", "pid": pid, "tid": span.thread,
                "ts": span.start * 1e6, "dur": span.seconds * 1e6, "args": args,
            })
        return events


def write_chrome_trace(path: Path, events: List[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

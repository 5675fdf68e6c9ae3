"""Tracer semantics plus the end-to-end serving trace (the acceptance path)."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ObservabilityError
from repro.obs import tracing
from repro.obs.tracing import _NULL_SPAN, Tracer, configure_tracing, get_tracer
from repro.serving import InferenceServer, ServerConfig

WINDOW_LENGTH = 32
NUM_CHANNELS = 6


@pytest.fixture()
def process_tracer():
    """The process tracer at sample_rate=1.0, restored and cleared afterwards."""
    tracer = get_tracer()
    previous = tracer.sample_rate
    tracer.clear()
    configure_tracing(sample_rate=1.0)
    try:
        yield tracer
    finally:
        configure_tracing(sample_rate=previous)
        tracer.clear()


class TestDisabledPath:
    def test_default_tracer_is_off(self):
        assert Tracer().enabled is False

    def test_sample_returns_none_when_off(self):
        assert Tracer(sample_rate=0.0).sample() is None

    def test_span_returns_shared_noop_singleton(self):
        tracer = Tracer()
        assert tracer.span("anything", None) is _NULL_SPAN
        assert tracer.span("other", None) is _NULL_SPAN  # no allocation per call
        with tracer.span("anything", None):
            pass
        assert tracer.spans() == []

    def test_record_with_none_trace_id_is_noop(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.record(None, "x", 0.0, 1.0)
        assert tracer.spans() == []


class TestSampling:
    def test_rate_one_always_samples_unique_ids(self):
        tracer = Tracer(sample_rate=1.0)
        ids = {tracer.sample() for _ in range(100)}
        assert None not in ids
        assert len(ids) == 100

    def test_fractional_rate_samples_some(self):
        tracer = Tracer(sample_rate=0.5)
        draws = [tracer.sample() for _ in range(500)]
        sampled = sum(1 for draw in draws if draw is not None)
        assert 100 < sampled < 400

    def test_rate_validation(self):
        with pytest.raises(ObservabilityError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ObservabilityError):
            configure_tracing(sample_rate=-0.1)

    def test_capacity_bounds_span_storage(self):
        tracer = Tracer(sample_rate=1.0, capacity=10)
        for index in range(50):
            tracer.record(f"t{index}", "span", float(index), float(index) + 1.0)
        spans = tracer.spans()
        assert len(spans) == 10
        assert spans[0].started == 40.0  # oldest spans were evicted

    def test_capacity_validation(self):
        with pytest.raises(ObservabilityError):
            Tracer().configure(capacity=0)


class TestSpanRecording:
    def test_span_context_manager_records(self):
        tracer = Tracer(sample_rate=1.0)
        trace_id = tracer.sample()
        with tracer.span("work", trace_id, step=3):
            time.sleep(0.001)
        (span,) = tracer.spans(trace_id)
        assert span.name == "work"
        assert span.args == {"step": 3}
        assert span.duration_ms >= 1.0

    def test_spans_filter_and_sort(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.record("a", "second", 2.0, 3.0)
        tracer.record("a", "first", 1.0, 2.0)
        tracer.record("b", "other", 0.0, 1.0)
        assert [span.name for span in tracer.spans("a")] == ["first", "second"]
        assert set(tracer.trace_ids()) == {"a", "b"}


class TestThreadNames:
    def test_a_thread_never_takes_the_name_of_a_finished_thread(self, monkeypatch):
        """CPython may give a new thread the ``get_ident()`` of a finished one.

        The tracer is made to see one ident for every thread, so the test
        does not depend on CPython reusing an ident during the run.
        """

        class OneIdentForAllThreads:
            def __getattr__(self, name):
                return getattr(threading, name)

            @staticmethod
            def get_ident():
                return 12345

        monkeypatch.setattr(tracing, "threading", OneIdentForAllThreads())
        tracer = Tracer(sample_rate=1.0)
        for started, name in enumerate(("first-worker", "second-worker")):
            thread = threading.Thread(
                target=tracer.record, args=("t", "work", float(started), started + 1.0), name=name
            )
            thread.start()
            thread.join()
        assert [span.thread_name for span in tracer.spans("t")] == ["first-worker", "second-worker"]


class TestPidStamping:
    def test_pid_is_stamped_at_record_time(self):
        import os

        tracer = Tracer(sample_rate=1.0)
        tracer.record("t", "span", 0.0, 1.0)
        (span,) = tracer.spans()
        assert span.pid == os.getpid()

    def test_ingest_preserves_foreign_pid_and_thread(self):
        import os

        tracer = Tracer(sample_rate=1.0)
        foreign_pid = os.getpid() + 12345
        appended = tracer.ingest(
            [["t1", "worker-span", 0.5, 1.5, foreign_pid, 42, "dp-worker-0", {"rank": 0}]]
        )
        assert appended == 1
        (span,) = tracer.spans()
        assert span.pid == foreign_pid  # NOT overwritten with ours
        assert span.thread_id == 42
        assert span.thread_name == "dp-worker-0"
        (event,) = tracer.chrome_events()
        assert event["pid"] == foreign_pid

    def test_ingest_skips_unsampled_records(self):
        tracer = Tracer(sample_rate=1.0)
        appended = tracer.ingest([[None, "x", 0.0, 1.0, 1, 1, "t", None]])
        assert appended == 0
        assert tracer.spans() == []

    def test_drain_takes_and_clears(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.record("t", "a", 0.0, 1.0)
        raw = tracer.drain()
        assert len(raw) == 1 and raw[0][0] == "t"
        assert tracer.spans() == []


class TestConfigureUnderConcurrentRecording:
    def test_no_record_lost_across_capacity_swaps(self):
        """configure() swaps the deque while record() appends lock-free; no
        span recorded before configure() returns may be dropped."""
        import threading

        tracer = Tracer(sample_rate=1.0, capacity=100_000)
        total = 4000
        done = threading.Event()

        def writer():
            for index in range(total):
                tracer.record(f"t{index}", "span", float(index), float(index) + 1.0)
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        # Hammer capacity swaps (far above the record count, so nothing is
        # ever evicted for capacity reasons) while the writer runs.
        while not done.is_set():
            tracer.configure(capacity=100_000)
        thread.join()
        tracer.configure(capacity=100_000)

        assert len(tracer.spans()) == total


class TestChromeExport:
    def test_export_is_perfetto_loadable_json(self, tmp_path):
        tracer = Tracer(sample_rate=1.0)
        trace_id = tracer.sample()
        with tracer.span("phase", trace_id):
            time.sleep(0.001)
        path = tracer.export_chrome_trace(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "phase"
        assert event["dur"] >= 1000  # microseconds
        assert event["args"]["trace_id"] == trace_id
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)

    def test_export_filters_by_trace_id(self, tmp_path):
        tracer = Tracer(sample_rate=1.0)
        tracer.record("keep", "a", 0.0, 1.0)
        tracer.record("drop", "b", 0.0, 1.0)
        path = tracer.export_chrome_trace(tmp_path / "one.json", trace_id="keep")
        events = json.loads(path.read_text())["traceEvents"]
        assert [event["name"] for event in events] == ["a"]


REQUEST_SPAN_NAMES = {
    "request", "submit", "queue.wait", "batch.assemble", "forward", "response",
}


class TestServingTracePropagation:
    """One request = one trace across the batcher's thread boundary."""

    def test_one_request_produces_a_complete_trace(
        self, tiny_model, process_tracer, tmp_path
    ):
        window = np.random.default_rng(5).standard_normal(
            (WINDOW_LENGTH, NUM_CHANNELS)
        )
        with InferenceServer(model=tiny_model, config=ServerConfig(num_workers=1)) as server:
            prediction = server.predict(window)
        assert prediction.latency_ms > 0

        trace_ids = process_tracer.trace_ids()
        assert len(trace_ids) == 1
        spans = process_tracer.spans(trace_ids[0])
        by_name = {span.name: span for span in spans}
        assert set(by_name) == REQUEST_SPAN_NAMES

        # Every fragment shares the one trace id.
        assert {span.trace_id for span in spans} == {trace_ids[0]}

        # The trace genuinely crossed the batcher's thread boundary: the
        # submit fragment runs on the caller, the forward on a worker.
        assert by_name["submit"].thread_id != by_name["forward"].thread_id
        assert by_name["forward"].thread_name.startswith("microbatch-worker")
        assert by_name["forward"].args["batch_size"] == 1

        # The root request span brackets every other fragment.
        root = by_name["request"]
        for span in spans:
            assert root.started <= span.started + 1e-9
            assert span.finished <= root.finished + 1e-9

        # The stage chain is ordered: enqueue -> wait -> assemble -> forward.
        assert by_name["queue.wait"].finished <= by_name["batch.assemble"].started + 1e-9
        assert by_name["batch.assemble"].finished <= by_name["forward"].started + 1e-9

        # And the whole trace exports as loadable Chrome trace-event JSON.
        path = process_tracer.export_chrome_trace(
            tmp_path / "request.json", trace_id=trace_ids[0]
        )
        events = json.loads(path.read_text())["traceEvents"]
        assert {event["name"] for event in events} == REQUEST_SPAN_NAMES

    def test_every_request_of_a_burst_gets_its_own_trace(
        self, tiny_model, process_tracer
    ):
        windows = np.random.default_rng(6).standard_normal(
            (8, WINDOW_LENGTH, NUM_CHANNELS)
        )
        with InferenceServer(model=tiny_model, config=ServerConfig(num_workers=1)) as server:
            server.predict_many(list(windows))
        trace_ids = process_tracer.trace_ids()
        assert len(trace_ids) == 8
        for trace_id in trace_ids:
            assert {span.name for span in process_tracer.spans(trace_id)} == REQUEST_SPAN_NAMES

    def test_unsampled_serving_records_nothing(self, tiny_model):
        tracer = get_tracer()
        tracer.clear()
        previous = tracer.sample_rate
        tracer.sample_rate = 0.0  # force the unsampled path whatever the env says
        try:
            window = np.random.default_rng(7).standard_normal(
                (WINDOW_LENGTH, NUM_CHANNELS)
            )
            with InferenceServer(
                model=tiny_model, config=ServerConfig(num_workers=1)
            ) as server:
                server.predict(window)
            assert tracer.spans() == []
        finally:
            tracer.sample_rate = previous

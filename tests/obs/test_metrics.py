"""Registry semantics: families, children, concurrency, exporters, bounds."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ObservabilityError
from repro.obs.metrics import (
    DEFAULT_RESERVOIR_SIZE,
    MetricsRegistry,
    get_registry,
    set_registry,
)


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        requests = registry.counter("requests_total", "test counter")
        requests.inc()
        requests.inc(4.0)
        assert requests.value == 5.0

    def test_counters_only_go_up(self, registry):
        counter = registry.counter("c_total")
        with pytest.raises(ObservabilityError):
            counter.inc(-1.0)

    def test_labelled_children_are_independent(self, registry):
        family = registry.counter("by_route_total", labels=("route",))
        family.labels(route="/a").inc(2)
        family.labels(route="/b").inc(3)
        assert family.labels(route="/a").value == 2.0
        assert family.labels(route="/b").value == 3.0

    def test_unlabelled_convenience_requires_no_labelnames(self, registry):
        family = registry.counter("labelled_total", labels=("k",))
        with pytest.raises(ObservabilityError):
            family.inc()

    def test_label_set_must_match_schema(self, registry):
        family = registry.counter("strict_total", labels=("k",))
        with pytest.raises(ObservabilityError):
            family.labels(wrong="x")


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value == 7.0

    def test_callback_gauge_polled_at_read(self, registry):
        gauge = registry.gauge("alive")
        state = {"n": 3}
        gauge.set_function(lambda: state["n"])
        assert gauge.value == 3.0
        state["n"] = 1
        assert gauge.value == 1.0

    def test_failing_callback_reads_nan(self, registry):
        gauge = registry.gauge("dead")
        gauge.set_function(lambda: 1 / 0)
        assert math.isnan(gauge.value)

    def test_set_clears_callback(self, registry):
        gauge = registry.gauge("g")
        gauge.set_function(lambda: 99.0)
        gauge.set(1.0)
        assert gauge.value == 1.0


_RESERVOIR_SCRIPT = """
import json, random
from repro.obs.metrics import MetricsRegistry

family = MetricsRegistry().histogram("lat_ms", labels=("route",), reservoir_size=32)
stream = random.Random(7)
for _ in range(2000):
    family.labels(route="/v1/predict").observe(stream.random())
    family.labels(route="/v1/batch").observe(stream.random())
print(json.dumps({route: family.labels(route=route).samples()
                  for route in ("/v1/predict", "/v1/batch")}))
"""


def _reservoirs_under_hash_seed(hash_seed: str) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", _RESERVOIR_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestHistogram:
    def test_reservoirs_do_not_depend_on_the_string_hash_salt(self):
        first = _reservoirs_under_hash_seed("1")
        second = _reservoirs_under_hash_seed("2")
        assert all(len(samples) == 32 for samples in first.values())
        assert first == second

    def test_running_statistics(self, registry):
        hist = registry.histogram("lat_ms", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 50.0):
            hist.observe(value)
        child = hist.labels()
        assert child.count == 3
        assert child.sum == pytest.approx(52.5)
        assert child.min == 0.5
        assert child.max == 50.0
        assert child.mean == pytest.approx(52.5 / 3)

    def test_bucket_counts(self, registry):
        hist = registry.histogram("b_ms", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 2.0, 50.0):
            hist.observe(value)
        exported = hist.labels().export()
        assert exported["buckets"] == {"1.0": 2, "10.0": 1, "+Inf": 1}

    def test_infinity_bucket_appended_automatically(self, registry):
        hist = registry.histogram("auto_inf", buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert "+Inf" in hist.labels().export()["buckets"]

    def test_quantiles_exact_under_reservoir_capacity(self, registry):
        hist = registry.histogram("q_ms", reservoir_size=1000)
        values = np.random.default_rng(0).exponential(10.0, size=500)
        for value in values:
            hist.observe(value)
        child = hist.labels()
        for q in (0.5, 0.9, 0.99):
            assert child.quantile(q) == pytest.approx(np.percentile(values, 100 * q))

    def test_quantile_estimate_reasonable_beyond_capacity(self, registry):
        hist = registry.histogram("big_ms", reservoir_size=512)
        values = np.random.default_rng(1).normal(100.0, 10.0, size=5000)
        for value in values:
            hist.observe(value)
        estimate = hist.labels().quantile(0.5)
        # Uniform reservoir of 512: the median estimate stays within a few
        # percent of the true median with overwhelming probability.
        assert abs(estimate - np.percentile(values, 50)) < 5.0

    def test_memory_bounded_by_reservoir(self, registry):
        hist = registry.histogram("bounded_ms", reservoir_size=64)
        child = hist.labels()
        for value in range(200):
            child.observe(float(value))
        size_at_200 = child.state_size()
        assert len(child.samples()) == 64
        for value in range(2000):
            child.observe(float(value))
        assert child.state_size() == size_at_200  # independent of volume
        assert child.count == 2200  # but exact counting continues

    def test_quantile_range_validated(self, registry):
        hist = registry.histogram("qr_ms")
        with pytest.raises(ObservabilityError):
            hist.labels().quantile(1.5)

    def test_reservoir_size_validated(self, registry):
        with pytest.raises(ObservabilityError):
            registry.histogram("bad", reservoir_size=0)


class TestSchemaConflicts:
    def test_reregistration_returns_same_family(self, registry):
        first = registry.counter("same_total", labels=("k",))
        second = registry.counter("same_total", labels=("k",))
        assert first is second

    def test_type_conflict_raises(self, registry):
        registry.counter("typed")
        with pytest.raises(ObservabilityError):
            registry.gauge("typed")

    def test_label_schema_conflict_raises(self, registry):
        registry.counter("lbl_total", labels=("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("lbl_total", labels=("b",))

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("bad name")


class TestConcurrency:
    def test_counter_increments_are_exact(self, registry):
        counter = registry.counter("conc_total")
        threads = 8
        per_thread = 1000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value == threads * per_thread

    def test_histogram_observations_are_exact(self, registry):
        hist = registry.histogram("conc_ms", reservoir_size=128)
        threads = 6
        per_thread = 500
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                hist.observe(1.0)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        child = hist.labels()
        assert child.count == threads * per_thread
        assert child.sum == pytest.approx(threads * per_thread)
        assert len(child.samples()) == 128

    def test_snapshot_while_recording(self, registry):
        counter = registry.counter("live_total")
        hist = registry.histogram("live_ms", reservoir_size=64)
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                counter.inc()
                hist.observe(3.0)

        worker = threading.Thread(target=hammer)
        worker.start()
        try:
            last = -1.0
            for _ in range(50):
                snap = registry.snapshot()
                value = snap["metrics"]["live_total"]["values"][0]["value"]
                assert value >= last  # counters are monotone across snapshots
                last = value
        finally:
            stop.set()
            worker.join()


class TestExporters:
    def _populated(self, registry):
        registry.counter("requests_total", "requests", labels=("route",)).labels(
            route="/p"
        ).inc(3)
        registry.gauge("depth", "queue depth").set(2.0)
        hist = registry.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        return registry

    def test_prometheus_exposition(self, registry):
        text = self._populated(registry).render_prometheus()
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{route="/p"} 3.0' in text
        assert '# HELP depth queue depth' in text
        assert 'depth 2.0' in text
        # Histogram buckets are cumulative and end at +Inf.
        assert 'lat_ms_bucket{le="1.0"} 1' in text
        assert 'lat_ms_bucket{le="10.0"} 2' in text
        assert 'lat_ms_bucket{le="+Inf"} 3' in text
        assert 'lat_ms_sum 55.5' in text
        assert 'lat_ms_count 3' in text

    def test_prometheus_label_escaping(self, registry):
        registry.counter("esc_total", labels=("k",)).labels(k='a"b\\c').inc()
        text = registry.render_prometheus()
        assert 'esc_total{k="a\\"b\\\\c"} 1.0' in text

    def test_json_snapshot_structure(self, registry):
        snap = self._populated(registry).snapshot()
        assert set(snap) == {"created_unix", "metrics"}
        lat = snap["metrics"]["lat_ms"]
        assert lat["type"] == "histogram"
        (series,) = lat["values"]
        assert series["count"] == 3
        assert series["quantiles"]["p50"] == pytest.approx(5.0)

    def test_write_json_snapshot(self, registry, tmp_path):
        path = self._populated(registry).write_json_snapshot(directory=tmp_path)
        assert path == tmp_path / "OBS_metrics.json"
        loaded = json.loads(path.read_text())
        assert loaded["metrics"]["depth"]["values"][0]["value"] == 2.0

    def test_snapshot_name_is_not_bench_prefixed(self, registry, tmp_path):
        # The CI comparator globs BENCH_*.json and validates their schema; the
        # metrics snapshot must never match that glob.
        path = registry.write_json_snapshot(directory=tmp_path)
        assert not path.name.startswith("BENCH_")


class TestLifecycle:
    def test_reset_zeroes_children(self, registry):
        counter = registry.counter("r_total")
        hist = registry.histogram("r_ms")
        counter.inc(5)
        hist.observe(1.0)
        registry.reset()
        assert counter.value == 0.0
        assert hist.labels().count == 0
        assert hist.labels().samples() == []

    def test_clear_drops_families(self, registry):
        registry.counter("gone_total")
        registry.clear()
        assert registry.get("gone_total") is None
        assert registry.families() == []

    def test_set_registry_swaps_process_default(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_set_registry_validates_type(self):
        with pytest.raises(ObservabilityError):
            set_registry(object())

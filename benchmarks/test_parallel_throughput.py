"""Data-parallel training benchmark: 2-worker speedup and pipeline health.

The structural claim backing ``repro.parallel`` (see DESIGN.md): scattering
each global batch over worker replicas and all-reducing their gradients
raises training throughput (samples/sec) by at least 1.3x over the
single-process trainer on the bench profile, without changing the learned
parameters (parity is asserted exactly in ``tests/parallel``; here we assert
the throughput side on hosts with at least two CPUs — on a single CPU there
is no physical parallelism to measure, so the speedup test is skipped).
"""

from __future__ import annotations

import copy
import os
import time

import numpy as np
import pytest

from repro.datasets import SyntheticIMUConfig, generate_synthetic_dataset
from repro.models.backbone import SagaBackbone
from repro.models.composite import ClassificationModel
from repro.obs import MetricsRegistry, set_registry
from repro.parallel import PrefetchDataLoader, fork_available
from repro.datasets.loaders import DataLoader
from repro.training import SupervisedTrainer, TrainerConfig

from .conftest import publish_bench, run_once

TASK = "activity"
NUM_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
PREFERRED_BACKEND = "process" if fork_available() else "thread"


@pytest.fixture(scope="module")
def train_dataset(profile):
    config = SyntheticIMUConfig(
        num_users=4,
        activities=("walking", "jogging", "sitting", "standing"),
        windows_per_combination=8,
        window_length=profile.window_length,
        seed=profile.seed,
        name="parallel-bench",
    )
    return generate_synthetic_dataset(config)


def build_model(profile, dataset, seed):
    rng = np.random.default_rng(seed)
    backbone = SagaBackbone(profile.backbone_config(dataset.num_channels), rng=rng)
    return ClassificationModel(backbone, dataset.num_classes(TASK), rng=rng)


def _trainer_config(**overrides):
    defaults = dict(epochs=1, batch_size=32, seed=5, log_every=0)
    defaults.update(overrides)
    return TrainerConfig(**defaults)


def _samples_per_second(fit, samples):
    started = time.perf_counter()
    fit()
    return samples / (time.perf_counter() - started)


@pytest.mark.skipif(NUM_CPUS < 2, reason="parallel speedup needs at least 2 CPUs")
def test_two_workers_at_least_1_3x_single_process_throughput(
    benchmark, profile, bench_dir, train_dataset
):
    """2-worker data-parallel training vs. the single-process trainer."""
    single_model = build_model(profile, train_dataset, seed=5)
    parallel_model = copy.deepcopy(single_model)
    samples = len(train_dataset)

    measure_started = time.perf_counter()
    single_trainer = SupervisedTrainer(_trainer_config())
    single_trainer.fit(copy.deepcopy(single_model), train_dataset, TASK)  # warm-up
    single_sps = _samples_per_second(
        lambda: single_trainer.fit(single_model, train_dataset, TASK), samples
    )

    parallel_trainer = SupervisedTrainer(
        _trainer_config(num_workers=2, parallel_backend=PREFERRED_BACKEND, prefetch_batches=2)
    )
    parallel_sps = _samples_per_second(
        lambda: run_once(benchmark, parallel_trainer.fit, parallel_model, train_dataset, TASK),
        samples,
    )
    measure_seconds = time.perf_counter() - measure_started

    speedup = parallel_sps / single_sps
    publish_bench(
        bench_dir, "parallel_throughput", profile, measure_seconds,
        metrics={"parallel_over_single_speedup": speedup, "num_workers": 2.0},
        throughput={
            "parallel_samples_per_second": parallel_sps,
            "single_samples_per_second": single_sps,
        },
    )
    assert speedup >= 1.3, (
        f"2-worker {PREFERRED_BACKEND} training only {speedup:.2f}x the "
        f"single-process throughput ({parallel_sps:.1f} vs {single_sps:.1f} samples/sec)"
    )


def test_parallel_trainer_throughput_accounting(profile, train_dataset):
    """Runs on any host: the 2-worker trainer must account for every sample."""
    model = build_model(profile, train_dataset, seed=5)
    trainer = SupervisedTrainer(_trainer_config(num_workers=2))
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        history = trainer.fit(model, train_dataset, TASK)
    finally:
        set_registry(previous)
    assert np.isfinite(history.final_loss())
    # Every window of the epoch reached exactly one worker.
    samples = registry.get("parallel_worker_samples_total")
    assert samples.labels(worker="0").value + samples.labels(worker="1").value == len(train_dataset)


def test_prefetch_pipeline_matches_eager_loading_throughput(benchmark, train_dataset):
    """Prefetching must not cost meaningful throughput even on one CPU.

    (Its win — overlapping batch assembly with compute — needs a second CPU;
    here we only pin down that the bounded-queue handoff is near-free.)
    """
    eager = DataLoader(train_dataset, batch_size=32, task=TASK, seed=3)
    prefetched = PrefetchDataLoader(DataLoader(train_dataset, batch_size=32, task=TASK, seed=3), depth=2)

    def drain(loader, epochs=20):
        total = 0
        for epoch in range(epochs):
            loader.set_epoch(epoch)
            for batch in loader:
                total += len(batch)
        return total

    started = time.perf_counter()
    drained_eager = drain(eager)
    eager_seconds = time.perf_counter() - started

    drained_prefetched, prefetch_seconds = run_once(benchmark, drain, prefetched)

    assert drained_prefetched == drained_eager
    assert prefetch_seconds < max(10 * eager_seconds, eager_seconds + 1.0), (
        f"prefetch pipeline overhead too high: {prefetch_seconds:.3f}s vs "
        f"{eager_seconds:.3f}s eager"
    )

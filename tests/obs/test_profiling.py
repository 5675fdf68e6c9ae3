"""Profiling hooks: JIT per-op timing and the training-step phase timer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.jit import CompiledModule
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import (
    _NULL_PHASE,
    PhaseTimer,
    enable_op_profiling,
    enable_phase_timing,
    op_profiling_enabled,
    phase_timing_enabled,
    record_op_timings,
)
from repro.training import SupervisedTrainer, TrainerConfig

WINDOW_LENGTH = 32
NUM_CHANNELS = 6


@pytest.fixture()
def op_profiling():
    previous = enable_op_profiling(True)
    try:
        yield
    finally:
        enable_op_profiling(previous)


@pytest.fixture()
def phase_timing():
    previous = enable_phase_timing(True)
    try:
        yield
    finally:
        enable_phase_timing(previous)


class TestToggles:
    def test_op_profiling_toggle_returns_previous(self):
        assert op_profiling_enabled() is False
        previous = enable_op_profiling(True)
        try:
            assert previous is False
            assert op_profiling_enabled() is True
        finally:
            enable_op_profiling(previous)
        assert op_profiling_enabled() is False

    def test_phase_timing_toggle_returns_previous(self):
        previous = enable_phase_timing(True)
        try:
            assert phase_timing_enabled() is True
        finally:
            enable_phase_timing(previous)
        assert phase_timing_enabled() is False


class TestRecordOpTimings:
    def test_flushes_aggregates_into_registry(self):
        registry = MetricsRegistry()
        record_op_timings({"matmul": (10, 0.5), "gelu": (4, 0.1)}, registry=registry)
        record_op_timings({"matmul": (10, 0.25)}, registry=registry)
        calls = registry.get("jit_op_calls_total")
        assert calls.labels(op="matmul").value == 20
        assert calls.labels(op="gelu").value == 4
        seconds = registry.get("jit_op_seconds").labels(op="matmul")
        assert seconds.count == 2  # one observation per replay, not per node
        assert seconds.sum == pytest.approx(0.75)


class TestJitOpProfiling:
    def test_profiled_replay_matches_and_records(
        self, tiny_model, private_registry, op_profiling
    ):
        compiled = CompiledModule(tiny_model, bucket_sizes=[4])
        windows = np.random.default_rng(3).standard_normal(
            (4, WINDOW_LENGTH, NUM_CHANNELS)
        )
        first = compiled.run(windows)  # traces eagerly, then replays profiled
        second = compiled.run(windows)
        np.testing.assert_array_equal(first, second)

        calls = private_registry.get("jit_op_calls_total")
        assert calls is not None
        ops = {key[0][1] for key, _ in calls.children()}
        assert "matmul" in ops  # attention/MLP projections
        seconds = private_registry.get("jit_op_seconds")
        total = sum(child.sum for _, child in seconds.children())
        assert total > 0.0

    def test_disabled_profiling_records_nothing(self, tiny_model, private_registry):
        compiled = CompiledModule(tiny_model, bucket_sizes=[4])
        windows = np.random.default_rng(3).standard_normal(
            (4, WINDOW_LENGTH, NUM_CHANNELS)
        )
        compiled.run(windows)
        compiled.run(windows)
        assert private_registry.get("jit_op_calls_total") is None


class TestPhaseTimer:
    def test_disabled_timer_hands_out_shared_noop(self):
        timer = PhaseTimer("test", enabled=False)
        assert timer.phase("data") is _NULL_PHASE
        assert timer.phase("forward") is _NULL_PHASE
        with timer.phase("data"):
            pass
        assert timer.totals() == {}

    def test_enabled_timer_records_locally_and_into_registry(self):
        registry = MetricsRegistry()
        timer = PhaseTimer("test", registry=registry, enabled=True)
        with timer.phase("forward"):
            pass
        with timer.phase("forward"):
            pass
        with timer.phase("backward"):
            pass
        assert timer.counts() == {"forward": 2, "backward": 1}
        assert set(timer.totals()) == {"forward", "backward"}
        hist = registry.get("training_phase_seconds")
        assert hist.labels(scope="test", phase="forward").count == 2

    def test_timer_honours_global_flag_at_construction(self, phase_timing):
        registry = MetricsRegistry()
        timer = PhaseTimer("flagged", registry=registry)
        with timer.phase("data"):
            pass
        assert timer.counts() == {"data": 1}


class TestTrainerPhaseTiming:
    def test_supervised_trainer_attributes_every_phase(
        self, tiny_splits, private_registry, phase_timing
    ):
        from repro.models.backbone import BackboneConfig, SagaBackbone
        from repro.models.composite import build_classification_model

        config = BackboneConfig(
            input_channels=tiny_splits.train.num_channels,
            window_length=tiny_splits.train.window_length,
            hidden_dim=8, num_layers=1, num_heads=2, intermediate_dim=16, dropout=0.0,
        )
        backbone = SagaBackbone(config, rng=np.random.default_rng(0))
        model = build_classification_model(backbone, 2, rng=np.random.default_rng(0))
        trainer = SupervisedTrainer(TrainerConfig(epochs=1, batch_size=16, log_every=0))
        trainer.fit(model, tiny_splits.train, "activity", rng=np.random.default_rng(0))

        counts = trainer.phase_timer.counts()
        assert set(counts) == {"data", "forward", "backward", "optimizer"}
        steps = counts["forward"]
        assert steps >= 1
        assert counts["backward"] == steps
        assert counts["optimizer"] == steps
        assert counts["data"] == steps + 1  # the exhausted final next()

        hist = private_registry.get("training_phase_seconds")
        assert hist.labels(scope="supervised", phase="forward").count == steps

    def test_saga_fit_records_every_training_phase(self, private_registry, phase_timing):
        """Pre-training and fine-tuning run through the shared loop, so one
        ci-size ``SagaPipeline.fit`` with weight search times every step of both."""
        from repro import get_profile
        from repro.bayesopt import LWSConfig
        from repro.core import SagaConfig, SagaPipeline
        from repro.datasets import SyntheticIMUConfig, generate_synthetic_dataset
        from repro.training import FinetuneConfig, PretrainConfig

        profile = get_profile("ci")
        dataset = generate_synthetic_dataset(
            SyntheticIMUConfig(
                num_users=3, activities=("walking", "sitting"), windows_per_combination=8,
                window_length=profile.window_length, seed=13,
            )
        )
        splits = dataset.split(rng=np.random.default_rng(0), stratify_task="activity")
        labelled = splits.train.few_shot("activity", 5, rng=np.random.default_rng(1))
        config = SagaConfig(
            backbone=profile.backbone_config(dataset.num_channels),
            pretrain=PretrainConfig(
                epochs=profile.pretrain_epochs, batch_size=profile.batch_size,
                learning_rate=profile.learning_rate, log_every=0,
            ),
            finetune=FinetuneConfig(
                epochs=profile.finetune_epochs, batch_size=profile.batch_size,
                learning_rate=profile.learning_rate, log_every=0,
            ),
            lws=LWSConfig(budget=profile.lws_budget, initial_random=profile.lws_initial_random),
        )
        pipeline = SagaPipeline(config)
        pipeline.fit(
            splits.train, labelled, "activity", splits.validation,
            weights="search", rng=np.random.default_rng(2),
        )

        # Each of the budget's candidates is pre-trained and fine-tuned once,
        # and the chosen weights once more.
        runs = config.lws.budget + 1
        assert len(pipeline.search_result.trials) == config.lws.budget
        hist = private_registry.get("training_phase_seconds")
        assert hist is not None
        for scope, stage, data in (
            ("pretrain", config.pretrain, splits.train),
            ("finetune", config.finetune, labelled),
        ):
            steps = runs * stage.epochs * -(-len(data) // stage.batch_size)
            counts = {
                phase: hist.labels(scope=scope, phase=phase).count
                for phase in ("data", "forward", "backward", "optimizer")
            }
            assert counts == {
                "data": steps + runs * stage.epochs,  # one exhausted next() per epoch
                "forward": steps,
                "backward": steps,
                "optimizer": steps,
            }, scope

    def test_parallel_trainer_attributes_engine_phases(
        self, tiny_splits, private_registry, phase_timing
    ):
        from repro.models.backbone import BackboneConfig, SagaBackbone
        from repro.models.composite import build_classification_model

        config = BackboneConfig(
            input_channels=tiny_splits.train.num_channels,
            window_length=tiny_splits.train.window_length,
            hidden_dim=8, num_layers=1, num_heads=2, intermediate_dim=16, dropout=0.0,
        )
        backbone = SagaBackbone(config, rng=np.random.default_rng(0))
        model = build_classification_model(backbone, 2, rng=np.random.default_rng(0))
        trainer = SupervisedTrainer(
            TrainerConfig(epochs=1, batch_size=16, num_workers=2, log_every=0)
        )
        trainer.fit(model, tiny_splits.train, "activity", rng=np.random.default_rng(0))

        # The engine records its phases into the loop's timer, so one scope
        # carries the whole step: data, then the engine's four phases.
        counts = trainer.phase_timer.counts()
        assert set(counts) == {"data", "workers", "allreduce", "optimizer", "broadcast"}
        steps = counts["workers"]
        assert steps >= 1
        assert counts["allreduce"] == steps
        assert counts["optimizer"] == steps
        assert counts["broadcast"] == steps
        assert counts["data"] == steps + 1  # the exhausted final next()

        hist = private_registry.get("training_phase_seconds")
        assert hist.labels(scope="supervised", phase="workers").count == steps

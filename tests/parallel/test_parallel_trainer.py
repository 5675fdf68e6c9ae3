"""Parity and lifecycle of the data-parallel training subsystem.

The headline guarantee: a 2-worker step of the shared training loop
(``SupervisedTrainer`` with ``num_workers=2``) aggregates shard gradients into
exactly the large-batch gradient, so trained parameters match single-process
training on the same seed to floating-point reordering error (far inside the
1e-6 budget of the acceptance criterion).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.datasets.loaders import Batch
from repro.exceptions import ConfigurationError, ParallelError
from repro.models.backbone import BackboneConfig
from repro.nn import Flatten, Linear, ReLUActivation, Sequential, parameters_to_vector
from repro.obs import MetricsRegistry, set_registry
from repro.parallel import DataParallelEngine, fork_available, split_batch
from repro.training import (
    FinetuneConfig,
    Finetuner,
    PretrainConfig,
    Pretrainer,
    SupervisedTrainer,
    TrainerConfig,
)

TASK = "activity"


def build_model(dataset, seed=3):
    rng = np.random.default_rng(seed)
    features = dataset.window_length * dataset.num_channels
    classes = dataset.num_classes(TASK)
    return Sequential(Flatten(), Linear(features, 16, rng=rng), ReLUActivation(), Linear(16, classes, rng=rng))


def fit_single(dataset, model, **overrides):
    config = TrainerConfig(epochs=2, batch_size=16, seed=11, log_every=0, **overrides)
    return SupervisedTrainer(config).fit(model, dataset, TASK)


def spy_engine_backends(monkeypatch):
    """The backend of every DataParallelEngine started from here on."""
    backends = []
    original_start = DataParallelEngine.start

    def spying_start(self):
        backends.append(self.backend)
        return original_start(self)

    monkeypatch.setattr(DataParallelEngine, "start", spying_start)
    return backends


@pytest.mark.parametrize(
    "backend",
    ["thread", pytest.param("process", marks=pytest.mark.skipif(not fork_available(), reason="no fork"))],
)
def test_two_worker_parity_with_single_process_training(tiny_dataset, backend, monkeypatch):
    base = build_model(tiny_dataset)
    single = copy.deepcopy(base)
    parallel = copy.deepcopy(base)

    single_history = fit_single(tiny_dataset, single)
    backends = spy_engine_backends(monkeypatch)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        parallel_history = fit_single(
            tiny_dataset, parallel, num_workers=2, parallel_backend=backend
        )
    finally:
        set_registry(previous)

    np.testing.assert_allclose(
        parameters_to_vector(parallel.parameters()),
        parameters_to_vector(single.parameters()),
        atol=1e-6,
    )
    assert parallel_history.final_loss() == pytest.approx(single_history.final_loss(), abs=1e-9)
    assert backends == [backend]
    # Every window of both epochs reached exactly one worker.
    samples = registry.get("parallel_worker_samples_total")
    assert samples.labels(worker="0").value + samples.labels(worker="1").value == 2 * len(tiny_dataset)


def test_supervised_trainer_delegates_on_num_workers(tiny_dataset):
    base = build_model(tiny_dataset)
    single = copy.deepcopy(base)
    delegated = copy.deepcopy(base)
    fit_single(tiny_dataset, single)
    fit_single(tiny_dataset, delegated, num_workers=2)
    np.testing.assert_allclose(
        parameters_to_vector(delegated.parameters()),
        parameters_to_vector(single.parameters()),
        atol=1e-6,
    )


def test_parity_with_validation_and_early_stopping(tiny_dataset):
    base = build_model(tiny_dataset)
    single = copy.deepcopy(base)
    parallel = copy.deepcopy(base)
    kwargs = dict(epochs=3, batch_size=16, seed=11, log_every=0, early_stopping_patience=2)
    single_hist = SupervisedTrainer(TrainerConfig(**kwargs)).fit(
        single, tiny_dataset, TASK, validation_dataset=tiny_dataset
    )
    parallel_hist = SupervisedTrainer(TrainerConfig(num_workers=2, **kwargs)).fit(
        parallel, tiny_dataset, TASK, validation_dataset=tiny_dataset
    )
    assert len(parallel_hist) == len(single_hist)
    np.testing.assert_allclose(
        parameters_to_vector(parallel.parameters()),
        parameters_to_vector(single.parameters()),
        atol=1e-6,
    )


def test_custom_forward_rejected_in_parallel_mode(tiny_dataset):
    model = build_model(tiny_dataset)
    trainer = SupervisedTrainer(TrainerConfig(epochs=1, num_workers=2))
    with pytest.raises(ConfigurationError, match="forward"):
        trainer.fit(model, tiny_dataset, TASK, forward=lambda x: model(x))


def test_parallel_pretrain_and_finetune_run(tiny_dataset):
    backbone_config = BackboneConfig(
        input_channels=tiny_dataset.num_channels,
        window_length=tiny_dataset.window_length,
        hidden_dim=16,
        num_layers=1,
        num_heads=2,
        intermediate_dim=32,
    )
    pretrain_config = PretrainConfig(epochs=1, batch_size=16, seed=0, log_every=0, num_workers=2)
    result = Pretrainer(pretrain_config, backbone_config).pretrain(tiny_dataset)
    assert np.isfinite(result.history.final_loss())
    assert set(result.per_level_losses) == set(result.weights)

    finetune_config = FinetuneConfig(
        epochs=1, batch_size=16, seed=0, log_every=0, num_workers=2, classifier_hidden_dim=8
    )
    fit = Finetuner(finetune_config).finetune(
        result.model.backbone, tiny_dataset, TASK, validation_dataset=tiny_dataset
    )
    assert np.isfinite(fit.history.final_loss())
    assert fit.validation_metrics is not None


def test_engine_replicas_inherit_training_mode(tiny_dataset):
    """Replicas are cloned from the master, so its mode must carry over."""
    from repro.nn import CrossEntropyLoss

    model = build_model(tiny_dataset)
    model.train()
    loss_fn = CrossEntropyLoss()
    seen_modes = []

    def step(replica, chunk, _rng):
        seen_modes.append(replica.training)
        return loss_fn(replica(chunk.windows), chunk.labels)

    batch = Batch(windows=tiny_dataset.windows[:8], labels=tiny_dataset.task_labels(TASK)[:8])
    with DataParallelEngine(model, step, num_workers=2) as engine:
        engine.accumulate(batch)
        engine.broadcast()
    assert seen_modes == [True, True]


def test_trainers_enter_train_mode_before_cloning_replicas(tiny_dataset, monkeypatch):
    """Regression: an eval()-ed model (e.g. a pre-trained backbone) must be put
    back in train mode *before* the engine clones it, or every worker would
    silently train with dropout disabled (broadcast only syncs parameters)."""
    captured = []
    original_start = DataParallelEngine.start

    def spying_start(self):
        captured.append(all(module.training for _, module in self.model.named_modules()))
        return original_start(self)

    monkeypatch.setattr(DataParallelEngine, "start", spying_start)
    backbone_config = BackboneConfig(
        input_channels=tiny_dataset.num_channels,
        window_length=tiny_dataset.window_length,
        hidden_dim=16,
        num_layers=1,
        num_heads=2,
        intermediate_dim=32,
    )
    # pretrain() leaves the model in eval mode; both the continuation pretrain
    # and the fine-tune reuse those eval()-ed modules.
    seeded = Pretrainer(
        PretrainConfig(epochs=1, batch_size=16, seed=0, log_every=0), backbone_config
    ).pretrain(tiny_dataset)
    Pretrainer(
        PretrainConfig(epochs=1, batch_size=16, seed=0, log_every=0, num_workers=2),
        backbone_config,
    ).pretrain(tiny_dataset, model=seeded.model)
    Finetuner(
        FinetuneConfig(epochs=1, batch_size=16, seed=0, log_every=0, num_workers=2)
    ).finetune(seeded.model.backbone, tiny_dataset, TASK)
    assert captured == [True, True]


def test_num_workers_validation():
    with pytest.raises(ConfigurationError, match="num_workers"):
        TrainerConfig(num_workers=-1)
    with pytest.raises(ConfigurationError, match="num_workers"):
        TrainerConfig(num_workers=1.5)
    with pytest.raises(ConfigurationError, match="num_workers"):
        TrainerConfig(num_workers=True)
    with pytest.raises(ConfigurationError, match="parallel_backend"):
        TrainerConfig(parallel_backend="mpi")
    with pytest.raises(ConfigurationError, match="prefetch_batches"):
        TrainerConfig(prefetch_batches=-2)
    with pytest.raises(ConfigurationError, match="num_workers"):
        PretrainConfig(num_workers=-1)
    with pytest.raises(ConfigurationError, match="num_workers"):
        FinetuneConfig(num_workers=-1)
    assert TrainerConfig(num_workers=0).num_workers == 0  # default stays valid


def test_split_batch_partitions_and_preserves_order():
    windows = np.arange(10 * 2 * 3, dtype=np.float64).reshape(10, 2, 3)
    labels = np.arange(10)
    batch = Batch(windows=windows, labels=labels, indices=np.arange(10))
    chunks = split_batch(batch, 3)
    assert [len(chunk) for chunk in chunks] == [4, 3, 3]
    np.testing.assert_array_equal(np.concatenate([c.windows for c in chunks]), windows)
    np.testing.assert_array_equal(np.concatenate([c.labels for c in chunks]), labels)
    # more chunks than samples -> trailing chunks are empty but present
    small = split_batch(Batch(windows=windows[:2], labels=labels[:2]), 4)
    assert [len(chunk) for chunk in small] == [1, 1, 0, 0]


def test_engine_enforces_accumulate_broadcast_pairing(tiny_dataset):
    model = build_model(tiny_dataset)
    batch = Batch(
        windows=tiny_dataset.windows[:8], labels=tiny_dataset.task_labels(TASK)[:8]
    )

    from repro.nn import CrossEntropyLoss

    loss_fn = CrossEntropyLoss()

    def step(replica, chunk, _rng):
        return loss_fn(replica(chunk.windows), chunk.labels)

    with DataParallelEngine(model, step, num_workers=2) as engine:
        engine.accumulate(batch)
        with pytest.raises(ParallelError, match="broadcast"):
            engine.accumulate(batch)
        engine.broadcast()
        loss, _ = engine.accumulate(batch)
        engine.broadcast()
        assert np.isfinite(loss)
        with pytest.raises(ParallelError, match="empty"):
            engine.accumulate(Batch(windows=tiny_dataset.windows[:0]))


def test_worker_replicas_stay_in_sync_with_master(tiny_dataset):
    model = build_model(tiny_dataset)
    from repro.nn import SGD, CrossEntropyLoss

    loss_fn = CrossEntropyLoss()

    def step(replica, chunk, _rng):
        return loss_fn(replica(chunk.windows), chunk.labels)

    optimizer = SGD(model.parameters(), lr=0.1)
    batch = Batch(windows=tiny_dataset.windows[:8], labels=tiny_dataset.task_labels(TASK)[:8])
    with DataParallelEngine(model, step, num_workers=2) as engine:
        for _ in range(3):
            engine.accumulate(batch)
            optimizer.step()
            engine.broadcast()
        master = parameters_to_vector(model.parameters())
        for replica in engine._replicas:
            np.testing.assert_allclose(parameters_to_vector(replica.parameters()), master)

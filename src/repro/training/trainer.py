"""The one training loop, and the generic supervised trainer built on it.

:func:`run_training` owns everything around a training step: the prefetch
wrap of the loader, the data-parallel engine when ``num_workers > 0``, phase
timing, backward, gradient clipping, the optimizer step, dropping each
step's graph, per-epoch history and an epoch-end hook.  A caller supplies
only a step function ``step_fn(model, batch, rng) -> loss | (loss, aux)``,
the contract :class:`~repro.parallel.engine.DataParallelEngine` runs on its
replicas.  Saga's pre-training (:mod:`repro.training.pretrain`) and
fine-tuning (:mod:`repro.training.finetune`), :class:`SupervisedTrainer`,
and through it the CL-HAR and TPN baselines, all train with this loop.

:func:`evaluate_model` is likewise the one evaluation loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from ..datasets.base import IMUDataset
from ..datasets.loaders import Batch, DataLoader
from ..exceptions import ConfigurationError, TrainingError
from ..logging_utils import get_logger
from ..nn import Adam, CrossEntropyLoss, Module, clip_grad_norm
from ..nn.optim import Optimizer
from ..obs.profiling import PhaseTimer
from ..parallel.engine import BACKENDS, DataParallelEngine, StepFn
from ..parallel.prefetch import PrefetchDataLoader
from .history import EpochRecord, TrainingHistory
from .metrics import ClassificationMetrics, evaluate_predictions

logger = get_logger(__name__)

_END_OF_EPOCH = object()


@dataclass
class LoopConfig:
    """Hyper-parameters every trainer shares; :func:`run_training` reads them.

    ``num_workers`` is the number of data-parallel workers (0 = single
    process), ``parallel_backend`` selects the worker implementation and
    ``prefetch_batches`` the depth of the background batch pipeline
    (0 = eager loading).
    """

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    log_every: int = 10
    seed: int = 0
    num_workers: int = 0
    parallel_backend: str = "thread"
    prefetch_batches: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        for field_name in ("num_workers", "prefetch_batches"):
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{field_name} must be an integer, got {value!r} "
                    f"({type(value).__name__})"
                )
            if value < 0:
                raise ConfigurationError(
                    f"{field_name} must be >= 0 (0 disables it), got {value}"
                )
        if self.parallel_backend not in BACKENDS:
            raise ConfigurationError(
                f"parallel_backend must be one of {BACKENDS}, "
                f"got {self.parallel_backend!r}"
            )


@dataclass
class TrainerConfig(LoopConfig):
    """Hyper-parameters of the generic supervised trainer."""

    early_stopping_patience: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.early_stopping_patience < 0:
            raise ConfigurationError("early_stopping_patience must be non-negative")


def run_training(
    model: Module,
    step_fn: StepFn,
    loader: DataLoader,
    optimizer: Optimizer,
    config: LoopConfig,
    rng: np.random.Generator,
    phase_timer: PhaseTimer,
    on_epoch_end: Optional[Callable[[EpochRecord], bool]] = None,
) -> TrainingHistory:
    """Train ``model`` for ``config.epochs`` epochs of ``step_fn``; returns the history.

    ``step_fn(model, batch, rng)`` runs the forward pass and returns a
    mean-reduced loss tensor, or ``(loss, aux)`` with ``aux`` a dict of
    floats.  Each epoch's record holds the epoch mean of the loss as
    ``train_loss`` and of every ``aux`` value as ``metrics``.  The loop
    clips the gradient norm of ``optimizer.parameters`` to
    ``config.grad_clip`` before each optimizer step.

    With ``config.num_workers > 0`` a :class:`DataParallelEngine` runs
    ``step_fn`` and the backward pass on worker replicas, each step drawing
    from a generator derived from ``config.seed``; otherwise ``step_fn``
    draws from ``rng``.  Phases go to ``phase_timer``: ``data``,
    ``forward``, ``backward`` and ``optimizer`` in one process, and
    ``data`` plus the engine's ``workers``, ``allreduce``, ``optimizer`` and
    ``broadcast`` under the engine.

    ``on_epoch_end(record)`` runs after each record is appended; it may add
    metrics to the record and returns True to stop training.
    """
    batches = (
        PrefetchDataLoader(loader, depth=config.prefetch_batches)
        if config.prefetch_batches
        else loader
    )
    history = TrainingHistory()
    # train() must precede engine.start(): replicas inherit the master's
    # train/eval mode at clone/fork time and broadcast() only syncs
    # parameters, so a model eval()ed by an earlier run would otherwise train
    # with dropout disabled in every worker.
    model.train()
    engine = None
    if config.num_workers > 0:
        engine = DataParallelEngine(
            model,
            step_fn,
            num_workers=config.num_workers,
            backend=config.parallel_backend,
            seed=config.seed,
        )
        engine.phase_timer = phase_timer
        engine.start()
    try:
        for epoch in range(config.epochs):
            loss_sum = 0.0
            aux_sums = {}
            steps = 0
            iterator = iter(batches)
            while True:
                # The explicit next() keeps loader time (including prefetch
                # stalls) attributed to the `data` phase rather than smeared
                # over the for-statement.
                with phase_timer.phase("data"):
                    batch = next(iterator, _END_OF_EPOCH)
                if batch is _END_OF_EPOCH:
                    break
                if engine is not None:
                    loss_value, aux = engine.train_step(batch, optimizer, grad_clip=config.grad_clip)
                else:
                    with phase_timer.phase("forward"):
                        loss = step_fn(model, batch, rng)
                        if isinstance(loss, tuple):
                            loss, aux = loss
                        else:
                            aux = {}
                    with phase_timer.phase("backward"):
                        optimizer.zero_grad()
                        loss.backward()
                    with phase_timer.phase("optimizer"):
                        if config.grad_clip > 0:
                            clip_grad_norm(optimizer.parameters, config.grad_clip)
                        optimizer.step()
                    loss_value = float(loss.data)
                    # Drop the root so this step's graph is freed before the
                    # next forward records a new one.
                    del loss
                loss_sum += loss_value
                for key, value in aux.items():
                    aux_sums[key] = aux_sums.get(key, 0.0) + value
                steps += 1
            mean_loss = loss_sum / max(steps, 1)
            record = EpochRecord(
                epoch=epoch,
                train_loss=mean_loss,
                metrics={key: value / max(steps, 1) for key, value in aux_sums.items()},
            )
            history.append(record)
            if config.log_every and epoch % config.log_every == 0:
                logger.info("%s epoch %d loss %.5f", phase_timer.scope, epoch, mean_loss)
            if on_epoch_end is not None and on_epoch_end(record):
                logger.info("%s stopped early at epoch %d", phase_timer.scope, epoch)
                break
    finally:
        if engine is not None:
            engine.close()
    model.eval()
    return history


_cross_entropy = CrossEntropyLoss()


def classification_step(model: Module, batch: Batch, rng: np.random.Generator):
    """Cross-entropy of ``model``'s logits on a labelled batch (paper Eq. 8)."""
    return _cross_entropy(model(batch.windows), batch.labels)


def evaluate_model(model: Module, dataset: IMUDataset, task: str,
                   batch_size: int = 128) -> ClassificationMetrics:
    """Evaluate a classifier's accuracy and macro-F1 on every window of ``dataset``.

    Forwards run through :meth:`~repro.nn.Module.inference`: in eval mode,
    under ``no_grad()``, with the model's mode restored afterwards.
    """
    if len(dataset) == 0:
        raise TrainingError("cannot evaluate on an empty dataset")
    labels = dataset.task_labels(task)
    predictions = np.empty(len(dataset), dtype=np.int64)
    loader = DataLoader(dataset, batch_size=batch_size, task=task, shuffle=False)
    for batch in loader:
        predictions[batch.indices] = model.inference(batch.windows).data.argmax(axis=-1)
    return evaluate_predictions(predictions, labels, dataset.num_classes(task))


class EarlyStopping:
    """Accuracy-based early-stopping state of the supervised trainer."""

    def __init__(self, patience: int) -> None:
        self.patience = patience
        self.best = -np.inf
        self.stale_epochs = 0

    def should_stop(self, metrics: Mapping[str, float]) -> bool:
        """Record this epoch's validation metrics; True when patience ran out."""
        if not self.patience or not metrics:
            return False
        if metrics["accuracy"] > self.best + 1e-6:
            self.best = metrics["accuracy"]
            self.stale_epochs = 0
            return False
        self.stale_epochs += 1
        return self.stale_epochs >= self.patience


class _ForwardOverride(Module):
    """``model`` with ``forward`` in place of its own forward pass.

    The parameters and the train/eval mode stay ``model``'s, so the training
    loop and :func:`evaluate_model` treat the pair as one module.
    """

    def __init__(self, model: Module, forward: Callable) -> None:
        super().__init__()
        self.model = model
        self.training = model.training
        # Set past Module.__setattr__: a callable Module passed as ``forward``
        # must not add its parameters to the ones being trained.
        object.__setattr__(self, "_forward", forward)

    def forward(self, windows):
        return self._forward(windows)


class SupervisedTrainer:
    """Train any ``Module`` mapping windows to class logits with cross-entropy."""

    def __init__(self, config: Optional[TrainerConfig] = None) -> None:
        self.config = config if config is not None else TrainerConfig()

    def fit(
        self,
        model: Module,
        train_dataset: IMUDataset,
        task: str,
        validation_dataset: Optional[IMUDataset] = None,
        forward: Optional[Callable] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> TrainingHistory:
        """Train ``model`` on ``train_dataset`` and return the training history.

        ``forward`` may override how logits are obtained from a batch of
        windows (default: ``model(windows)``).  After each epoch the model is
        evaluated on ``validation_dataset``, if given, and training stops
        once validation accuracy has not improved for
        ``early_stopping_patience`` epochs (0 = never).
        """
        if len(train_dataset) == 0:
            raise TrainingError("cannot train on an empty dataset")
        cfg = self.config
        if forward is not None:
            if cfg.num_workers > 0:
                raise ConfigurationError(
                    "a custom forward override is not supported with "
                    "num_workers > 0 (it cannot be bound to worker replicas)"
                )
            model = _ForwardOverride(model, forward)
        generator = rng if rng is not None else np.random.default_rng(cfg.seed)
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        loader = DataLoader(
            train_dataset, batch_size=cfg.batch_size, task=task, shuffle=True, rng=generator
        )
        early_stopping = EarlyStopping(cfg.early_stopping_patience)

        def validate(record: EpochRecord) -> bool:
            if validation_dataset is not None and len(validation_dataset) > 0:
                record.metrics.update(evaluate_model(model, validation_dataset, task).as_dict())
            return early_stopping.should_stop(record.metrics)

        # Phase attribution is opt-in (repro.obs.enable_phase_timing); when
        # off, each `with phase(...)` is a shared no-op context manager.
        self.phase_timer = PhaseTimer("supervised")
        return run_training(
            model, classification_step, loader, optimizer, cfg, generator, self.phase_timer,
            on_epoch_end=validate,
        )

    @staticmethod
    def evaluate(model: Module, dataset: IMUDataset, task: str, forward: Optional[Callable] = None,
                 batch_size: int = 128) -> ClassificationMetrics:
        """Evaluate accuracy / macro-F1 of ``model`` on ``dataset``."""
        if forward is not None:
            model = _ForwardOverride(model, forward)
        return evaluate_model(model, dataset, task, batch_size=batch_size)

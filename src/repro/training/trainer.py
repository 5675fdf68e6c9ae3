"""Generic supervised training loop used by the baselines.

The Saga-specific loops live in :mod:`repro.training.pretrain` and
:mod:`repro.training.finetune`; this module provides a small reusable
trainer for plain supervised models (the "no pre-training" baseline and the
contrastive baselines' classifier stages) with optional early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from ..datasets.base import IMUDataset
from ..datasets.loaders import DataLoader
from ..exceptions import ConfigurationError, TrainingError
from ..logging_utils import get_logger
from ..nn import Adam, CrossEntropyLoss, Module, clip_grad_norm, no_grad
from ..obs.profiling import PhaseTimer
from .history import EpochRecord, TrainingHistory
from .metrics import evaluate_predictions

logger = get_logger(__name__)

_END_OF_EPOCH = object()


def validate_parallel_fields(config) -> None:
    """Shared validation of the data-parallel knobs on a training config.

    ``num_workers`` is the number of data-parallel workers (0 = single
    process), ``parallel_backend`` selects the worker implementation and
    ``prefetch_batches`` the depth of the background batch pipeline
    (0 = eager loading).
    """
    for field_name in ("num_workers", "prefetch_batches"):
        value = getattr(config, field_name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"{field_name} must be an integer, got {value!r} "
                f"({type(value).__name__})"
            )
        if value < 0:
            raise ConfigurationError(
                f"{field_name} must be >= 0 (0 disables it), got {value}"
            )
    from ..parallel.engine import BACKENDS  # local import to avoid a cycle

    if config.parallel_backend not in BACKENDS:
        raise ConfigurationError(
            f"parallel_backend must be one of {BACKENDS}, "
            f"got {config.parallel_backend!r}"
        )


@dataclass
class TrainerConfig:
    """Hyper-parameters of the generic supervised trainer."""

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    early_stopping_patience: int = 0
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
        if self.early_stopping_patience < 0:
            raise ConfigurationError("early_stopping_patience must be non-negative")
        validate_parallel_fields(self)


class EarlyStopping:
    """Accuracy-based early-stopping state shared by the supervised trainers."""

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
        windows (default: ``model(windows)``).
        """
        if len(train_dataset) == 0:
            raise TrainingError("cannot train on an empty dataset")
        cfg = self.config
        if cfg.num_workers > 0:
            if forward is not None:
                raise ConfigurationError(
                    "a custom forward override is not supported with "
                    "num_workers > 0 (it cannot be bound to worker replicas)"
                )
            from ..parallel.trainer import ParallelTrainer  # local import to avoid a cycle

            return ParallelTrainer(cfg).fit(
                model, train_dataset, task, validation_dataset=validation_dataset, rng=rng
            )
        generator = rng if rng is not None else np.random.default_rng(cfg.seed)
        forward_fn = forward if forward is not None else model
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        loss_fn = CrossEntropyLoss()
        loader = DataLoader(
            train_dataset, batch_size=cfg.batch_size, task=task, shuffle=True, rng=generator
        )
        if cfg.prefetch_batches:
            from ..parallel.prefetch import PrefetchDataLoader

            loader = PrefetchDataLoader(loader, depth=cfg.prefetch_batches)

        history = TrainingHistory()
        early_stopping = EarlyStopping(cfg.early_stopping_patience)
        # Phase attribution is opt-in (repro.obs.enable_phase_timing); when
        # off, each `with phase(...)` is a shared no-op context manager.
        self.phase_timer = PhaseTimer("supervised")
        model.train()
        for epoch in range(cfg.epochs):
            epoch_loss = 0.0
            batches = 0
            iterator = iter(loader)
            while True:
                # The explicit next() keeps loader time (including prefetch
                # stalls) attributed to the `data` phase rather than smeared
                # over the for-statement.
                with self.phase_timer.phase("data"):
                    batch = next(iterator, _END_OF_EPOCH)
                if batch is _END_OF_EPOCH:
                    break
                with self.phase_timer.phase("forward"):
                    logits = forward_fn(batch.windows)
                    loss = loss_fn(logits, batch.labels)
                with self.phase_timer.phase("backward"):
                    optimizer.zero_grad()
                    loss.backward()
                with self.phase_timer.phase("optimizer"):
                    if cfg.grad_clip > 0:
                        clip_grad_norm(model.parameters(), cfg.grad_clip)
                    optimizer.step()
                epoch_loss += float(loss.data)
                # Drop the root so this step's graph is freed before the next
                # forward records a new one.
                del logits, loss
                batches += 1
            mean_loss = epoch_loss / max(batches, 1)
            metrics = {}
            if validation_dataset is not None and len(validation_dataset) > 0:
                metrics = self.evaluate(model, validation_dataset, task, forward=forward_fn).as_dict()
            history.append(EpochRecord(epoch=epoch, train_loss=mean_loss, metrics=metrics))
            if cfg.log_every and epoch % cfg.log_every == 0:
                logger.info("train[%s] epoch %d loss %.5f", task, epoch, mean_loss)

            if early_stopping.should_stop(metrics):
                logger.info("early stopping at epoch %d", epoch)
                break
        model.eval()
        return history

    @staticmethod
    def evaluate(model: Module, dataset: IMUDataset, task: str, forward: Optional[Callable] = None,
                 batch_size: int = 128):
        """Evaluate accuracy / macro-F1 of ``model`` on ``dataset``."""
        forward_fn = forward if forward is not None else model
        was_training = model.training
        model.eval()
        try:
            labels = dataset.task_labels(task)
            predictions = np.empty(len(dataset), dtype=np.int64)
            loader = DataLoader(dataset, batch_size=batch_size, task=task, shuffle=False)
            with no_grad():
                for batch in loader:
                    logits = forward_fn(batch.windows)
                    predictions[batch.indices] = logits.data.argmax(axis=-1)
        finally:
            model.train(was_training)
        return evaluate_predictions(predictions, labels, dataset.num_classes(task))

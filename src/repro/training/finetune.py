"""Downstream fine-tuning of a pre-trained backbone with a GRU classifier.

Implements paper Section V-B: the backbone and the classifier are trained
end-to-end with cross-entropy (Eq. 8) on the small labelled subset; all
parameters remain trainable.  The resulting validation accuracy is the
performance signal ``p_n`` consumed by the LWS weight search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..datasets.base import IMUDataset
from ..datasets.loaders import DataLoader
from ..exceptions import ConfigurationError, TrainingError
from ..logging_utils import get_logger
from ..models.backbone import SagaBackbone
from ..models.composite import ClassificationModel, build_classification_model
from ..nn import Adam, CrossEntropyLoss, clip_grad_norm, no_grad
from .history import EpochRecord, TrainingHistory
from .metrics import ClassificationMetrics, evaluate_predictions
from .trainer import validate_parallel_fields

logger = get_logger(__name__)


@dataclass
class FinetuneConfig:
    """Hyper-parameters of downstream fine-tuning."""

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    classifier_hidden_dim: int = 32
    freeze_backbone: bool = False
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
        validate_parallel_fields(self)


@dataclass
class FinetuneResult:
    """Outcome of one fine-tuning run."""

    model: ClassificationModel
    history: TrainingHistory
    validation_metrics: Optional[ClassificationMetrics]
    task: str


def evaluate_model(model: ClassificationModel, dataset: IMUDataset, task: str,
                   batch_size: int = 128) -> ClassificationMetrics:
    """Evaluate a classification model on every window of ``dataset``."""
    if len(dataset) == 0:
        raise TrainingError("cannot evaluate on an empty dataset")
    num_classes = dataset.num_classes(task)
    labels = dataset.task_labels(task)
    predictions = np.empty(len(dataset), dtype=np.int64)
    loader = DataLoader(dataset, batch_size=batch_size, task=task, shuffle=False)
    with no_grad():
        for batch in loader:
            predictions[batch.indices] = model.predict(batch.windows)
    return evaluate_predictions(predictions, labels, num_classes)


class Finetuner:
    """Fine-tune a backbone + GRU classifier on a labelled dataset."""

    def __init__(self, config: Optional[FinetuneConfig] = None) -> None:
        self.config = config if config is not None else FinetuneConfig()

    def finetune(
        self,
        backbone: SagaBackbone,
        train_dataset: IMUDataset,
        task: str,
        validation_dataset: Optional[IMUDataset] = None,
        num_classes: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> FinetuneResult:
        """Train the classifier (and backbone) on ``train_dataset`` for ``task``."""
        if len(train_dataset) == 0:
            raise TrainingError("cannot fine-tune on an empty dataset")
        cfg = self.config
        generator = rng if rng is not None else np.random.default_rng(cfg.seed)
        if num_classes is None:
            num_classes = train_dataset.num_classes(task)

        model = build_classification_model(
            backbone, num_classes, classifier_hidden_dim=cfg.classifier_hidden_dim, rng=generator
        )
        if cfg.freeze_backbone:
            trainable = model.classifier.parameters()
        else:
            trainable = model.parameters()
        optimizer = Adam(trainable, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        loss_fn = CrossEntropyLoss()
        loader = DataLoader(
            train_dataset, batch_size=cfg.batch_size, task=task, shuffle=True, rng=generator
        )
        if cfg.prefetch_batches:
            from ..parallel.prefetch import PrefetchDataLoader

            loader = PrefetchDataLoader(loader, depth=cfg.prefetch_batches)

        history = TrainingHistory()
        # train() must precede engine.start(): replicas are cloned (or forked)
        # from the master, so they inherit its train/eval mode, and broadcast()
        # only syncs parameters — a replica created in eval mode would silently
        # fine-tune with dropout disabled.
        model.train()
        engine = None
        if cfg.num_workers > 0:
            from ..parallel.engine import DataParallelEngine

            def classification_step(replica, batch, _rng):
                return loss_fn(replica(batch.windows), batch.labels)

            engine = DataParallelEngine(
                model,
                classification_step,
                num_workers=cfg.num_workers,
                backend=cfg.parallel_backend,
                seed=cfg.seed,
            )
            engine.start()
        try:
            for epoch in range(cfg.epochs):
                epoch_loss = 0.0
                batches = 0
                for batch in loader:
                    if engine is not None:
                        loss_value, _ = engine.train_step(
                            batch, optimizer, clip_parameters=trainable, grad_clip=cfg.grad_clip
                        )
                    else:
                        logits = model(batch.windows)
                        loss = loss_fn(logits, batch.labels)
                        optimizer.zero_grad()
                        loss.backward()
                        if cfg.grad_clip > 0:
                            clip_grad_norm(trainable, cfg.grad_clip)
                        optimizer.step()
                        loss_value = float(loss.data)
                        # Drop the root so this step's graph is freed before
                        # the next forward records a new one.
                        del logits, loss
                    epoch_loss += loss_value
                    batches += 1
                mean_loss = epoch_loss / max(batches, 1)
                history.append(EpochRecord(epoch=epoch, train_loss=mean_loss))
                if cfg.log_every and epoch % cfg.log_every == 0:
                    logger.info("finetune[%s] epoch %d loss %.5f", task, epoch, mean_loss)
        finally:
            if engine is not None:
                engine.close()

        model.eval()
        validation_metrics = None
        if validation_dataset is not None and len(validation_dataset) > 0:
            validation_metrics = evaluate_model(model, validation_dataset, task)
            history.append(
                EpochRecord(
                    epoch=cfg.epochs,
                    train_loss=history.final_loss(),
                    metrics=validation_metrics.as_dict(),
                )
            )
        return FinetuneResult(
            model=model, history=history, validation_metrics=validation_metrics, task=task
        )


def finetune_classifier(
    backbone: SagaBackbone,
    train_dataset: IMUDataset,
    task: str,
    validation_dataset: Optional[IMUDataset] = None,
    config: Optional[FinetuneConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> FinetuneResult:
    """Functional convenience wrapper around :class:`Finetuner`."""
    return Finetuner(config).finetune(
        backbone, train_dataset, task, validation_dataset=validation_dataset, rng=rng
    )

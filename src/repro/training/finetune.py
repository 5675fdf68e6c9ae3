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
from ..exceptions import TrainingError
from ..models.backbone import SagaBackbone
from ..models.composite import ClassificationModel, build_classification_model
from ..nn import Adam
from ..obs.profiling import PhaseTimer
from .history import EpochRecord, TrainingHistory
from .metrics import ClassificationMetrics
from .trainer import LoopConfig, classification_step, evaluate_model, run_training

# Re-exported, not called here: perfbench's traced run wraps this module
# attribute by name.  The shared loop in .trainer does the clipping.
from ..nn import clip_grad_norm  # noqa: F401


@dataclass
class FinetuneConfig(LoopConfig):
    """Hyper-parameters of downstream fine-tuning."""

    classifier_hidden_dim: int = 32
    freeze_backbone: bool = False


@dataclass
class FinetuneResult:
    """Outcome of one fine-tuning run."""

    model: ClassificationModel
    history: TrainingHistory
    validation_metrics: Optional[ClassificationMetrics]
    task: str


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
        loader = DataLoader(
            train_dataset, batch_size=cfg.batch_size, task=task, shuffle=True, rng=generator
        )
        history = run_training(
            model, classification_step, loader, optimizer, cfg, generator, PhaseTimer("finetune")
        )
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

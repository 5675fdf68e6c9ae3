"""TPN baseline (Saeed et al., IMWUT 2019) — transformation-prediction networks.

TPN pre-trains a small convolutional encoder with multi-task self-supervision:
for each of a set of signal transformations, a binary head predicts whether
the transformation was applied to the input window.  After pre-training, an
MLP classifier is trained on top of the (frozen-structure, trainable) encoder.

TPN's encoder is deliberately small — the paper's Table IV / Figure 13 show
it has the lowest training time and inference latency but also markedly lower
accuracy, which this implementation reproduces structurally.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..datasets.base import IMUDataset
from ..datasets.loaders import DataLoader
from ..exceptions import TrainingError
from ..models.classifier import MLPClassifier
from ..obs.profiling import PhaseTimer
from ..rng import make_rng
from ..nn import (
    Adam,
    Conv1d,
    CrossEntropyLoss,
    GlobalMaxPool1d,
    Linear,
    Module,
    ModuleList,
    Sequential,
    Tensor,
    get_default_dtype,
)
from ..signal.augmentations import get_augmentation
from ..training.metrics import ClassificationMetrics
from ..training.trainer import SupervisedTrainer, evaluate_model, run_training
from .base import MethodBudget, PerceptionMethod


class SmallConvEncoder(Module):
    """Compact two-block convolutional encoder (the TPN trunk)."""

    def __init__(
        self,
        input_channels: int,
        embedding_dim: int = 48,
        channel_sizes: Sequence[int] = (24, 48),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        generator = rng if rng is not None else make_rng()
        sizes = list(channel_sizes)
        self.conv1 = Conv1d(input_channels, sizes[0], kernel_size=7, stride=3, padding=3, rng=generator)
        self.conv2 = Conv1d(sizes[0], sizes[1], kernel_size=5, stride=2, padding=2, rng=generator)
        self.pool = GlobalMaxPool1d()
        self.projection = Linear(sizes[1], embedding_dim, rng=generator)
        self.embedding_dim = embedding_dim

    def forward(self, windows) -> Tensor:
        x = Tensor(np.asarray(windows, dtype=get_default_dtype())) if not isinstance(windows, Tensor) else windows
        x = self.conv1(x).relu()
        x = self.conv2(x).relu()
        return self.projection(self.pool(x))


class TPNMethod(PerceptionMethod):
    """Multi-task transformation-prediction pre-training."""

    name = "tpn"

    def __init__(
        self,
        budget: Optional[MethodBudget] = None,
        embedding_dim: int = 48,
        transformations: Sequence[str] = ("rotation", "scaling", "jitter", "negation"),
        classifier_hidden_dim: int = 48,
    ) -> None:
        self.budget = budget if budget is not None else MethodBudget()
        self.embedding_dim = embedding_dim
        self.transformations = tuple(transformations)
        self.classifier_hidden_dim = classifier_hidden_dim
        self._encoder: Optional[SmallConvEncoder] = None
        self._classifier_model: Optional[Sequential] = None

    # ------------------------------------------------------------------
    def pretrain(self, unlabelled: IMUDataset, rng: np.random.Generator) -> None:
        encoder = SmallConvEncoder(unlabelled.num_channels, embedding_dim=self.embedding_dim, rng=rng)
        heads = [Linear(self.embedding_dim, 2, rng=rng) for _ in self.transformations]
        transforms = [get_augmentation(name) for name in self.transformations]
        loss_fn = CrossEntropyLoss()

        def transformation_step(model, batch, step_rng):
            """Sum over transformations of the loss of predicting whether each was applied."""
            encoder, *heads = model
            total = None
            for transform, head in zip(transforms, heads):
                apply_mask = step_rng.random(len(batch)) < 0.5
                inputs = batch.windows.copy()
                if apply_mask.any():
                    inputs[apply_mask] = transform(inputs[apply_mask], step_rng)
                loss = loss_fn(head(encoder(inputs)), apply_mask.astype(np.int64))
                total = loss if total is None else total + loss
            return total

        if self.budget.pretrain_epochs:
            model = ModuleList([encoder, *heads])
            loader = DataLoader(unlabelled, batch_size=self.budget.batch_size, shuffle=True, rng=rng)
            optimizer = Adam(model.parameters(), lr=self.budget.learning_rate)
            config = self.budget.loop_config(self.budget.pretrain_epochs)
            run_training(model, transformation_step, loader, optimizer, config, rng, PhaseTimer("tpn"))
        self._encoder = encoder.eval()

    def fit(
        self,
        labelled: IMUDataset,
        task: str,
        validation: Optional[IMUDataset],
        rng: np.random.Generator,
    ) -> None:
        if self._encoder is None:
            raise TrainingError("TPN requires pretrain() before fit()")
        del validation
        classifier = MLPClassifier(
            self.embedding_dim, labelled.num_classes(task), hidden_dim=self.classifier_hidden_dim, rng=rng
        )
        model = Sequential(self._encoder, classifier)
        SupervisedTrainer(self.budget.loop_config(self.budget.finetune_epochs)).fit(
            model, labelled, task, rng=rng
        )
        self._classifier_model = model

    def evaluate(self, dataset: IMUDataset, task: str) -> ClassificationMetrics:
        if self._classifier_model is None:
            raise TrainingError("TPN must be fitted before evaluation")
        return evaluate_model(self._classifier_model, dataset, task)

    def num_parameters(self) -> int:
        if self._classifier_model is not None:
            return self._classifier_model.num_parameters()
        if self._encoder is None:
            raise TrainingError("TPN has no model yet")
        return self._encoder.num_parameters()

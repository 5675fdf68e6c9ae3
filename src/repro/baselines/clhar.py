"""CL-HAR baseline (Qian et al., KDD 2022) — contrastive pre-training.

CL-HAR pre-trains a convolutional encoder with SimCLR-style contrastive
learning: every window is transformed into two augmented views, projected
through an MLP head, and the NT-Xent loss pulls the two views of the same
window together while pushing the other windows in the batch apart.  The
encoder is then fine-tuned with an MLP classifier on the labelled subset.

Following the paper's setup, only "complete" augmentations (expressible in
terms of the original observations and known physical states) are used —
rotation, scaling and jitter.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..datasets.base import IMUDataset
from ..datasets.loaders import DataLoader
from ..exceptions import ConfigurationError, TrainingError
from ..models.classifier import MLPClassifier
from ..obs.profiling import PhaseTimer
from ..rng import make_rng
from ..nn import (
    Adam,
    Conv1d,
    GlobalMaxPool1d,
    Linear,
    Module,
    NTXentLoss,
    Sequential,
    Tensor,
    get_default_dtype,
)
from ..signal.augmentations import compose
from ..training.metrics import ClassificationMetrics
from ..training.trainer import SupervisedTrainer, evaluate_model, run_training
from .base import MethodBudget, PerceptionMethod


class ConvEncoder(Module):
    """Three-block 1-D convolutional encoder producing window-level embeddings."""

    def __init__(
        self,
        input_channels: int,
        embedding_dim: int = 96,
        channel_sizes: Sequence[int] = (32, 64, 96),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        generator = rng if rng is not None else make_rng()
        sizes = list(channel_sizes)
        self.conv1 = Conv1d(input_channels, sizes[0], kernel_size=5, stride=2, padding=2, rng=generator)
        self.conv2 = Conv1d(sizes[0], sizes[1], kernel_size=5, stride=2, padding=2, rng=generator)
        self.conv3 = Conv1d(sizes[1], sizes[2], kernel_size=3, stride=1, padding=1, rng=generator)
        self.pool = GlobalMaxPool1d()
        self.projection = Linear(sizes[2], embedding_dim, rng=generator)
        self.embedding_dim = embedding_dim

    def forward(self, windows) -> Tensor:
        x = Tensor(np.asarray(windows, dtype=get_default_dtype())) if not isinstance(windows, Tensor) else windows
        x = self.conv1(x).relu()
        x = self.conv2(x).relu()
        x = self.conv3(x).relu()
        return self.projection(self.pool(x))


class ProjectionHead(Module):
    """Two-layer MLP projection head used only during contrastive pre-training."""

    def __init__(self, input_dim: int, output_dim: int = 48, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        generator = rng if rng is not None else make_rng()
        self.dense = Linear(input_dim, input_dim, rng=generator)
        self.output = Linear(input_dim, output_dim, rng=generator)

    def forward(self, x: Tensor) -> Tensor:
        return self.output(self.dense(x).relu())


class CLHARMethod(PerceptionMethod):
    """SimCLR-style contrastive pre-training on IMU windows."""

    name = "clhar"

    def __init__(
        self,
        budget: Optional[MethodBudget] = None,
        embedding_dim: int = 96,
        temperature: float = 0.5,
        augmentations: Sequence[str] = ("rotation", "scaling", "jitter"),
        classifier_hidden_dim: int = 64,
    ) -> None:
        self.budget = budget if budget is not None else MethodBudget()
        self.embedding_dim = embedding_dim
        self.temperature = temperature
        self.augmentations = tuple(augmentations)
        self.classifier_hidden_dim = classifier_hidden_dim
        self._encoder: Optional[ConvEncoder] = None
        self._classifier_model: Optional[Sequential] = None

    # ------------------------------------------------------------------
    def pretrain(self, unlabelled: IMUDataset, rng: np.random.Generator) -> None:
        if self.budget.batch_size < 2:
            raise ConfigurationError("CL-HAR's contrastive loss needs batch_size >= 2")
        encoder = ConvEncoder(unlabelled.num_channels, embedding_dim=self.embedding_dim, rng=rng)
        projector = ProjectionHead(self.embedding_dim, rng=rng)
        loss_fn = NTXentLoss(temperature=self.temperature)
        augment = compose(self.augmentations)

        def contrastive_step(model, batch, step_rng):
            """NT-Xent between the projections of two augmented views of each window."""
            view1 = augment(batch.windows, step_rng)
            view2 = augment(batch.windows, step_rng)
            return loss_fn(model(view1), model(view2))

        if self.budget.pretrain_epochs:
            model = Sequential(encoder, projector)
            loader = DataLoader(
                unlabelled,
                batch_size=self.budget.batch_size,
                shuffle=True,
                drop_last=True,
                rng=rng,
            )
            optimizer = Adam(model.parameters(), lr=self.budget.learning_rate)
            config = self.budget.loop_config(self.budget.pretrain_epochs)
            run_training(model, contrastive_step, loader, optimizer, config, rng, PhaseTimer("clhar"))
        self._encoder = encoder.eval()

    def fit(
        self,
        labelled: IMUDataset,
        task: str,
        validation: Optional[IMUDataset],
        rng: np.random.Generator,
    ) -> None:
        if self._encoder is None:
            raise TrainingError("CL-HAR requires pretrain() before fit()")
        del validation  # the contrastive baseline does not early-stop
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
            raise TrainingError("CL-HAR must be fitted before evaluation")
        return evaluate_model(self._classifier_model, dataset, task)

    def num_parameters(self) -> int:
        if self._classifier_model is not None:
            return self._classifier_model.num_parameters()
        if self._encoder is None:
            raise TrainingError("CL-HAR has no model yet")
        return self._encoder.num_parameters()

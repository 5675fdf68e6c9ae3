"""Common interface implemented by every candidate method.

The evaluation compares five methods (paper Section VII-A-3): Saga, LIMU,
CL-HAR, TPN and a no-pre-training supervised model.  They all follow the same
two-stage protocol — (1) optional pre-training on unlabelled windows,
(2) supervised training on a small labelled subset — so a shared abstract
interface keeps the experiment runner method-agnostic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..datasets.base import IMUDataset
from ..exceptions import ConfigurationError
from ..training.metrics import ClassificationMetrics
from ..training.trainer import TrainerConfig


@dataclass
class MethodBudget:
    """Shared training budget so all methods are compared fairly."""

    pretrain_epochs: int = 50
    finetune_epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if self.pretrain_epochs < 0 or self.finetune_epochs <= 0:
            raise ConfigurationError("epochs must be positive (pretrain may be zero)")
        if self.batch_size <= 0 or self.learning_rate <= 0:
            raise ConfigurationError("batch_size and learning_rate must be positive")

    def loop_config(self, epochs: int) -> TrainerConfig:
        """Settings of the shared training loop for ``epochs`` epochs of this budget."""
        return TrainerConfig(
            epochs=epochs, batch_size=self.batch_size, learning_rate=self.learning_rate, log_every=0
        )


class PerceptionMethod(abc.ABC):
    """A candidate method for the IMU-based user perception (IUP) problem."""

    #: Short identifier used in result tables ("saga", "limu", ...).
    name: str = "method"

    @abc.abstractmethod
    def pretrain(self, unlabelled: IMUDataset, rng: np.random.Generator) -> None:
        """Pre-train on unlabelled windows (may be a no-op)."""

    @abc.abstractmethod
    def fit(
        self,
        labelled: IMUDataset,
        task: str,
        validation: Optional[IMUDataset],
        rng: np.random.Generator,
    ) -> None:
        """Train the downstream classifier on the labelled subset."""

    @abc.abstractmethod
    def evaluate(self, dataset: IMUDataset, task: str) -> ClassificationMetrics:
        """Evaluate the trained classifier on ``dataset``."""

    @abc.abstractmethod
    def num_parameters(self) -> int:
        """Number of scalar parameters of the deployed (inference-time) model."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

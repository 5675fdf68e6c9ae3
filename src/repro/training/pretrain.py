"""Masked multi-level pre-training of the Saga backbone (paper Section V-A).

Each pre-training step:

1. draws a mini-batch of unlabelled windows;
2. produces one masked copy per active semantic level (MM module);
3. reconstructs every masked copy with the shared backbone + decoder;
4. computes the per-level masked-MSE losses and combines them with the
   task weights ``w = {w_se, w_po, w_sp, w_pe}`` (Eq. 7);
5. takes an Adam step on the combined loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from ..datasets.base import IMUDataset
from ..datasets.loaders import DataLoader
from ..exceptions import ConfigurationError, TrainingError
from ..masking.multi import MASK_LEVELS, MultiLevelMasker, MultiLevelMaskingConfig
from ..models.backbone import BackboneConfig
from ..models.composite import MaskedReconstructionModel, build_pretraining_model
from ..nn import Adam, Tensor, WeightedReconstructionLoss
from ..obs.profiling import PhaseTimer
from .history import TrainingHistory
from .trainer import LoopConfig, run_training

# Re-exported, not called here: perfbench's traced run wraps this module
# attribute by name.  The shared loop in .trainer does the clipping.
from ..nn import clip_grad_norm  # noqa: F401

DEFAULT_WEIGHTS: Dict[str, float] = {level: 0.25 for level in MASK_LEVELS}
"""Uniform default weights over the four pre-training tasks."""


def normalize_weights(weights: Mapping[str, float], levels=MASK_LEVELS) -> Dict[str, float]:
    """Clip to non-negative and renormalise so active weights sum to one.

    The LWS search operates on the weight simplex; normalising here makes the
    loss scale comparable across searched configurations.
    """
    clipped = {level: max(0.0, float(weights.get(level, 0.0))) for level in levels}
    total = sum(clipped.values())
    if total <= 0:
        raise ConfigurationError("at least one pre-training weight must be positive")
    return {level: value / total for level, value in clipped.items()}


@dataclass
class PretrainConfig(LoopConfig):
    """Hyper-parameters of backbone pre-training."""

    masking: MultiLevelMaskingConfig = field(default_factory=MultiLevelMaskingConfig)


@dataclass
class PretrainResult:
    """Outcome of one pre-training run."""

    model: MaskedReconstructionModel
    history: TrainingHistory
    weights: Dict[str, float]
    per_level_losses: Dict[str, float]


class Pretrainer:
    """Run weighted multi-level masked pre-training on unlabelled windows."""

    def __init__(
        self,
        config: Optional[PretrainConfig] = None,
        backbone_config: Optional[BackboneConfig] = None,
    ) -> None:
        self.config = config if config is not None else PretrainConfig()
        self.backbone_config = backbone_config

    def pretrain(
        self,
        dataset: IMUDataset,
        weights: Optional[Mapping[str, float]] = None,
        model: Optional[MaskedReconstructionModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> PretrainResult:
        """Pre-train a backbone on the (unlabelled) windows of ``dataset``.

        Parameters
        ----------
        dataset:
            Source of unlabelled windows (labels, if any, are ignored).
        weights:
            Pre-training task weights; defaults to uniform.  Only the levels
            active in the masking configuration receive gradient signal.
        model:
            Optional existing model to continue training; a fresh model is
            created when omitted.
        rng:
            Generator for masking, shuffling and (when ``model`` is None)
            weight initialisation.
        """
        if len(dataset) == 0:
            raise TrainingError("cannot pre-train on an empty dataset")
        cfg = self.config
        generator = rng if rng is not None else np.random.default_rng(cfg.seed)

        backbone_config = self.backbone_config
        if backbone_config is None:
            backbone_config = BackboneConfig(
                input_channels=dataset.num_channels,
                window_length=dataset.window_length,
            )
        if model is None:
            model = build_pretraining_model(backbone_config, rng=generator)

        masker = MultiLevelMasker(cfg.masking)
        active_levels = masker.levels
        task_weights = normalize_weights(
            weights if weights is not None else DEFAULT_WEIGHTS, levels=active_levels
        )

        loss_fn = WeightedReconstructionLoss(level_names=active_levels)
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        loader = DataLoader(
            dataset, batch_size=cfg.batch_size, shuffle=True, rng=generator
        )

        def masked_reconstruction_loss(replica, batch, step_rng):
            """Forward one (sub-)batch through every masking level on ``replica``.

            Returns the weighted total loss plus the per-level losses as
            auxiliary metrics, which the loop averages into each epoch's record.
            """
            masked_by_level = masker.mask_all_levels(batch.windows, step_rng)
            reconstructions = replica.reconstruct_all_levels(
                {level: result.masked for level, result in masked_by_level.items()}
            )
            losses = loss_fn.compute(
                reconstructions,
                Tensor(batch.windows),
                {level: result.mask for level, result in masked_by_level.items()},
                task_weights,
            )
            aux = {level: float(losses[level].data) for level in active_levels}
            return losses["total"], aux

        history = run_training(
            model, masked_reconstruction_loss, loader, optimizer, cfg, generator,
            PhaseTimer("pretrain"),
        )
        return PretrainResult(
            model=model,
            history=history,
            weights=dict(task_weights),
            per_level_losses=dict(history.records[-1].metrics),
        )


def pretrain_backbone(
    dataset: IMUDataset,
    weights: Optional[Mapping[str, float]] = None,
    config: Optional[PretrainConfig] = None,
    backbone_config: Optional[BackboneConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> PretrainResult:
    """Functional convenience wrapper around :class:`Pretrainer`."""
    return Pretrainer(config, backbone_config).pretrain(dataset, weights=weights, rng=rng)

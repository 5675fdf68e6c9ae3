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
from ..logging_utils import get_logger
from ..masking.multi import MASK_LEVELS, MultiLevelMasker, MultiLevelMaskingConfig
from ..models.backbone import BackboneConfig
from ..models.composite import MaskedReconstructionModel, build_pretraining_model
from ..nn import Adam, WeightedReconstructionLoss, clip_grad_norm
from .history import EpochRecord, TrainingHistory
from .trainer import validate_parallel_fields

logger = get_logger(__name__)

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
class PretrainConfig:
    """Hyper-parameters of backbone pre-training."""

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    masking: MultiLevelMaskingConfig = field(default_factory=MultiLevelMaskingConfig)
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
        if cfg.prefetch_batches:
            from ..parallel.prefetch import PrefetchDataLoader

            loader = PrefetchDataLoader(loader, depth=cfg.prefetch_batches)

        from ..nn.tensor import Tensor  # local import to avoid cycle at module load

        def masked_reconstruction_loss(replica, batch, step_rng):
            """Forward one (sub-)batch through every masking level on ``replica``.

            Returns the weighted total loss plus the per-level losses as
            auxiliary metrics; used directly by the single-process loop and as
            the worker step function of the data-parallel engine.
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

        history = TrainingHistory()
        last_per_level: Dict[str, float] = {}
        # train() must precede engine.start(): replicas inherit the master's
        # train/eval mode at clone/fork time and broadcast() only syncs
        # parameters, so a model that was eval()ed by a previous run would
        # otherwise pre-train with dropout disabled in every worker.
        model.train()
        engine = None
        if cfg.num_workers > 0:
            from ..parallel.engine import DataParallelEngine

            engine = DataParallelEngine(
                model,
                masked_reconstruction_loss,
                num_workers=cfg.num_workers,
                backend=cfg.parallel_backend,
                seed=cfg.seed,
            )
            engine.start()
        try:
            for epoch in range(cfg.epochs):
                epoch_loss = 0.0
                per_level_sums = {level: 0.0 for level in active_levels}
                batches = 0
                for batch in loader:
                    if engine is not None:
                        loss_value, aux = engine.train_step(
                            batch, optimizer, grad_clip=cfg.grad_clip
                        )
                    else:
                        total, aux = masked_reconstruction_loss(model, batch, generator)
                        optimizer.zero_grad()
                        total.backward()
                        if cfg.grad_clip > 0:
                            clip_grad_norm(model.parameters(), cfg.grad_clip)
                        optimizer.step()
                        loss_value = float(total.data)
                        # Drop the root so this step's graph is freed before
                        # the next forward records a new one.
                        del total

                    epoch_loss += loss_value
                    for level in active_levels:
                        per_level_sums[level] += aux.get(level, 0.0)
                    batches += 1

                mean_loss = epoch_loss / max(batches, 1)
                last_per_level = {
                    level: value / max(batches, 1) for level, value in per_level_sums.items()
                }
                history.append(
                    EpochRecord(epoch=epoch, train_loss=mean_loss, metrics=dict(last_per_level))
                )
                if cfg.log_every and epoch % cfg.log_every == 0:
                    logger.info("pretrain epoch %d loss %.5f", epoch, mean_loss)
        finally:
            if engine is not None:
                engine.close()

        model.eval()
        return PretrainResult(
            model=model,
            history=history,
            weights=dict(task_weights),
            per_level_losses=last_per_level,
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

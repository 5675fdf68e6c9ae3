"""Experiment runner: builds methods, runs the evaluation protocol, collects results.

This module drives every accuracy figure of the paper (Fig. 6–12).  It is
deliberately configuration-driven: an :class:`ExperimentProfile` controls the
dataset scale, model size and training budget, so the same code reproduces
the paper-scale experiment on a GPU-class budget (``paper`` profile) and a
minutes-scale CPU run for the benchmark harness (``bench`` / ``ci``
profiles).  Absolute numbers shrink with the budget, and the paper's
qualitative orderings need not survive the smaller budgets: the committed
bench-profile ``benchmarks/baselines/BENCH_fig6_overall.json`` ranks Saga
last by mean accuracy over its 20 cells (saga 0.474, limu 0.509,
no_pretrain 0.525, clhar 0.554, tpn 0.571).
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import CLHARMethod, LIMUMethod, MethodBudget, NoPretrainMethod, PerceptionMethod, TPNMethod
from ..bayesopt.search import LWSConfig
from ..datasets.base import DatasetSplits, IMUDataset
from ..datasets.registry import load_dataset
from ..evaluation.protocol import LABELLING_RATES, validate_pair
from ..evaluation.results import ExperimentRecord, ResultTable
from ..exceptions import ConfigurationError
from ..logging_utils import get_logger
from ..models.backbone import BackboneConfig
from .saga import SagaMethod

logger = get_logger(__name__)


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale knobs for one experiment run."""

    name: str
    dataset_scale: float
    window_length: int
    hidden_dim: int
    num_layers: int
    num_heads: int
    intermediate_dim: int
    pretrain_epochs: int
    finetune_epochs: int
    batch_size: int
    lws_budget: int
    lws_initial_random: int
    learning_rate: float = 1e-3
    saga_weights_policy: str = "search"
    labelling_rates: Tuple[float, ...] = LABELLING_RATES
    seed: int = 0

    def backbone_config(self, input_channels: int) -> BackboneConfig:
        """Backbone architecture for this profile."""
        return BackboneConfig(
            input_channels=input_channels,
            window_length=self.window_length,
            hidden_dim=self.hidden_dim,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            intermediate_dim=self.intermediate_dim,
        )

    def budget(self) -> MethodBudget:
        """Shared training budget for all candidate methods."""
        return MethodBudget(
            pretrain_epochs=self.pretrain_epochs,
            finetune_epochs=self.finetune_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
        )

    def lws_config(self) -> LWSConfig:
        return LWSConfig(budget=self.lws_budget, initial_random=self.lws_initial_random)


PROFILES: Dict[str, ExperimentProfile] = {
    # Paper-scale settings (Section VII-A-1): window 120, hidden 72, 4 blocks,
    # 50 + 50 epochs.  Intended for long unattended runs.
    "paper": ExperimentProfile(
        name="paper", dataset_scale=1.0, window_length=120,
        hidden_dim=72, num_layers=4, num_heads=4, intermediate_dim=144,
        pretrain_epochs=50, finetune_epochs=50, batch_size=32,
        lws_budget=8, lws_initial_random=3, saga_weights_policy="search",
    ),
    # Reduced settings that still run every component (including LWS search)
    # in tens of minutes on a laptop CPU.
    "quick": ExperimentProfile(
        name="quick", dataset_scale=0.15, window_length=60,
        hidden_dim=36, num_layers=2, num_heads=2, intermediate_dim=72,
        pretrain_epochs=10, finetune_epochs=25, batch_size=32,
        lws_budget=4, lws_initial_random=2, learning_rate=2e-3,
        saga_weights_policy="search",
    ),
    # Benchmark-harness settings: minutes for the full figure suite.  Saga uses
    # uniform multi-level weights here; the LWS search itself is exercised by
    # the ablation benchmark (Fig. 12) and its own unit tests.
    "bench": ExperimentProfile(
        name="bench", dataset_scale=0.06, window_length=40,
        hidden_dim=16, num_layers=1, num_heads=2, intermediate_dim=32,
        pretrain_epochs=5, finetune_epochs=20, batch_size=32,
        lws_budget=3, lws_initial_random=2, learning_rate=3e-3,
        saga_weights_policy="uniform",
    ),
    # Continuous-integration settings: seconds per experiment, used by tests.
    "ci": ExperimentProfile(
        name="ci", dataset_scale=0.02, window_length=30,
        hidden_dim=8, num_layers=1, num_heads=1, intermediate_dim=16,
        pretrain_epochs=1, finetune_epochs=2, batch_size=16,
        lws_budget=2, lws_initial_random=1, learning_rate=3e-3,
        saga_weights_policy="uniform",
        labelling_rates=(0.10, 0.20),
    ),
}


def get_profile(name: Optional[str] = None) -> ExperimentProfile:
    """Resolve a profile by name, honouring the ``REPRO_PROFILE`` environment variable."""
    if name is None:
        name = os.environ.get("REPRO_PROFILE", "bench")
    key = name.lower()
    if key not in PROFILES:
        raise ConfigurationError(f"unknown profile {name!r}; available: {sorted(PROFILES)}")
    return PROFILES[key]


ALL_METHOD_NAMES: Tuple[str, ...] = ("saga", "limu", "clhar", "tpn", "no_pretrain")
"""The five candidate methods of the main comparison (Fig. 6)."""

TOP3_METHOD_NAMES: Tuple[str, ...] = ("saga", "limu", "clhar")
"""The top-3 methods shown in the per-task detail figures (Fig. 7–11)."""

ABLATION_METHOD_NAMES: Tuple[str, ...] = (
    "saga_sensor", "saga_point", "saga_subperiod", "saga_period", "saga_random", "saga",
)
"""The ablation variants of Fig. 12 (Saga(se./po./sp./pe./ran.) and full Saga)."""


def build_method(name: str, profile: ExperimentProfile, input_channels: int) -> PerceptionMethod:
    """Instantiate a candidate method scaled to ``profile``."""
    budget = profile.budget()
    backbone = profile.backbone_config(input_channels)
    key = name.lower()
    if key == "saga":
        return SagaMethod(
            weights=profile.saga_weights_policy,
            backbone_config=backbone,
            budget=budget,
            lws_config=profile.lws_config(),
            name="saga",
        )
    if key == "saga_random":
        return SagaMethod(weights="random", backbone_config=backbone, budget=budget, name="saga_random")
    if key == "saga_uniform":
        return SagaMethod(weights="uniform", backbone_config=backbone, budget=budget, name="saga_uniform")
    if key == "saga_search":
        return SagaMethod(
            weights="search", backbone_config=backbone, budget=budget,
            lws_config=profile.lws_config(), name="saga_search",
        )
    single_level = {
        "saga_sensor": "sensor",
        "saga_point": "point",
        "saga_subperiod": "subperiod",
        "saga_period": "period",
    }
    if key in single_level:
        level = single_level[key]
        return SagaMethod(
            weights={level: 1.0}, levels=(level,), backbone_config=backbone,
            budget=budget, name=key,
        )
    if key == "limu":
        return LIMUMethod(backbone_config=backbone, budget=budget)
    if key == "clhar":
        return CLHARMethod(budget=budget)
    if key == "tpn":
        return TPNMethod(budget=budget)
    if key == "no_pretrain":
        return NoPretrainMethod(backbone_config=backbone, budget=budget)
    raise ConfigurationError(f"unknown method {name!r}")


@dataclass
class ExperimentContext:
    """A dataset prepared for one (task, dataset) experiment."""

    dataset_name: str
    task_field: str
    splits: DatasetSplits
    profile: ExperimentProfile


class ExperimentRunner:
    """Run candidate methods through the paper's evaluation protocol."""

    def __init__(self, profile: Optional[ExperimentProfile] = None, seed: Optional[int] = None) -> None:
        self.profile = profile if profile is not None else get_profile()
        self.seed = seed if seed is not None else self.profile.seed
        self._dataset_cache: Dict[str, IMUDataset] = {}
        self._context_cache: Dict[Tuple[str, str], ExperimentContext] = {}

    # ------------------------------------------------------------------
    # Data preparation
    # ------------------------------------------------------------------
    def load(self, dataset_name: str) -> IMUDataset:
        """Load (and cache) one evaluation dataset at the profile's scale."""
        key = dataset_name.lower()
        if key not in self._dataset_cache:
            dataset = load_dataset(key, scale=self.profile.dataset_scale)
            if self.profile.window_length < dataset.window_length:
                # Stride-subsample the time axis so the reduced window still spans
                # the full 6-second recording (keeping its periodic structure)
                # instead of truncating to the first fraction of it.
                stride = max(1, dataset.window_length // self.profile.window_length)
                subsampled = dataset.windows[:, ::stride, :][:, : self.profile.window_length, :]
                dataset = IMUDataset(
                    windows=subsampled,
                    labels=dataset.labels,
                    metadata=replace(dataset.metadata, window_length=subsampled.shape[1]),
                )
            self._dataset_cache[key] = dataset
        return self._dataset_cache[key]

    def context(self, task_code: str, dataset_name: str) -> ExperimentContext:
        """Prepare the splits for one (task, dataset) pair (cached)."""
        spec = validate_pair(task_code, dataset_name)
        key = (task_code.upper(), dataset_name.lower())
        if key not in self._context_cache:
            dataset = self.load(dataset_name)
            splits = dataset.split(
                rng=np.random.default_rng(self.seed), stratify_task=spec.label_field
            )
            self._context_cache[key] = ExperimentContext(
                dataset_name=dataset_name.lower(),
                task_field=spec.label_field,
                splits=splits,
                profile=self.profile,
            )
        return self._context_cache[key]

    # ------------------------------------------------------------------
    # Single runs
    # ------------------------------------------------------------------
    def run_single(
        self,
        method_name: str,
        task_code: str,
        dataset_name: str,
        labelling_rate: float,
        seed: Optional[int] = None,
    ) -> ExperimentRecord:
        """Run one method at one labelling rate and return its test metrics."""
        context = self.context(task_code, dataset_name)
        run_seed = seed if seed is not None else self.seed
        rng = np.random.default_rng(run_seed)
        method = build_method(method_name, self.profile, context.splits.train.num_channels)
        method.pretrain(context.splits.train, rng)
        return self._fit_and_evaluate(
            method, context, task_code, labelling_rate, run_seed, rng
        )

    def _fit_and_evaluate(
        self,
        method: PerceptionMethod,
        context: ExperimentContext,
        task_code: str,
        labelling_rate: float,
        seed: int,
        rng: np.random.Generator,
    ) -> ExperimentRecord:
        task_field = context.task_field
        labelled = context.splits.train.labelled_fraction(
            task_field, labelling_rate, rng=np.random.default_rng(seed + 1)
        )
        method.fit(labelled, task_field, context.splits.validation, rng)
        metrics = method.evaluate(context.splits.test, task_field)
        logger.info(
            "%s %s/%s rate=%.0f%% acc=%.3f f1=%.3f",
            method.name, task_code, context.dataset_name, 100 * labelling_rate,
            metrics.accuracy, metrics.f1,
        )
        return ExperimentRecord(
            method=method.name,
            task=task_code.upper(),
            dataset=context.dataset_name,
            labelling_rate=labelling_rate,
            accuracy=metrics.accuracy,
            f1=metrics.f1,
            num_train_samples=len(labelled),
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def run_rate_sweep(
        self,
        method_name: str,
        task_code: str,
        dataset_name: str,
        labelling_rates: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
    ) -> List[ExperimentRecord]:
        """Run one method at every labelling rate, sharing the pre-training stage.

        Pre-training does not depend on the labelling rate, so the method is
        pre-trained once and a deep copy is fine-tuned per rate.  This
        mirrors how the paper's experiments amortise pre-training and keeps
        the benchmark harness tractable on CPU.
        """
        context = self.context(task_code, dataset_name)
        rates = tuple(labelling_rates) if labelling_rates is not None else self.profile.labelling_rates
        run_seed = seed if seed is not None else self.seed
        rng = np.random.default_rng(run_seed)
        method = build_method(method_name, self.profile, context.splits.train.num_channels)
        method.pretrain(context.splits.train, rng)
        records = []
        for rate in rates:
            trial = copy.deepcopy(method)
            trial_rng = np.random.default_rng(run_seed + int(round(rate * 1000)))
            records.append(
                self._fit_and_evaluate(trial, context, task_code, rate, run_seed, trial_rng)
            )
        return records

    def run_comparison(
        self,
        method_names: Sequence[str],
        task_code: str,
        dataset_name: str,
        labelling_rates: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
    ) -> ResultTable:
        """Compare several methods on one (task, dataset) pair across labelling rates."""
        table = ResultTable()
        for method_name in method_names:
            table.extend(
                self.run_rate_sweep(
                    method_name, task_code, dataset_name,
                    labelling_rates=labelling_rates, seed=seed,
                )
            )
        return table

    def run_full_matrix(
        self,
        method_names: Sequence[str] = ALL_METHOD_NAMES,
        pairs: Optional[Sequence[Tuple[str, str]]] = None,
        labelling_rates: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
    ) -> ResultTable:
        """Run the full Fig. 6 matrix: all methods x all (task, dataset) pairs x rates."""
        from ..evaluation.protocol import task_dataset_pairs

        table = ResultTable()
        for task_code, dataset_name in (pairs if pairs is not None else task_dataset_pairs()):
            table.extend(
                self.run_comparison(
                    method_names, task_code, dataset_name,
                    labelling_rates=labelling_rates, seed=seed,
                ).records
            )
        return table

    # ------------------------------------------------------------------
    # Reference (full-label) accuracy for relative reporting
    # ------------------------------------------------------------------
    def reference_metrics(
        self, task_code: str, dataset_name: str, method_name: str = "limu", seed: Optional[int] = None
    ) -> ExperimentRecord:
        """Train the reference method on *all* training labels (the paper's normaliser)."""
        return self.run_single(method_name, task_code, dataset_name, labelling_rate=1.0, seed=seed)

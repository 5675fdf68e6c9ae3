"""Figure and table data generators.

One function per table/figure of the paper's evaluation section.  Each
returns a structured result (a :class:`~repro.evaluation.results.ResultTable`
or a list of dict rows) and can render itself as plain text, so the benchmark
harness under ``benchmarks/`` simply calls these and prints the output.

The experiment-backed figures (Figs. 6–12) define their grids as
:class:`~repro.experiments.spec.ExperimentSpec` lists and execute them
through the resumable :class:`~repro.experiments.runner.Runner`, so repeated
figure builds replay from the content-addressed stage cache and different
figures share overlapping stages (Figs. 7–11 are sub-grids of Fig. 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.experiment import (
    ABLATION_METHOD_NAMES,
    ALL_METHOD_NAMES,
    TOP3_METHOD_NAMES,
    ExperimentProfile,
    ExperimentRunner,
    get_profile,
)
from ..datasets.registry import load_dataset
from ..deployment.cost_model import make_training_cost
from ..deployment.devices import all_phones
from ..deployment.latency import LatencyMeasurement, latency_by_phone, latency_table
from ..evaluation.protocol import TASKS
from ..evaluation.results import ResultTable, format_mapping_table
from ..exceptions import ConfigurationError
from ..experiments.grids import DETAIL_FIGURE_PAIRS
from ..experiments.runner import GridResult, Runner
from ..experiments.spec import expand_grid
from ..logging_utils import get_logger

logger = get_logger(__name__)


def _grid_runner(runner: Optional[Runner]) -> Runner:
    """Use the caller's Runner when given (shared cache), else a default one."""
    return runner if runner is not None else Runner()


# ----------------------------------------------------------------------
# Tables I-III: experimental setup (static descriptions)
# ----------------------------------------------------------------------
def table1_devices() -> List[Dict[str, object]]:
    """Table I: hardware configuration of the five evaluation phones."""
    return [
        {
            "phone": phone.name,
            "soc": phone.soc,
            "memory_gb": phone.memory_gb,
            "disk_gb": phone.disk_gb,
        }
        for phone in all_phones()
    ]


def table2_datasets(scale: float = 0.05) -> List[Dict[str, object]]:
    """Table II: dataset summary, regenerated from the dataset factories.

    ``scale`` controls how much data is synthesised just to introspect the
    shapes; the reported "paper_samples" column always states the full-scale
    target from Table II.
    """
    targets = {"hhar": 9166, "motion": 4534, "shoaib": 10500}
    rows = []
    for name in ("hhar", "motion", "shoaib"):
        dataset = load_dataset(name, scale=scale)
        sensors = sorted({channel.split("_")[0] for channel in dataset.metadata.sensor_channels})
        rows.append(
            {
                "dataset": name,
                "sensors": "+".join(sensors),
                "activities": dataset.num_classes("activity"),
                "users": dataset.num_classes("user"),
                "placements": dataset.num_classes("placement") if "placement" in dataset.labels else 0,
                "window": dataset.window_length,
                "samples": len(dataset),
                "paper_samples": targets[name],
            }
        )
    return rows


def table3_tasks() -> List[Dict[str, object]]:
    """Table III: the three downstream tasks and their datasets."""
    return [
        {
            "task": spec.code,
            "description": spec.description,
            "label_field": spec.label_field,
            "datasets": ",".join(spec.datasets),
        }
        for spec in TASKS.values()
    ]


# ----------------------------------------------------------------------
# Figure 6: overall comparison across all tasks / datasets / rates
# ----------------------------------------------------------------------
@dataclass
class OverallComparison:
    """Data behind Fig. 6: per-record results plus per-method aggregates."""

    table: ResultTable
    mean_accuracy: Dict[str, float]
    mean_f1: Dict[str, float]
    ranking: List[str]
    grid: Optional[GridResult] = None

    def format(self) -> str:
        lines = ["Figure 6 — mean accuracy by method and labelling rate", ""]
        lines.append(self.table.format_table("accuracy"))
        lines.append("")
        lines.append("Figure 6 — mean F1 by method and labelling rate")
        lines.append("")
        lines.append(self.table.format_table("f1"))
        lines.append("")
        lines.append("ranking (mean accuracy): " + " > ".join(self.ranking))
        return "\n".join(lines)


def figure6_overall(
    profile: Optional[ExperimentProfile] = None,
    method_names: Sequence[str] = ALL_METHOD_NAMES,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> OverallComparison:
    """Regenerate Fig. 6: all methods on all tasks and datasets at 5–20% labels."""
    resolved = profile if profile is not None else get_profile()
    specs = expand_grid(method_names, pairs=pairs, profile=resolved, seeds=(seed,))
    grid = _grid_runner(runner).run(specs)
    table = grid.table
    return OverallComparison(
        table=table,
        mean_accuracy=table.mean_by_method("accuracy"),
        mean_f1=table.mean_by_method("f1"),
        ranking=table.ranking("accuracy"),
        grid=grid,
    )


# ----------------------------------------------------------------------
# Figures 7-11: per-(task, dataset) detail of the top-3 methods
# ----------------------------------------------------------------------
@dataclass
class DetailComparison:
    """Data behind one of Figs. 7-11."""

    figure: str
    task: str
    dataset: str
    table: ResultTable
    grid: Optional[GridResult] = None

    def format(self) -> str:
        header = f"{self.figure} — {self.task} on {self.dataset}: accuracy by labelling rate"
        return "\n".join(
            [header, "", self.table.format_table("accuracy"), "",
             f"{self.figure} — F1 by labelling rate", "", self.table.format_table("f1")]
        )


_DETAIL_FIGURES: Dict[str, Tuple[str, str]] = {
    f"figure{name[3:]}": pair for name, pair in DETAIL_FIGURE_PAIRS.items()
}


def detail_figure(
    figure: str,
    profile: Optional[ExperimentProfile] = None,
    method_names: Sequence[str] = TOP3_METHOD_NAMES,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> DetailComparison:
    """Regenerate one of Figs. 7–11 (top-3 methods on one task/dataset pair)."""
    if figure not in _DETAIL_FIGURES:
        raise KeyError(f"unknown detail figure {figure!r}; available: {sorted(_DETAIL_FIGURES)}")
    task_code, dataset_name = _DETAIL_FIGURES[figure]
    resolved = profile if profile is not None else get_profile()
    specs = expand_grid(
        method_names, pairs=((task_code, dataset_name),), profile=resolved, seeds=(seed,)
    )
    grid = _grid_runner(runner).run(specs)
    return DetailComparison(
        figure=figure, task=task_code, dataset=dataset_name, table=grid.table, grid=grid
    )


def figure7_ar_hhar(**kwargs) -> DetailComparison:
    return detail_figure("figure7", **kwargs)


def figure8_ar_motion(**kwargs) -> DetailComparison:
    return detail_figure("figure8", **kwargs)


def figure9_ua_hhar(**kwargs) -> DetailComparison:
    return detail_figure("figure9", **kwargs)


def figure10_ua_shoaib(**kwargs) -> DetailComparison:
    return detail_figure("figure10", **kwargs)


def figure11_dp_shoaib(**kwargs) -> DetailComparison:
    return detail_figure("figure11", **kwargs)


# ----------------------------------------------------------------------
# Figure 12: ablation over masking levels and weight search
# ----------------------------------------------------------------------
@dataclass
class AblationComparison:
    """Data behind Fig. 12: single-level masks vs random weights vs full Saga."""

    table: ResultTable
    mean_accuracy: Dict[str, float]
    mean_f1: Dict[str, float]
    grid: Optional[GridResult] = None

    def format(self) -> str:
        rows = [
            {"variant": method, "accuracy": acc, "f1": self.mean_f1.get(method, float("nan"))}
            for method, acc in self.mean_accuracy.items()
        ]
        return "Figure 12 — ablation (mean over labelling rates)\n\n" + format_mapping_table(
            rows, columns=("variant", "accuracy", "f1")
        )


def figure12_ablation(
    profile: Optional[ExperimentProfile] = None,
    task_code: str = "AR",
    dataset_name: str = "hhar",
    method_names: Sequence[str] = ABLATION_METHOD_NAMES,
    labelling_rates: Optional[Sequence[float]] = None,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> AblationComparison:
    """Regenerate Fig. 12: per-level ablations, random weights and full Saga."""
    resolved = profile if profile is not None else get_profile()
    specs = expand_grid(
        method_names,
        pairs=((task_code, dataset_name),),
        labelling_rates=labelling_rates,
        profile=resolved,
        seeds=(seed,),
    )
    grid = _grid_runner(runner).run(specs)
    return AblationComparison(
        table=grid.table,
        mean_accuracy=grid.table.mean_by_method("accuracy"),
        mean_f1=grid.table.mean_by_method("f1"),
        grid=grid,
    )


# ----------------------------------------------------------------------
# Table IV: training costs
# ----------------------------------------------------------------------
def _measure_train_time_ms(
    method_name: str,
    profile: ExperimentProfile,
    dataset,
    repetitions: int = 3,
    seed: int = 0,
) -> Tuple[float, object]:
    """Measure the wall-clock training time of one batch for ``method_name``.

    Each repetition runs the method's full training pipeline (pre-training plus
    downstream fitting, one epoch each) on a single batch of windows, which
    makes the timing comparable across methods that pre-train eagerly (LIMU,
    CL-HAR, TPN) and methods that defer pre-training into ``fit`` (Saga).
    Returns ``(milliseconds per batch, fitted method)``; the fitted method
    provides the deployable model whose parameters and FLOPs define the
    Table IV / Fig. 13 numbers.
    """
    import copy as _copy

    from ..core.experiment import build_method

    rng = np.random.default_rng(seed)
    single_batch = dataset.subset(np.arange(min(profile.batch_size, len(dataset))))
    task = "activity" if "activity" in dataset.labels else list(dataset.labels)[0]

    method = build_method(method_name, profile, dataset.num_channels)
    method.budget.pretrain_epochs = 1
    method.budget.finetune_epochs = 1
    if hasattr(method, "weights_spec") and isinstance(method.weights_spec, str):
        # Avoid timing the LWS search itself: Table IV measures one training
        # pass, not the weight-search loop.
        if method.weights_spec == "search":
            method.weights_spec = "uniform"

    deploy = None
    start = time.perf_counter()
    for _ in range(repetitions):
        trial = _copy.deepcopy(method)
        trial.pretrain(single_batch, rng)
        trial.fit(single_batch, task, single_batch, rng)
        deploy = trial
    elapsed_ms = (time.perf_counter() - start) * 1000.0 / repetitions
    return elapsed_ms, deploy


def table4_training_costs(
    profile: Optional[ExperimentProfile] = None,
    dataset_name: str = "hhar",
    method_names: Sequence[str] = ("limu", "clhar", "tpn", "saga"),
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Regenerate Table IV: per-batch train time, parameters, disk, training memory."""
    resolved = profile if profile is not None else get_profile()
    dataset = ExperimentRunner(resolved, seed=seed).load(dataset_name)
    rows: List[Dict[str, object]] = []
    models = {}
    for method_name in method_names:
        elapsed_ms, deploy = _measure_train_time_ms(method_name, resolved, dataset, seed=seed)
        model = _deployable_model(deploy)
        models[method_name] = model
        cost = make_training_cost(
            method_name, model, resolved.window_length, measured_train_time_ms=elapsed_ms
        )
        rows.append(cost.as_dict())
    return rows


def _deployable_model(method) -> object:
    """Extract the inference-time model object from a fitted method."""
    model = getattr(method, "_classifier_model", None)
    if model is not None:
        return model
    pipeline = getattr(method, "_pipeline", None)
    if pipeline is not None and pipeline.classifier_model is not None:
        return pipeline.classifier_model
    raise ConfigurationError(f"cannot extract a deployable model from {method!r}")


# ----------------------------------------------------------------------
# Figure 13: inference latency on mobile phones
# ----------------------------------------------------------------------
def figure13_inference_latency(
    profile: Optional[ExperimentProfile] = None,
    dataset_name: str = "hhar",
    method_names: Sequence[str] = ("saga", "limu", "clhar", "tpn"),
    seed: int = 0,
) -> List[LatencyMeasurement]:
    """Regenerate Fig. 13: simulated single-window inference latency per phone."""
    resolved = profile if profile is not None else get_profile()
    dataset = ExperimentRunner(resolved, seed=seed).load(dataset_name)
    models = {}
    for method_name in method_names:
        _, deploy = _measure_train_time_ms(method_name, resolved, dataset, repetitions=1, seed=seed)
        models[method_name] = _deployable_model(deploy)
    return latency_table(models, resolved.window_length)


def format_latency_measurements(measurements: Sequence[LatencyMeasurement]) -> str:
    """Render Fig. 13 data as a phone x method text table."""
    pivot = latency_by_phone(measurements)
    methods = sorted({measurement.method for measurement in measurements})
    rows = []
    for phone, per_method in pivot.items():
        row: Dict[str, object] = {"phone": phone}
        row.update({method: per_method.get(method, float("nan")) for method in methods})
        rows.append(row)
    return format_mapping_table(rows, columns=["phone"] + methods)

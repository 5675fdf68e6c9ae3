"""The ``saga_fit`` workload: Saga's fit path end to end, in this process.

One operation round is ``SagaPipeline.fit(..., weights="search")``: the LWS
evaluations (each a pre-train plus a fine-tune) and the final pre-train plus
fine-tune with the best weights.  Rounds repeat on the same inputs until the
run's seconds are spent; every round must give the same result bit for bit.
The outputs are then checked against computations made here, apart from the
program: test accuracy, the LWS trials, the maskers' invariants, autograd
against finite differences, and the compiled float32 forward against the
eager float64 one.
"""

from __future__ import annotations

import copy
import math
import resource
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

import repro.core.saga
import repro.training.finetune
import repro.training.pretrain
from repro import SagaConfig, SagaPipeline, get_profile, load_dataset
from repro.bayesopt import BayesianOptimizer, LWSConfig, weight_simplex_grid
from repro.datasets import IMUDataset
from repro.masking import MultiLevelMasker
from repro.models import ClassificationModel, MaskedReconstructionModel, build_pretraining_model
from repro.nn import Adam, Tensor, WeightedReconstructionLoss, no_grad
from repro.training import Finetuner, FinetuneConfig, Pretrainer, PretrainConfig

from spans import SpanRecorder

TASK = "activity"
PROFILE = "bench"


@dataclass(frozen=True)
class FitSize:
    dataset_scale: float
    unlabelled_share: float
    labelling_rate: float
    pretrain_epochs: int
    finetune_epochs: int
    lws_budget: int
    lws_initial_random: int
    check_chance: bool


# ``full`` is what the benchmark measures: 0.36 of HHAR's 9,166 windows, split
# 6:2:2, gives 660-window validation and test splits, so sampling the test
# split adds little to the seed-to-seed spread of accuracy.  A third of the
# training split is the unlabelled pool and 10% of the training split is
# labelled, which keeps one fit at 15-22 s on a 2-vCPU Xeon.  ``tiny`` only
# exercises the code paths (for the smoke test), so its accuracy is not
# required to beat chance.
SIZES = {
    "full": FitSize(0.36, 1 / 3, 0.10, 1, 6, 3, 2, True),
    "tiny": FitSize(0.02, 1.0, 0.20, 1, 1, 2, 1, False),
}

CHANCE_Z = 3.09  # one-sided p < 0.001 against guessing uniformly


def _seeds(seed: int) -> Dict[str, int]:
    names = ("dataset", "split", "labels", "pool", "fit", "checks")
    values = np.random.SeedSequence([0x5A6A, seed]).generate_state(len(names))
    return {name: int(value) for name, value in zip(names, values)}


def _prepare(seed: int, size: FitSize, recorder: SpanRecorder):
    profile = get_profile(PROFILE)
    seeds = _seeds(seed)
    dataset = recorder.call(
        "datasets.generate", load_dataset, "hhar", scale=size.dataset_scale,
        seed=seeds["dataset"] % (2**31),
    )
    # Stride-subsample to the profile's window so a window still spans the
    # whole recording, as the experiment runner does for reduced profiles.
    stride = max(1, dataset.window_length // profile.window_length)
    windows = dataset.windows[:, ::stride, :][:, : profile.window_length, :]
    dataset = IMUDataset(
        windows=windows, labels=dataset.labels,
        metadata=replace(dataset.metadata, window_length=windows.shape[1]),
    )
    splits = dataset.split(rng=np.random.default_rng(seeds["split"]), stratify_task=TASK)
    labelled = splits.train.labelled_fraction(
        TASK, size.labelling_rate, rng=np.random.default_rng(seeds["labels"])
    )
    pool = np.random.default_rng(seeds["pool"]).permutation(len(splits.train))
    pool_size = int(round(size.unlabelled_share * len(pool)))
    unlabelled = splits.train.subset(np.sort(pool[:pool_size]))
    config = SagaConfig(
        backbone=profile.backbone_config(dataset.num_channels),
        pretrain=PretrainConfig(
            epochs=size.pretrain_epochs, batch_size=profile.batch_size,
            learning_rate=profile.learning_rate,
        ),
        finetune=FinetuneConfig(
            epochs=size.finetune_epochs, batch_size=profile.batch_size,
            learning_rate=profile.learning_rate,
        ),
        lws=LWSConfig(budget=size.lws_budget, initial_random=size.lws_initial_random),
    )
    return splits, unlabelled, labelled, config, seeds


def _instrument(recorder: SpanRecorder) -> None:
    """Wrap the public calls of each fit-path layer."""
    recorder.wrap(MultiLevelMasker, "mask_all_levels", "masking.mask_all_levels",
                  counter=lambda self, windows, *a, **k: {"masking.windows": len(windows)})
    recorder.wrap(MaskedReconstructionModel, "reconstruct_all_levels",
                  "models.reconstruct_all_levels")
    recorder.wrap(ClassificationModel, "forward", "models.classifier_forward")
    recorder.wrap(Tensor, "backward", "nn.backward")
    recorder.wrap(Adam, "step", "nn.adam_step")
    # The trainers call clip_grad_norm and evaluate_model through their own
    # module globals, so those are the names to wrap.
    recorder.wrap(repro.training.pretrain, "clip_grad_norm", "nn.clip_grad_norm")
    recorder.wrap(repro.training.finetune, "clip_grad_norm", "nn.clip_grad_norm")
    recorder.wrap(repro.training.finetune, "evaluate_model", "training.evaluate")
    recorder.wrap(repro.core.saga, "evaluate_model", "training.evaluate")
    recorder.wrap(
        Pretrainer, "pretrain", "training.pretrain",
        counter=lambda self, dataset, *a, **k: {
            "training.pretrain_windows": len(dataset) * self.config.epochs,
        },
    )
    recorder.wrap(Finetuner, "finetune", "training.finetune")
    recorder.wrap(BayesianOptimizer, "suggest", "bayesopt.suggest")


def _layer_metrics(recorder: SpanRecorder, rounds: int, pipeline: SagaPipeline) -> Dict[str, float]:
    per_fit = 1.0 / rounds
    pretrain_s = recorder.total_seconds(["training.pretrain"])
    trials = pipeline.search_result.trials
    return {
        "datasets.generate_s": recorder.total_seconds(["datasets.generate"]),
        "masking.mask_s": recorder.total_seconds(["masking.mask_all_levels"]) * per_fit,
        "masking.windows": recorder.counts.get("masking.windows", 0.0) * per_fit,
        "models.forward_s": recorder.total_seconds(
            ["models.reconstruct_all_levels", "models.classifier_forward"]) * per_fit,
        "nn.backward_s": recorder.total_seconds(["nn.backward"]) * per_fit,
        "nn.optimizer_s": recorder.total_seconds(["nn.adam_step", "nn.clip_grad_norm"]) * per_fit,
        "training.pretrain_s": pretrain_s * per_fit,
        "training.pretrain_calls": len(recorder.named("training.pretrain")) * per_fit,
        "training.pretrain_windows_per_s":
            recorder.counts.get("training.pretrain_windows", 0.0) / pretrain_s,
        "training.finetune_s": recorder.total_seconds(["training.finetune"]) * per_fit,
        "training.evaluate_s": recorder.total_seconds(["training.evaluate"]) * per_fit,
        "bayesopt.suggest_s": recorder.total_seconds(["bayesopt.suggest"]) * per_fit,
        "bayesopt.evaluations": float(len(trials)),
        "bayesopt.distinct_weights": float(len({tuple(sorted(t.weights.items())) for t in trials})),
        "core.fit_s": recorder.total_seconds(["core.fit"]) * per_fit,
        "core.unexplained_s": recorder.self_seconds("core.fit") * per_fit,
    }


# ----------------------------------------------------------------------
# Output checks, computed apart from the program
# ----------------------------------------------------------------------
def _check_accuracy(pipeline, test, size: FitSize, problems: List[str]) -> float:
    model = pipeline.classifier_model
    labels = test.task_labels(TASK)
    predicted = np.concatenate(
        [model.predict(test.windows[i:i + 256]) for i in range(0, len(test), 256)]
    )
    accuracy = float(np.mean(predicted == labels))
    reported = pipeline.evaluate(test, TASK).accuracy
    if abs(accuracy - reported) > 1e-12:
        problems.append(f"own test accuracy {accuracy} != evaluate() {reported}")
    chance = 1.0 / test.num_classes(TASK)
    n = len(test)
    z = (accuracy - chance) * n / math.sqrt(n * chance * (1.0 - chance))
    if size.check_chance and z < CHANCE_Z:
        problems.append(f"test accuracy {accuracy:.4f} is not clearly above chance {chance:.4f}")
    return accuracy


def _check_search(pipeline, config: SagaConfig, problems: List[str]) -> None:
    result = pipeline.search_result
    levels = config.levels
    if len(result.trials) != config.lws.budget:
        problems.append(f"LWS ran {len(result.trials)} of {config.lws.budget} evaluations")
    grid = weight_simplex_grid(levels, config.lws.grid_resolution)
    for trial in result.trials:
        vector = np.array([trial.weights[level] for level in levels])
        if (vector < 0).any() or abs(vector.sum() - 1.0) > 1e-9:
            problems.append(f"trial weights {trial.weights} are not on the simplex")
        if not np.isclose(grid, vector, atol=1e-12).all(axis=1).any():
            problems.append(f"trial weights {trial.weights} are not on the candidate grid")
    best = max(result.trials, key=lambda trial: trial.performance)
    for level in levels:
        if abs(pipeline.weights[level] - best.weights[level]) > 1e-9:
            problems.append(f"fit used weights {pipeline.weights}, best trial had {best.weights}")
            break


def _single_span(row: np.ndarray) -> bool:
    steps = np.flatnonzero(row)
    return steps.size == 0 or steps[-1] - steps[0] + 1 == steps.size


def _check_masking(masker: MultiLevelMasker, batch: np.ndarray, rng, problems: List[str]) -> None:
    results = masker.mask_all_levels(batch, rng)
    if tuple(results) != masker.levels:
        problems.append(f"masked levels {tuple(results)} != {masker.levels}")
    for level, result in results.items():
        mask = result.mask
        if mask.shape != batch.shape or mask.dtype != bool:
            problems.append(f"{level}: mask has shape {mask.shape} and dtype {mask.dtype}")
            continue
        if not np.array_equal(result.masked[~mask], batch[~mask]):
            problems.append(f"{level}: entries outside the mask changed")
        if np.any(result.masked[mask] != 0.0):
            problems.append(f"{level}: masked entries are not zero")
        if level == "sensor":
            if not (mask == mask[:, :1, :]).all() or not mask[:, 0, :].any(axis=1).all():
                problems.append("sensor: mask is not one or more whole axes per window")
        else:
            if not (mask == mask[:, :, :1]).all():
                problems.append(f"{level}: mask does not cover all axes of its time steps")
            if not all(_single_span(window_mask[:, 0]) for window_mask in mask):
                problems.append(f"{level}: masked time steps are not one contiguous span")
        if level in ("sensor", "point") and not mask.any():
            problems.append(f"{level}: nothing was masked")


def _check_gradient(config: SagaConfig, weights, masker, batch, rng, problems: List[str]) -> None:
    model = build_pretraining_model(config.backbone, rng=rng)
    model.eval()  # no dropout, so the loss is a deterministic function of the parameters
    masked = masker.mask_all_levels(batch, rng)
    loss_fn = WeightedReconstructionLoss(level_names=masker.levels)

    def loss() -> Tensor:
        reconstructions = model.reconstruct_all_levels(
            {level: result.masked for level, result in masked.items()})
        return loss_fn.compute(reconstructions, Tensor(batch),
                               {level: result.mask for level, result in masked.items()},
                               weights)["total"]

    model.zero_grad()
    loss().backward()
    params = [p for p in model.parameters() if p.grad is not None]
    eps = 1e-6
    for _ in range(6):
        param = params[int(rng.integers(len(params)))]
        index = int(rng.integers(param.data.size))
        flat = param.data.reshape(-1)
        original = flat[index]
        with no_grad():
            flat[index] = original + eps
            plus = float(loss().data)
            flat[index] = original - eps
            minus = float(loss().data)
        flat[index] = original
        numeric = (plus - minus) / (2 * eps)
        analytic = float(param.grad.reshape(-1)[index])
        if abs(analytic - numeric) > 1e-7 + 1e-4 * max(abs(analytic), abs(numeric)):
            problems.append(f"autograd {analytic:.9g} != finite difference {numeric:.9g}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _check_compiled(pipeline, test, problems: List[str]) -> None:
    model = pipeline.classifier_model
    windows = test.windows[:64]
    eager = model.predict_proba(windows)
    compiled = copy.deepcopy(model).to(np.float32).compile(bucket_sizes=[64])
    served = _softmax(compiled.run(windows.astype(np.float32)).astype(np.float64))
    if compiled.stats.replays < 1 or compiled.stats.fallbacks:
        problems.append(f"compiled forward did not replay: {compiled.stats.as_dict()}")
    deviation = float(np.abs(served - eager).max())
    if deviation > 1e-4:
        problems.append(f"compiled float32 forward differs from eager float64 by {deviation:.3g}")


def run(seed: int, seconds: float, trace: bool, size_name: str, started: float) -> dict:
    size = SIZES[size_name]
    recorder = SpanRecorder()
    recorder.enabled = trace
    splits, unlabelled, labelled, config, seeds = _prepare(seed, size, recorder)
    setup_s = time.perf_counter() - started
    if trace:
        _instrument(recorder)

    rounds: List[float] = []
    outcomes = []
    measure_start = time.perf_counter()
    while True:
        pipeline = SagaPipeline(copy.deepcopy(config))
        begin = time.perf_counter()
        recorder.call("core.fit", pipeline.fit, unlabelled, labelled, TASK,
                      splits.validation, weights="search",
                      rng=np.random.default_rng(seeds["fit"]))
        rounds.append(time.perf_counter() - begin)
        outcomes.append((dict(pipeline.weights),
                         [t.performance for t in pipeline.search_result.trials]))
        if time.perf_counter() - measure_start >= seconds:
            break
    recorder.enabled = False

    problems: List[str] = []
    if any(outcome != outcomes[0] for outcome in outcomes):
        problems.append("repeated fits on the same inputs gave different results")
    accuracy = _check_accuracy(pipeline, splits.test, size, problems)
    _check_search(pipeline, config, problems)
    check_rng = np.random.default_rng(seeds["checks"])
    batch = unlabelled.windows[check_rng.choice(len(unlabelled), size=16, replace=False)]
    masker = MultiLevelMasker(config.pretrain.masking)
    _check_masking(masker, batch, check_rng, problems)
    _check_gradient(config, pipeline.weights, masker, batch[:4], check_rng, problems)
    _check_compiled(pipeline, splits.test, problems)

    fits_per_round = config.lws.budget + 1
    windows_per_fit = fits_per_round * (
        len(unlabelled) * config.pretrain.epochs + len(labelled) * config.finetune.epochs
    )
    fit_s = float(np.median(rounds))
    if trace:
        for violation in recorder.nesting_violations():
            print(f"[perfbench] layer times do not nest: {violation}", file=sys.stderr, flush=True)
        metrics = _layer_metrics(recorder, len(rounds), pipeline)
    else:
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": 1000.0 * fit_s,
            "windows_per_s": windows_per_fit / fit_s,
            "test_accuracy": accuracy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "problems": problems,
        "attempted": fits_per_round * len(rounds),
        "failed": 0,
        "metrics": metrics,
        "recorder": recorder,
        "server_events": [],
    }

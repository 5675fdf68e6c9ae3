"""repro — reproduction of "Saga: Capturing Multi-granularity Semantics from
Massive Unlabelled IMU Data" (ICDCS 2025).

The package is organised as a small stack of subsystems (see ``DESIGN.md``):

* :mod:`repro.nn` — from-scratch autograd / neural-network framework, with a
  trace-and-replay compiled executor for inference (:mod:`repro.nn.jit`);
* :mod:`repro.signal` — IMU signal processing (energy, key points, periods);
* :mod:`repro.datasets` — synthetic HHAR / Motion / Shoaib-shaped datasets;
* :mod:`repro.masking` — the four semantic masking levels (MM module);
* :mod:`repro.models` — LIMU-BERT backbone, decoder, GRU classifier;
* :mod:`repro.training` — masked pre-training and downstream fine-tuning;
* :mod:`repro.bayesopt` — Gaussian Process + Expected Improvement (LWS);
* :mod:`repro.baselines` — LIMU, CL-HAR, TPN, no-pre-training;
* :mod:`repro.deployment` — phone cost model and latency simulation;
* :mod:`repro.serving` — online inference: model registry, micro-batching,
  streaming ingestion and telemetry on the ``no_grad`` fast path, fronted by
  an asyncio HTTP/1.1 gateway with admission control (``docs/PROTOCOL.md``);
* :mod:`repro.parallel` — data-parallel training: worker replicas, gradient
  all-reduce over shared memory, and the prefetching batch pipeline;
* :mod:`repro.obs` — observability: process-wide metrics registry
  (Prometheus text + JSON snapshot exporters), sampled request tracing with
  Chrome trace-event export, opt-in JIT/training profiling hooks, a
  cross-process snapshot/merge wire format with fork-safe state, and a live
  HTTP exposition endpoint (``/metrics``, ``/healthz``, ``/traces``);
* :mod:`repro.experiments` — resumable experiment orchestration: declarative
  grid specs, content-addressed stage caching, checkpoint/resume and the
  ``BENCH_*.json`` regression pipeline;
* :mod:`repro.analysis` — project-specific static analysis: an AST framework
  plus invariant checkers (dtype policy, determinism, asyncio hygiene, lock
  discipline, exception policy, annotation integrity) gating CI
  (``python -m repro.analysis check``, catalog in ``docs/ANALYSIS.md``);
* :mod:`repro.core` / :mod:`repro.evaluation` — pipeline, experiments, figures.

Quick start
-----------
>>> from repro import SagaPipeline, load_dataset
>>> dataset = load_dataset("hhar", scale=0.02)
>>> splits = dataset.split(stratify_task="activity")
>>> pipeline = SagaPipeline()
>>> pipeline.fit(splits.train, splits.train.few_shot("activity", 10),
...              "activity", splits.validation, weights="uniform")
>>> pipeline.evaluate(splits.test, "activity")
"""

from ._version import __version__
from .core.experiment import ExperimentProfile, ExperimentRunner, get_profile
from .core.saga import SagaConfig, SagaMethod, SagaPipeline
from .datasets.base import IMUDataset
from .datasets.registry import load_dataset
from .exceptions import (
    ConfigurationError,
    DataError,
    DeploymentError,
    MaskingError,
    ReproError,
    SearchError,
    TrainingError,
)
from .exceptions import (
    GatewayError,
    ObservabilityError,
    ParallelError,
    QueueFullError,
    ServingError,
)
from .experiments import (
    BenchReport,
    ExperimentSpec,
    GridResult,
    Runner,
    RunnerConfig,
    expand_grid,
    named_grid,
)
from .logging_utils import configure_logging, get_logger
from .obs import (
    MetricsRegistry,
    ObsHTTPServer,
    configure_tracing,
    get_registry,
    get_tracer,
    merge_snapshot,
    parse_prometheus_text,
    snapshot_registry,
)
from .parallel import DataParallelEngine, PrefetchDataLoader
from .rng import RNGRegistry, make_rng
from .serving import (
    GatewayConfig,
    InferenceGateway,
    InferenceServer,
    ModelRegistry,
    ServerConfig,
    serve,
    serve_gateway,
)

__all__ = [
    "__version__",
    "ExperimentSpec",
    "expand_grid",
    "named_grid",
    "Runner",
    "RunnerConfig",
    "GridResult",
    "BenchReport",
    "serve",
    "serve_gateway",
    "InferenceServer",
    "InferenceGateway",
    "GatewayConfig",
    "ModelRegistry",
    "ServerConfig",
    "SagaPipeline",
    "SagaConfig",
    "SagaMethod",
    "ExperimentRunner",
    "ExperimentProfile",
    "get_profile",
    "IMUDataset",
    "load_dataset",
    "RNGRegistry",
    "make_rng",
    "configure_logging",
    "get_logger",
    "ReproError",
    "ConfigurationError",
    "DataError",
    "MaskingError",
    "TrainingError",
    "SearchError",
    "DeploymentError",
    "ServingError",
    "QueueFullError",
    "GatewayError",
    "ParallelError",
    "ObservabilityError",
    "DataParallelEngine",
    "PrefetchDataLoader",
    "MetricsRegistry",
    "get_registry",
    "get_tracer",
    "configure_tracing",
    "ObsHTTPServer",
    "parse_prometheus_text",
    "snapshot_registry",
    "merge_snapshot",
]

"""Data-parallel training: sharded loading, all-reduce, prefetch pipeline.

The subsystem has three layers (see ``DESIGN.md`` for the architecture):

* :mod:`repro.parallel.allreduce` — synchronous weighted gradient all-reduce
  over shared-memory buffers (process backend) or an in-process numpy buffer
  (thread backend, the run-anywhere fallback);
* :mod:`repro.parallel.engine` — the worker pool: one model replica per
  worker, batch scattering, gradient aggregation onto the master model and
  parameter broadcast back to the replicas;
* :mod:`repro.parallel.prefetch` — :class:`PrefetchDataLoader`, a
  background-thread batch pipeline used by both the parallel and the
  single-process training paths.

The training loop that drives the engine lives in
:func:`repro.training.trainer.run_training`: every trainer runs data-parallel
when its config sets ``num_workers > 0``.

Sharded, seeded sampling itself lives with the data layer in
:class:`repro.datasets.loaders.DataLoader` (``seed`` / ``num_shards`` /
``shard_index`` / ``set_epoch``).
"""

from .allreduce import AllReduce, InProcessAllReduce, SharedMemoryAllReduce
from .engine import (
    BACKEND_PROCESS,
    BACKEND_THREAD,
    BACKENDS,
    DataParallelEngine,
    fork_available,
    resolve_backend,
    split_batch,
)
from .prefetch import PrefetchDataLoader

__all__ = [
    "AllReduce",
    "InProcessAllReduce",
    "SharedMemoryAllReduce",
    "DataParallelEngine",
    "split_batch",
    "fork_available",
    "resolve_backend",
    "BACKENDS",
    "BACKEND_THREAD",
    "BACKEND_PROCESS",
    "PrefetchDataLoader",
]

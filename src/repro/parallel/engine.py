"""Data-parallel gradient engine: worker pool + all-reduce + broadcast.

:class:`DataParallelEngine` owns ``num_workers`` replicas of a master
:class:`~repro.nn.Module` and turns one *global* batch into one aggregated
gradient on the master model:

1. the global batch is scattered into ``num_workers`` near-equal chunks
   (``np.array_split``), so the union of all chunks is exactly the global
   batch;
2. each worker runs ``step_fn(replica, chunk, rng)`` — a forward returning a
   mean-reduced loss tensor — and backpropagates on its private replica;
3. the flat local gradients are combined by a synchronous weighted all-reduce
   (weights = chunk sizes), which for mean losses equals the gradient of the
   global-batch loss;
4. the caller applies its usual optimizer step to the master model and then
   :meth:`~DataParallelEngine.broadcast`\\ s the updated parameters back to
   every replica.

Because aggregation happens *before* the (unmodified) optimizer step, one
logical update is numerically equivalent to large-batch single-process
training — the property the parity tests in ``tests/parallel`` verify.

Backends
--------
``process``
    Workers are forked OS processes; gradients travel through
    :class:`~repro.parallel.allreduce.SharedMemoryAllReduce` buffers and
    parameters are broadcast through a shared-memory vector guarded by a
    barrier.  Requires the ``fork`` start method (POSIX).
``thread``
    Workers are threads in a pool; numpy kernels release the GIL so compute
    still overlaps on multi-core hosts, and everything runs on platforms
    without ``fork``.  This is the default and the test backend.

``resolve_backend`` silently degrades ``process`` to ``thread`` when ``fork``
is unavailable so configuration written on Linux still runs anywhere.
"""

from __future__ import annotations

import copy
import gc
import itertools
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..datasets.loaders import Batch
from ..exceptions import ParallelError
from ..faults import disarm as _disarm_faults
from ..faults import site as _fault_site
from ..logging_utils import get_logger
from ..nn import Module, clip_grad_norm
from ..nn.tensor import Tensor
from ..nn.utils import (
    gradients_to_vector,
    parameters_to_vector,
    vector_to_gradients,
    vector_to_parameters,
)
from ..obs.aggregate import drain_worker_obs, merge_worker_obs
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.profiling import PHASE_SECONDS_BUCKETS, PhaseTimer
from ..obs.tracing import get_tracer
from .allreduce import AllReduce, InProcessAllReduce, SharedMemoryAllReduce

logger = get_logger(__name__)

_engine_ids = itertools.count(1)

StepResult = Union[Tensor, Tuple[Tensor, Dict[str, float]]]
StepFn = Callable[[Module, Batch, np.random.Generator], StepResult]

BACKEND_THREAD = "thread"
BACKEND_PROCESS = "process"
BACKENDS = (BACKEND_THREAD, BACKEND_PROCESS)


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_backend(backend: str) -> str:
    """Validate ``backend`` and degrade ``process`` to ``thread`` without fork."""
    if backend not in BACKENDS:
        raise ParallelError(f"unknown parallel backend {backend!r}; choose from {BACKENDS}")
    if backend == BACKEND_PROCESS and not fork_available():
        logger.warning("fork start method unavailable; falling back to thread backend")
        return BACKEND_THREAD
    return backend


def split_batch(batch: Batch, num_chunks: int) -> List[Batch]:
    """Scatter a global batch into ``num_chunks`` near-equal sub-batches.

    Chunks preserve order (chunk ``w`` is the ``w``-th contiguous slice), may
    be empty when the batch is smaller than ``num_chunks``, and their union is
    exactly the input batch.
    """
    if num_chunks < 1:
        raise ParallelError(f"num_chunks must be >= 1, got {num_chunks}")
    window_chunks = np.array_split(batch.windows, num_chunks)
    label_chunks = (
        np.array_split(batch.labels, num_chunks) if batch.labels is not None else [None] * num_chunks
    )
    index_chunks = (
        np.array_split(batch.indices, num_chunks) if batch.indices is not None else [None] * num_chunks
    )
    return [
        Batch(windows=w, labels=l, indices=i)
        for w, l, i in zip(window_chunks, label_chunks, index_chunks)
    ]


def _step_rng(seed: int, step_index: int, rank: int) -> np.random.Generator:
    """Deterministic per-(step, worker) generator for stochastic step functions."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(step_index), int(rank)]))


class _WorkerMetrics:
    """Per-worker step counters and timers, identical series on both backends.

    Thread workers record straight into the shared process registry with an
    explicit ``worker=<rank>`` label.  Forked process workers record the same
    metrics *unlabelled* into their own post-fork registry; the parent applies
    ``worker=<rank>`` when merging the flushed snapshot
    (:func:`repro.obs.aggregate.merge_worker_obs`), so after a run both
    backends expose byte-for-byte the same family schemas and label sets —
    the merge-correctness property ``tests/parallel/test_parallel_obs.py``
    gates.
    """

    __slots__ = ("steps", "samples", "seconds")

    def __init__(
        self, rank: int, labelled: bool, registry: Optional[MetricsRegistry] = None
    ) -> None:
        registry = registry if registry is not None else get_registry()
        labelnames = ("worker",) if labelled else ()
        labels = {"worker": str(rank)} if labelled else {}
        self.steps = registry.counter(
            "parallel_worker_steps_total",
            "Training steps executed by each data-parallel worker",
            labels=labelnames,
        ).labels(**labels)
        self.samples = registry.counter(
            "parallel_worker_samples_total",
            "Windows consumed by each data-parallel worker",
            labels=labelnames,
        ).labels(**labels)
        self.seconds = registry.histogram(
            "parallel_worker_step_seconds",
            "Per-worker fused forward+backward time (seconds)",
            labels=labelnames,
            buckets=PHASE_SECONDS_BUCKETS,
        ).labels(**labels)

    def record(self, samples: int, seconds: float) -> None:
        self.steps.inc()
        if samples:
            self.samples.inc(samples)
        self.seconds.observe(seconds)


def _local_step(
    replica: Module,
    step_fn: StepFn,
    batch: Batch,
    allreduce: AllReduce,
    rank: int,
    seed: int,
    step_index: int,
    metrics: Optional[_WorkerMetrics] = None,
    trace_id: Optional[str] = None,
) -> Tuple[float, float, Dict[str, float]]:
    """One worker-side forward/backward; publishes the gradient, returns stats.

    ``trace_id`` is the parent's sampled trace for this step (``None`` when
    unsampled): the worker records its ``forward``/``backward`` fragments
    against it so one parallel step exports as one cross-process trace.
    """
    started = time.perf_counter()
    tracer = get_tracer()
    if len(batch) == 0:
        allreduce.contribute(rank, np.zeros(allreduce.size, dtype=np.float64), 0.0)
        if metrics is not None:
            metrics.record(0, time.perf_counter() - started)
        return 0.0, 0.0, {}
    replica.zero_grad()
    # The canonical worker-death fault site: an injected error here surfaces
    # as a failed future (thread backend) or an "error" reply (process
    # backend), an injected kill takes the forked worker down mid-step.
    # Either way the engine respawns the worker and replays this exact chunk;
    # the per-(seed, step, rank) RNG below makes the replay bit-identical.
    _fault_site("parallel.worker.step", rank=rank, step=step_index)
    with tracer.span("forward", trace_id, rank=rank, step=step_index):
        result = step_fn(replica, batch, _step_rng(seed, step_index, rank))
        if isinstance(result, tuple):
            loss, aux = result
        else:
            loss, aux = result, {}
    with tracer.span("backward", trace_id, rank=rank, step=step_index):
        loss.backward()
    weight = float(len(batch))
    allreduce.contribute(rank, gradients_to_vector(replica.parameters()), weight)
    if metrics is not None:
        metrics.record(len(batch), time.perf_counter() - started)
    return float(loss.data), weight, {key: float(value) for key, value in aux.items()}


def _weighted_mean_aux(
    results: List[Tuple[float, float, Dict[str, float]]]
) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    weights: Dict[str, float] = {}
    for _, weight, aux in results:
        if weight <= 0:
            continue
        for key, value in aux.items():
            totals[key] = totals.get(key, 0.0) + weight * value
            weights[key] = weights.get(key, 0.0) + weight
    return {key: totals[key] / weights[key] for key in totals}


def _process_worker_main(
    rank: int,
    conn,
    replica: Module,
    step_fn: StepFn,
    allreduce: SharedMemoryAllReduce,
    param_shm,
    seed: int,
    disarm_faults: bool = False,
) -> None:
    """Forked worker loop: step on request, then wait for the param broadcast.

    ``replica`` is the master model as inherited through ``fork`` — a private
    copy-on-write clone of the parent's parameters, which makes it exactly
    the replica the worker needs (in sync with the master at start time).

    Observability: the fork handler installed by ``repro.obs`` already gave
    this process a fresh registry and tracer, so everything recorded here is
    a clean delta.  Each ``step`` reply carries the drained delta + spans
    (``drain_worker_obs``); the parent merges them under ``worker=<rank>``.
    A final flush rides the ``bye`` reply at shutdown.
    """
    # Park the inherited heap in the GC's permanent generation: cyclic
    # collections triggered by the allocation-heavy autograd steps would
    # otherwise traverse (and copy-on-write fault) every object the parent
    # ever allocated, which measurably throttles the worker.
    gc.freeze()
    if disarm_faults:
        # A respawned worker must *replay* the chunk that killed its
        # predecessor, not re-trigger the same fault forever: the engine
        # respawns with the inherited plan disarmed.
        _disarm_faults()
    params = replica.parameters()
    param_view = np.frombuffer(param_shm, dtype=np.float64)
    # Unlabelled on purpose: the parent stamps worker=<rank> at merge time.
    metrics = _WorkerMetrics(rank, labelled=False)
    tracer = get_tracer()
    while True:
        try:
            message = conn.recv()
        except EOFError:  # repro: noqa[REP107] — parent gone; nothing to tell
            return
        kind = message[0]
        if kind == "step":
            _, step_index, windows, labels, trace_id = message
            data_started = time.perf_counter()
            batch = Batch(windows=windows, labels=labels)
            tracer.record(
                trace_id, "data", data_started, time.perf_counter(),
                args={"rank": rank, "step": step_index},
            )
            try:
                stats = _local_step(
                    replica, step_fn, batch, allreduce, rank, seed, step_index,
                    metrics=metrics, trace_id=trace_id,
                )
            except BaseException as exc:  # noqa: BLE001 — reported to the parent
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
                return
            conn.send(("ok", stats, drain_worker_obs(tracer=tracer)))
            # Parent publishes updated parameters, then releases the barrier.
            allreduce.barrier_wait()
            vector_to_parameters(param_view, params)
        elif kind == "close":
            try:
                conn.send(("bye", drain_worker_obs(tracer=tracer)))
            except (BrokenPipeError, OSError):  # repro: noqa[REP107] — best-effort final flush
                pass
            conn.close()
            return


class DataParallelEngine:
    """Synchronous data-parallel gradient computation for one master model.

    Usage (per training step, with any optimizer over the master's params)::

        with DataParallelEngine(model, step_fn, num_workers=2) as engine:
            for batch in loader:
                loss, aux = engine.accumulate(batch)   # master grads are set
                clip_grad_norm(model.parameters(), ...)
                optimizer.step()
                engine.broadcast()                     # resync the replicas

    ``step_fn(replica, batch, rng)`` must run the forward pass on ``replica``
    and return a mean-reduced scalar loss tensor (optionally
    ``(loss, aux_dict)`` where the floats in ``aux_dict`` are weight-averaged
    across workers, e.g. per-level pre-training losses).
    """

    def __init__(
        self,
        model: Module,
        step_fn: StepFn,
        num_workers: int,
        backend: str = BACKEND_THREAD,
        seed: int = 0,
        timeout: float = 120.0,
        max_worker_restarts: int = 2,
    ) -> None:
        if num_workers < 1:
            raise ParallelError(f"num_workers must be >= 1, got {num_workers}")
        if max_worker_restarts < 0:
            raise ParallelError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        self.model = model
        self.step_fn = step_fn
        self.num_workers = num_workers
        self.backend = resolve_backend(backend)
        self.seed = int(seed)
        self.timeout = timeout
        # Self-healing budget: how many times one worker may be respawned
        # (and its chunk replayed) within a single step before the engine
        # falls back to fail-fast ParallelError.  0 disables recovery.
        self.max_worker_restarts = int(max_worker_restarts)
        self.grad_size = parameters_to_vector(model.parameters()).size
        # Opt-in phase attribution (workers / allreduce / optimizer /
        # broadcast); a no-op unless repro.obs.enable_phase_timing() ran.
        self.phase_timer = PhaseTimer("parallel")
        self._engine_name = f"engine-{next(_engine_ids)}"
        self._liveness = None
        self._respawns_total = None
        self._recovery_seconds = None
        self._step_index = 0
        self._pending_broadcast = False
        self._started = False
        self._hung = False
        # Sampled trace for the step currently in flight: drawn in
        # accumulate(), closed out (root "parallel.step" span) in broadcast().
        self._step_trace: Optional[str] = None
        self._step_started = 0.0
        # thread backend state
        self._executor: Optional[ThreadPoolExecutor] = None
        self._replicas: List[Module] = []
        self._worker_metrics: List[_WorkerMetrics] = []
        # process backend state
        self._ctx = None
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._connections: List = []
        self._param_shm = None
        self._allreduce: Optional[AllReduce] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DataParallelEngine":
        if self._started:
            return self
        if self.backend == BACKEND_THREAD:
            self._allreduce = InProcessAllReduce(self.num_workers, self.grad_size)
            self._replicas = [copy.deepcopy(self.model) for _ in range(self.num_workers)]
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="dp-worker"
            )
            # Thread workers share the process registry, so they label their
            # series worker=<rank> up front; process workers get the same
            # label applied by merge_worker_obs instead.
            self._worker_metrics = [
                _WorkerMetrics(rank, labelled=True) for rank in range(self.num_workers)
            ]
        else:
            self._ctx = multiprocessing.get_context("fork")
            self._allreduce = SharedMemoryAllReduce(
                self.num_workers, self.grad_size, ctx=self._ctx, timeout=self.timeout
            )
            self._param_shm = self._ctx.RawArray("d", self.grad_size)
            for rank in range(self.num_workers):
                process, parent_conn = self._spawn_process_worker(rank)
                self._processes.append(process)
                self._connections.append(parent_conn)
        self._liveness = get_registry().gauge(
            "parallel_workers_alive",
            "Live data-parallel workers, per engine",
            labels=("backend", "engine"),
        ).labels(backend=self.backend, engine=self._engine_name)
        if self.backend == BACKEND_THREAD:
            # Pool threads live for the engine's lifetime; no per-thread poll.
            self._liveness.set(float(self.num_workers))
        else:
            # Read self._processes live (not a captured copy) so the gauge
            # reflects respawned workers, not the original forks.
            self._liveness.set_function(
                lambda: float(sum(process.is_alive() for process in self._processes))
            )
        # Named outside the parallel_worker_* family namespace on purpose:
        # those series must be byte-identical across backends (the obs merge
        # gate), while respawn/recovery series carry a backend label.
        self._respawns_total = get_registry().counter(
            "parallel_respawns_total",
            "Workers respawned (and their chunk replayed) after a mid-step failure",
            labels=("backend",),
        ).labels(backend=self.backend)
        self._recovery_seconds = get_registry().histogram(
            "parallel_recovery_seconds",
            "Failure-detection to recovered-result time for respawned workers",
            labels=("backend",),
            buckets=PHASE_SECONDS_BUCKETS,
        ).labels(backend=self.backend)
        self._started = True
        return self

    def _spawn_process_worker(self, rank: int, disarm_faults: bool = False):
        """Fork one worker for ``rank``; returns ``(process, parent_conn)``.

        A fork inherits the master model as it stands *right now*, which is
        exactly the replica contract: at engine start and at any respawn
        point (pre-optimizer-step), the master parameters are what every
        in-sync replica holds.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(
                rank,
                child_conn,
                self.model,
                self.step_fn,
                self._allreduce,
                self._param_shm,
                self.seed,
            ),
            kwargs={"disarm_faults": disarm_faults},
            daemon=True,
            name=f"dp-worker-{rank}",
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _respawn_process_worker(self, rank: int) -> None:
        """Replace a dead/failed process worker with a fresh fork of the master.

        The new fork inherits the *current* master parameters (the engine is
        mid-``accumulate``, before any optimizer step, so the master is still
        what the dead worker's replica held) and starts with fault injection
        disarmed, so replaying the lost chunk cannot re-trigger the fault
        that killed its predecessor.
        """
        old_conn = self._connections[rank]
        try:
            old_conn.close()
        except OSError as exc:
            logger.debug("closing dead worker %d pipe failed: %s", rank, exc)
        old_process = self._processes[rank]
        if old_process.is_alive():
            # A worker that *replied* "error" and returned may still be mid-exit.
            old_process.terminate()
        old_process.join(timeout=5.0)
        process, parent_conn = self._spawn_process_worker(rank, disarm_faults=True)
        self._processes[rank] = process
        self._connections[rank] = parent_conn
        if self._respawns_total is not None:
            self._respawns_total.inc()
        logger.warning(
            "respawned process worker %d (pid %s -> %s)",
            rank, old_process.pid, process.pid,
        )

    def __enter__(self) -> "DataParallelEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if not self._started:
            return
        if self.backend == BACKEND_THREAD:
            if self._executor is not None:
                # After a worker timeout the stuck thread can never be joined;
                # abandon it instead of hanging close() (and the caller) too.
                self._executor.shutdown(wait=not self._hung, cancel_futures=self._hung)
                self._executor = None
            self._replicas = []
            self._worker_metrics = []
        else:
            if self._pending_broadcast:
                # Workers are parked at the barrier; release them so they can
                # reach their control pipe again before shutdown.
                try:
                    self.broadcast()
                except ParallelError as exc:
                    logger.debug("pre-shutdown broadcast failed: %s", exc)
            for rank, conn in enumerate(self._connections):
                try:
                    conn.send(("close",))
                    # Workers answer "close" with a final obs flush — anything
                    # recorded since the last step boundary (e.g. a data span
                    # for a step that errored out).  Best effort: a worker
                    # that died mid-run simply has nothing left to flush.
                    if conn.poll(1.0):
                        message = conn.recv()
                        if message and message[0] == "bye":
                            merge_worker_obs(message[1], worker=rank)
                except (BrokenPipeError, EOFError, OSError) as exc:
                    logger.debug("worker %d did not flush on close: %s", rank, exc)
                finally:
                    try:
                        conn.close()
                    except OSError as exc:
                        logger.debug("closing worker %d pipe failed: %s", rank, exc)
            for process in self._processes:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            self._processes = []
            self._connections = []
        if self._liveness is not None:
            self._liveness.set(0.0)  # also drops the is_alive poll closure
        self._started = False

    # ------------------------------------------------------------------
    # One logical step
    # ------------------------------------------------------------------
    def accumulate(self, batch: Batch) -> Tuple[float, Dict[str, float]]:
        """Compute the all-reduced gradient of ``batch`` onto the master model.

        Returns the weight-averaged loss and auxiliary metrics.  The caller
        must apply the optimizer step and then call :meth:`broadcast` before
        the next :meth:`accumulate`.
        """
        if not self._started:
            self.start()
        if self._pending_broadcast:
            raise ParallelError(
                "accumulate() called before broadcast() of the previous step — "
                "replicas would drift from the master parameters"
            )
        if len(batch) == 0:
            raise ParallelError("cannot accumulate gradients over an empty batch")
        chunks = split_batch(batch, self.num_workers)
        self._allreduce.reset()
        step_index = self._step_index
        self._step_index += 1
        # One sampled trace per parallel step: the id travels to every worker
        # (thread or forked process) so their forward/backward fragments and
        # this engine's workers/allreduce/broadcast phases export as a single
        # cross-process trace.  None (unsampled) keeps the zero-cost path.
        tracer = get_tracer()
        trace_id = tracer.sample()
        self._step_trace = trace_id
        self._step_started = time.perf_counter()

        # The fused forward+backward happens inside the workers, so phase
        # attribution can only split the step at this engine's boundaries:
        # `workers` (dispatch + replica compute + collect) and `allreduce`.
        obs_payloads: List[Tuple[int, Dict[str, object]]] = []
        with self.phase_timer.phase("workers"), tracer.span(
            "workers", trace_id, step=step_index, backend=self.backend
        ):
            if self.backend == BACKEND_THREAD:
                futures = [
                    self._executor.submit(
                        _local_step,
                        self._replicas[rank],
                        self.step_fn,
                        chunks[rank],
                        self._allreduce,
                        rank,
                        self.seed,
                        step_index,
                        self._worker_metrics[rank],
                        trace_id,
                    )
                    for rank in range(self.num_workers)
                ]
                results = []
                for rank in range(self.num_workers):
                    future = futures[rank]
                    restarts = 0
                    detected: Optional[float] = None
                    while True:
                        try:
                            result = future.result(timeout=self.timeout)
                        except FuturesTimeoutError:
                            # Hung is not dead: a stuck pool thread can be
                            # neither killed nor replayed, so timeouts stay
                            # fail-fast instead of entering the respawn path.
                            self._hung = True
                            raise ParallelError(
                                f"a thread worker did not finish within {self.timeout:.0f}s"
                            ) from None
                        except Exception as exc:
                            if detected is None:
                                detected = time.perf_counter()
                            restarts += 1
                            if restarts > self.max_worker_restarts:
                                raise ParallelError(
                                    f"worker {rank} failed {restarts} times in step "
                                    f"{step_index} (respawn budget "
                                    f"{self.max_worker_restarts} exhausted): {exc}"
                                ) from exc
                            logger.warning(
                                "thread worker %d failed in step %d (%s); rebuilding "
                                "replica and replaying its chunk (attempt %d/%d)",
                                rank, step_index, exc, restarts, self.max_worker_restarts,
                            )
                            # A fresh deepcopy of the master *is* the in-sync
                            # replica: accumulate() runs pre-optimizer-step, so
                            # the master still holds what the failed replica
                            # held.  Replaying the same chunk with the same
                            # per-(seed, step, rank) RNG is then bit-identical
                            # to the run that never failed; contribute()
                            # overwrites the rank's all-reduce slot, so a
                            # partial first attempt cannot double-count.
                            self._replicas[rank] = copy.deepcopy(self.model)
                            if self._respawns_total is not None:
                                self._respawns_total.inc()
                            future = self._executor.submit(
                                _local_step,
                                self._replicas[rank],
                                self.step_fn,
                                chunks[rank],
                                self._allreduce,
                                rank,
                                self.seed,
                                step_index,
                                self._worker_metrics[rank],
                                trace_id,
                            )
                            continue
                        if detected is not None and self._recovery_seconds is not None:
                            self._recovery_seconds.observe(time.perf_counter() - detected)
                        results.append(result)
                        break
            else:
                for rank, conn in enumerate(self._connections):
                    conn.send(
                        ("step", step_index, chunks[rank].windows, chunks[rank].labels, trace_id)
                    )
                rank_results: List[Optional[Tuple[float, float, Dict[str, float]]]] = (
                    [None] * self.num_workers
                )
                restarts_by_rank = [0] * self.num_workers
                recovery_started: Dict[int, float] = {}
                pending = list(range(self.num_workers))
                while pending:
                    still_pending: List[int] = []
                    for rank in pending:
                        conn = self._connections[rank]
                        if not conn.poll(self.timeout):
                            # Hung is not dead: no reply and no EOF means the
                            # worker is stuck, not gone — replaying could fork a
                            # second writer for the same all-reduce slot.  Break
                            # the barrier so workers already parked there exit
                            # through the broken-barrier error path instead of
                            # being SIGTERM-killed by close() after another
                            # full timeout.
                            self._allreduce.abort()
                            raise ParallelError(
                                f"worker {rank} did not answer within {self.timeout:.0f}s"
                            )
                        failure: Optional[str] = None
                        try:
                            message = conn.recv()
                        except (EOFError, OSError) as exc:
                            # Pipe EOF without a reply: the worker process died
                            # mid-step (SIGKILL, OOM kill, hard crash).
                            failure = f"worker process died mid-step ({type(exc).__name__})"
                        else:
                            if message[0] == "ok":
                                rank_results[rank] = message[1]
                                obs_payloads.append((rank, message[2]))
                                started = recovery_started.pop(rank, None)
                                if started is not None and self._recovery_seconds is not None:
                                    self._recovery_seconds.observe(
                                        time.perf_counter() - started
                                    )
                                continue
                            # The worker protocol exits after an "error" reply,
                            # so a clean failure report needs a respawn too.
                            failure = str(message[1])
                        recovery_started.setdefault(rank, time.perf_counter())
                        restarts_by_rank[rank] += 1
                        if restarts_by_rank[rank] > self.max_worker_restarts:
                            self._allreduce.abort()
                            raise ParallelError(
                                f"worker {rank} failed {restarts_by_rank[rank]} times in "
                                f"step {step_index} (respawn budget "
                                f"{self.max_worker_restarts} exhausted): {failure}"
                            )
                        logger.warning(
                            "worker %d failed in step %d (%s); respawning and replaying "
                            "its chunk (attempt %d/%d)",
                            rank, step_index, failure,
                            restarts_by_rank[rank], self.max_worker_restarts,
                        )
                        self._respawn_process_worker(rank)
                        self._connections[rank].send(
                            ("step", step_index, chunks[rank].windows,
                             chunks[rank].labels, trace_id)
                        )
                        still_pending.append(rank)
                    pending = still_pending
                results = [result for result in rank_results if result is not None]

        with self.phase_timer.phase("allreduce"), tracer.span(
            "allreduce", trace_id, step=step_index
        ):
            vector, total_weight = self._allreduce.reduce()
            if total_weight <= 0:
                raise ParallelError("all workers reported empty batches")
            vector_to_gradients(vector, self.model.parameters())
        # Fold each process worker's flushed registry delta + spans into this
        # process under worker=<rank> (thread workers recorded directly).
        for rank, payload in obs_payloads:
            merge_worker_obs(payload, worker=rank)
        self._pending_broadcast = True
        mean_loss = sum(loss * weight for loss, weight, _ in results) / total_weight
        return mean_loss, _weighted_mean_aux(results)

    def train_step(
        self,
        batch: Batch,
        optimizer,
        grad_clip: float = 0.0,
    ) -> Tuple[float, Dict[str, float]]:
        """One full synchronous update: accumulate → clip → step → broadcast.

        Clipping covers ``optimizer.parameters``, the parameters the step
        updates (a frozen-backbone fine-tune clips only the classifier
        head); the optimizer must hold the master model's parameters.
        """
        loss, aux = self.accumulate(batch)
        with self.phase_timer.phase("optimizer"):
            if grad_clip > 0:
                clip_grad_norm(optimizer.parameters, grad_clip)
            optimizer.step()
        with self.phase_timer.phase("broadcast"):
            self.broadcast()
        return loss, aux

    def broadcast(self) -> None:
        """Publish the master parameters to every replica (post-optimizer sync)."""
        if not self._started:
            raise ParallelError("engine is not running")
        tracer = get_tracer()
        trace_id = self._step_trace
        vector = parameters_to_vector(self.model.parameters())
        with tracer.span("broadcast", trace_id, backend=self.backend):
            if self.backend == BACKEND_THREAD:
                for replica in self._replicas:
                    vector_to_parameters(vector, replica.parameters())
            else:
                np.frombuffer(self._param_shm, dtype=np.float64)[:] = vector
                self._allreduce.barrier_wait()
        self._pending_broadcast = False
        if trace_id is not None:
            # Root span closing the whole logical step (accumulate → optimizer
            # → broadcast); the per-phase and per-worker fragments nest inside.
            tracer.record(
                trace_id, "parallel.step", self._step_started, time.perf_counter(),
                args={"step": self._step_index - 1, "workers": self.num_workers},
            )
            self._step_trace = None

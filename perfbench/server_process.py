"""The serving side of the ``http_*`` workloads, run in its own process.

Loads the published model from a ``ModelRegistry`` in float32 and compiled,
traces every batch-size bucket of the default ``ServerConfig`` ahead of
traffic, and serves it behind an ``InferenceGateway`` with the default
``GatewayConfig``.  Protocol with the parent, one JSON line each way on
stdout: a ready line with the bound port once the gateway listens; then, after
the parent writes a line (or closes) stdin, a stats line read from what the
program records, after which the gateway and the server are stopped.

Usage: python3 server_process.py --registry DIR --profile NAME --route PATH
       --seed N [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import GatewayConfig, InferenceGateway, InferenceServer, ModelRegistry, ServerConfig  # noqa: E402
from repro.nn import CompiledModule  # noqa: E402
from repro.obs import enable_op_profiling, get_registry  # noqa: E402

from spans import SpanRecorder, write_chrome_trace  # noqa: E402

DATASET, TASK = "hhar", "activity"


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _gateway_latency(route: str):
    return get_registry().get("gateway_request_latency_ms").labels(route=route)


def _op_seconds() -> dict:
    family = get_registry().get("jit_op_seconds")
    if family is None:
        return {}
    return {dict(key)["op"]: float(child.sum) for key, child in family.children()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--registry", required=True)
    parser.add_argument("--profile", required=True)
    parser.add_argument("--route", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    recorder = SpanRecorder()
    recorder.enabled = args.trace_out is not None

    begin = time.perf_counter()
    registry = ModelRegistry(args.registry)
    model, _ = registry.load(DATASET, TASK, profile=args.profile, dtype=np.float32,
                             compiled=True)
    registry_load_s = time.perf_counter() - begin

    config = ServerConfig()
    window_shape = (model.backbone.config.window_length, model.backbone.config.input_channels)
    rng = np.random.default_rng([0x5E, args.seed])
    begin = time.perf_counter()
    for bucket in config.compile_bucket_sizes():
        model.warmup(rng.standard_normal((bucket,) + window_shape).astype(np.float32))
    warmup_s = time.perf_counter() - begin

    server = InferenceServer(model=model, config=config)
    if recorder.enabled:
        enable_op_profiling(True)
        recorder.wrap(CompiledModule, "run", "jit.run")
        recorder.wrap(InferenceServer, "submit", "server.submit")
    gateway = InferenceGateway(server, GatewayConfig()).start()
    try:
        ready_stats = server.compile_stats().as_dict()
        _emit({"port": gateway.port, "compile": ready_stats})
        sys.stdin.readline()  # the parent's stop line, or EOF if it went away
        stats = server.stats()
        run_spans = recorder.named("jit.run")
        _emit({
            "requests": stats.requests,
            "server_request_p50_ms": stats.latency_ms.get("p50", 0.0),
            "server_request_mean_ms": stats.latency_ms.get("mean", 0.0),
            "batch_size": stats.mean_batch_size,
            "queue_wait_ms": stats.mean_queue_wait_ms,
            "compute_ms": stats.mean_compute_ms,
            "gateway_request_p50_ms": _gateway_latency(args.route).quantile(0.5),
            "gateway_request_mean_ms": _gateway_latency(args.route).mean,
            "compile_at_ready": ready_stats,
            "compile": server.compile_stats().as_dict(),
            "jit_run_ms": (1000.0 * sum(s.seconds for s in run_spans) / len(run_spans)
                           if run_spans else 0.0),
            "jit_op_s": _op_seconds(),
            "registry_load_s": registry_load_s,
            "warmup_s": warmup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    finally:
        gateway.stop()
        server.close()
    if args.trace_out:
        write_chrome_trace(Path(args.trace_out), recorder.chrome_events())
    return 0


if __name__ == "__main__":
    sys.exit(main())

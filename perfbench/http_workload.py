"""The ``http_*`` workloads: a closed-loop HTTP load generator in this process.

The model is built from the seed and published to a fresh ``ModelRegistry``;
``server_process.py`` serves it from its own process.  This process is the
load generator: ``min(2, nproc)`` keep-alive clients (the calling thread plus
one more) each send their next request as soon as the previous response has
been read, for the run's seconds.  Every request carries windows drawn fresh
from the client's own seeded stream, so no request repeats an earlier window.
Latency runs from the send to the last byte of the response.

After the load phase every response is checked: one prediction per window,
probabilities that sum to 1 and a label equal to their argmax, and
probabilities equal, within float32 tolerance, to an eager float64 forward of
the published checkpoint (on every window, or on a seeded sample where that
forward would outlast the run).
"""

from __future__ import annotations

import base64
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import ModelRegistry, get_profile
from repro.models import ClassificationModel, SagaBackbone

from spans import SpanRecorder

DATASET, TASK = "hhar", "activity"
NUM_CLASSES = 6  # HHAR's activities
CHANNELS = 6
PROBABILITY_TOLERANCE = 1e-4
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class HttpWorkload:
    profile: str
    route: str
    windows_per_request: int
    # Windows checked against the eager float64 forward per run; None checks
    # them all.  The paper model's eager float64 forward runs near 60 windows/s
    # on a 2-vCPU Xeon, far slower than it is served, so it is checked on a
    # seeded sample.
    reference_sample: Optional[int]


WORKLOADS = {
    "http_predict_small": HttpWorkload("bench", "/v1/predict", 1, None),
    "http_batch_paper": HttpWorkload("paper", "/v1/batch", 64, 128),
}
# The smoke size keeps every code path but serves the smallest profile.
TINY_PROFILE = "ci"
# The op kinds that take the most replay time on the two served models.
JIT_OPS = ("matmul", "softmax", "layer_norm", "gelu", "add", "mul", "sigmoid")


class HttpConnection:
    """A minimal keep-alive HTTP/1.1 client over one socket."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self.buffer = b""

    def _connect(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed by the gateway")
        self.buffer += chunk

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        if self.sock is None:
            self._connect()
        try:
            self.sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1:{self.port}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
                .encode("ascii") + body
            )
            while b"\r\n\r\n" not in self.buffer:
                self._fill()
            head, _, rest = self.buffer.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers["content-length"])
            self.buffer = rest
            while len(self.buffer) < length:
                self._fill()
            payload, self.buffer = self.buffer[:length], self.buffer[length:]
        except (OSError, ValueError, KeyError, IndexError):
            self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, payload


class _Counter:
    """Request ids shared by the client threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def __call__(self) -> int:
        with self._lock:
            self._next += 1
            return self._next


@dataclass
class Exchange:
    """One request of the load phase and what came back."""

    windows: np.ndarray
    done_at: float
    latency_s: float
    status: int
    body: bytes
    request_id: int


@dataclass
class ClientLog:
    """What one client sent and got back during the load phase."""

    exchanges: List[Exchange] = field(default_factory=list)
    transport_errors: int = 0
    finished_at: float = 0.0


def _body(workload: HttpWorkload, windows: np.ndarray) -> bytes:
    encoded = base64.b64encode(windows.astype("<f4").tobytes()).decode("ascii")
    if workload.windows_per_request == 1:
        return b'{"window_b64": "' + encoded.encode("ascii") + b'"}'
    return (b'{"windows_b64": "' + encoded.encode("ascii")
            + b'", "return_probabilities": true}')


class WindowStream:
    """Fresh float32 windows from one seeded stream, drawn in blocks."""

    def __init__(self, seed: int, stream: int, shape: Tuple[int, int]) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self.shape = shape
        self.block = np.empty((0,) + shape, np.float32)

    def take(self, count: int) -> np.ndarray:
        if len(self.block) < count:
            fresh = self.rng.standard_normal((max(256, count),) + self.shape, dtype=np.float32)
            self.block = np.concatenate([self.block, fresh])
        taken, self.block = self.block[:count], self.block[count:]
        return taken


def _client_loop(port: int, workload: HttpWorkload, stream: WindowStream, stop_at: float,
                 log: ClientLog, ids: "_Counter", recorder: SpanRecorder) -> None:
    connection = HttpConnection(port)
    try:
        while time.perf_counter() < stop_at:
            windows = stream.take(workload.windows_per_request)
            body = _body(workload, windows)
            request_id = ids()
            sent = time.perf_counter()
            try:
                status, payload = connection.post(workload.route, body)
            except (OSError, ValueError, KeyError, IndexError):
                log.transport_errors += 1
                continue
            done = time.perf_counter()
            recorder.add("client.request", sent, done, request_id=request_id)
            log.exchanges.append(Exchange(windows, done, done - sent, status, payload, request_id))
    finally:
        log.finished_at = time.perf_counter()
        connection.close()


def _predictions(workload: HttpWorkload, body: bytes) -> List[dict]:
    payload = json.loads(body)
    if workload.windows_per_request == 1:
        return [payload]
    if payload.get("count") != len(payload.get("predictions", ())):
        raise ValueError("count does not match the predictions returned")
    return payload["predictions"]


def _response_problem(workload: HttpWorkload, exchange: Exchange) -> Optional[str]:
    """The checks that need no reference forward: the first failure, or None."""
    if exchange.status != 200:
        return f"status {exchange.status}"
    try:
        rows = _predictions(workload, exchange.body)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable response: {exc}"
    if len(rows) != len(exchange.windows):
        return f"{len(rows)} predictions for {len(exchange.windows)} windows"
    for row in rows:
        probabilities = np.asarray(row.get("probabilities", ()), dtype=np.float64)
        if probabilities.shape != (NUM_CLASSES,):
            return f"probabilities of shape {probabilities.shape}"
        if abs(probabilities.sum() - 1.0) > 1e-5:
            return f"probabilities sum to {probabilities.sum()}"
        if row.get("label") != int(np.argmax(probabilities)):
            return "label is not the argmax of the probabilities"
    return None


class ServerProcess:
    """The gateway process: started, read from, stopped and always reaped.

    It inherits this process's environment, which ``run.py`` has pinned.
    """

    def __init__(self, command: List[str]) -> None:
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def read_line(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server process sent nothing within {timeout:.0f} s")
            readable, _, _ = select.select([self.proc.stdout], [], [], min(remaining, 0.5))
            if readable:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"server process exited with code {self.proc.wait(timeout=5)}")
                return json.loads(line)
            if self.proc.poll() is not None:
                raise RuntimeError(f"server process exited with code {self.proc.returncode}")

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        stats = self.read_line(STOP_TIMEOUT_S)
        self.proc.stdin.close()
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        return stats

    def close(self) -> None:
        """Kill the process if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _reference_probabilities(reference, windows: np.ndarray) -> np.ndarray:
    return _softmax(reference.inference(windows.astype(np.float64)).data)


def _probe(port: int, workload: HttpWorkload, stream: WindowStream, reference) -> Exchange:
    """Send one request and check it; set-up ends with this first correct response."""
    windows = stream.take(workload.windows_per_request)
    body = _body(workload, windows)
    connection = HttpConnection(port)
    try:
        sent = time.perf_counter()
        status, body = connection.post(workload.route, body)
        done = time.perf_counter()
    finally:
        connection.close()
    exchange = Exchange(windows, done, done - sent, status, body, 0)
    problem = _response_problem(workload, exchange)
    if problem is not None:
        raise RuntimeError(f"first response failed its check: {problem}")
    served = np.array([row["probabilities"] for row in _predictions(workload, body)])
    deviation = np.abs(served - _reference_probabilities(reference, windows)).max()
    if deviation > PROBABILITY_TOLERANCE:
        raise RuntimeError(f"first response is {deviation:.3g} from the reference forward")
    return exchange


def _load(port: int, workload: HttpWorkload, shape: Tuple[int, int], seed: int,
          seconds: float, recorder: SpanRecorder) -> Tuple[List[ClientLog], float]:
    """The closed loop: the calling thread is client 0, other clients get a thread."""
    clients = min(2, os.cpu_count() or 1)
    logs = [ClientLog() for _ in range(clients)]
    ids = _Counter()
    start = time.perf_counter()
    args = [(port, workload, WindowStream(seed, index, shape), start + seconds, logs[index],
             ids, recorder) for index in range(clients)]
    threads = [threading.Thread(target=_client_loop, args=args[index], name=f"client-{index}")
               for index in range(1, clients)]
    for thread in threads:
        thread.start()
    try:
        _client_loop(*args[0])
    finally:
        for thread in threads:
            thread.join()
    return logs, start


def _check_against_reference(workload: HttpWorkload, exchanges: List[Exchange], reference,
                             seed: int) -> Tuple[set, int, int]:
    """Served probabilities against the eager float64 forward of the checkpoint.

    Returns the ids of requests that differ, the windows checked and how many
    of their served labels equal the reference label.
    """
    rows = [(exchange, index) for exchange in exchanges
            for index in range(len(exchange.windows))]
    if workload.reference_sample is not None and len(rows) > workload.reference_sample:
        pick = np.random.default_rng([0xC4, seed]).choice(
            len(rows), size=workload.reference_sample, replace=False)
        rows = [rows[i] for i in sorted(pick)]
    mismatched, agree = set(), 0
    for start in range(0, len(rows), 256):
        chunk = rows[start:start + 256]
        expected = _reference_probabilities(
            reference, np.stack([exchange.windows[index] for exchange, index in chunk]))
        for (exchange, index), want in zip(chunk, expected):
            row = _predictions(workload, exchange.body)[index]
            if np.abs(np.asarray(row["probabilities"]) - want).max() > PROBABILITY_TOLERANCE:
                mismatched.add(exchange.request_id)
            agree += int(row["label"] == int(np.argmax(want)))
    return mismatched, len(rows), agree


def _layer_metrics(stats: dict, client_p50_ms: float, client_mean_ms: float) -> Dict[str, float]:
    delta = {key: float(stats["compile"][key] - stats["compile_at_ready"][key])
             for key in ("replays", "padded_replays", "fallbacks")}
    metrics = {
        "client.request_p50_ms": client_p50_ms,
        "registry.load_s": stats["registry_load_s"],
        "jit.warmup_s": stats["warmup_s"],
        "gateway.request_p50_ms": stats["gateway_request_p50_ms"],
        "server.request_p50_ms": stats["server_request_p50_ms"],
        "batcher.queue_wait_ms": stats["queue_wait_ms"],
        "batcher.batch_size": stats["batch_size"],
        "batcher.compute_ms": stats["compute_ms"],
        "jit.run_ms": stats["jit_run_ms"],
        "jit.replays": delta["replays"],
        "jit.padded_replays": delta["padded_replays"],
        "jit.fallbacks": delta["fallbacks"],
    }
    for op in JIT_OPS:
        metrics[f"jit.op.{op}_s"] = stats["jit_op_s"].get(op, 0.0)
    # Each layer's time lies inside the one around it, request by request, so
    # their means over the same requests (the first one and the load phase;
    # for batches, the same batches) should be ordered.  A break is reported,
    # not counted against correctness: the gateway's own histogram stops its
    # clock only when the event loop resumes after the write, which under load
    # can be after the client has read the response.
    nesting = [("client", client_mean_ms), ("gateway", stats["gateway_request_mean_ms"]),
               ("server", stats["server_request_mean_ms"]),
               ("batch compute", stats["compute_ms"]), ("CompiledModule.run", stats["jit_run_ms"])]
    for (outer, outer_ms), (inner, inner_ms) in zip(nesting, nesting[1:]):
        if inner_ms > outer_ms:
            print(f"[perfbench] layer times do not nest: mean {inner} time {inner_ms:.3f} ms "
                  f"exceeds {outer}'s {outer_ms:.3f} ms", file=sys.stderr, flush=True)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, size_name: str,
        started: float, workdir: Path) -> dict:
    workload = WORKLOADS[workload_name]
    profile_name = TINY_PROFILE if size_name == "tiny" else workload.profile
    profile = get_profile(profile_name)
    shape = (profile.window_length, CHANNELS)
    recorder = SpanRecorder()
    recorder.enabled = trace

    rng = np.random.default_rng([0xB0, seed])
    model = ClassificationModel(SagaBackbone(profile.backbone_config(CHANNELS), rng=rng),
                                NUM_CLASSES, rng=rng)
    registry = ModelRegistry(workdir / "registry")
    registry.publish(model, DATASET, TASK, profile=profile_name)

    trace_out = workdir / "server_trace.json"
    command = [sys.executable, str(Path(__file__).with_name("server_process.py")),
               "--registry", str(workdir / "registry"), "--profile", profile_name,
               "--route", workload.route, "--seed", str(seed)]
    if trace:
        command += ["--trace-out", str(trace_out)]
    server = ServerProcess(command)
    try:
        # The reference is the same checkpoint, rebuilt eagerly in float64.
        reference, _ = registry.load(DATASET, TASK, profile=profile_name, dtype=np.float64)
        port = int(server.read_line(READY_TIMEOUT_S)["port"])
        probe = _probe(port, workload, WindowStream(seed, 1000, shape), reference)
        setup_s = time.perf_counter() - started
        logs, load_start = _load(port, workload, shape, seed, seconds, recorder)
        stats = server.stop()
    finally:
        server.close()
    load_s = max(log.finished_at for log in logs) - load_start

    problems: List[str] = []
    exchanges = [exchange for log in logs for exchange in log.exchanges]
    failed_ids = {exchange.request_id for exchange in exchanges
                  if _response_problem(workload, exchange) is not None}
    mismatched, checked, agree = _check_against_reference(
        workload, [e for e in exchanges if e.request_id not in failed_ids], reference, seed)
    failed_ids |= mismatched
    sent_windows = sum(len(exchange.windows) for exchange in [probe] + exchanges)
    if stats["requests"] != sent_windows:
        problems.append(f"server counted {stats['requests']} windows, client sent {sent_windows}")
    if stats["compile"]["traces"] != stats["compile_at_ready"]["traces"]:
        problems.append("the compiled forward traced during the load phase")
    if not checked:
        problems.append("no response could be checked against the reference forward")

    good = [exchange for exchange in exchanges if exchange.request_id not in failed_ids]
    if not good:
        raise RuntimeError(f"no request of the load phase succeeded ({len(exchanges)} answered)")
    latencies_ms = 1000.0 * np.array([exchange.latency_s for exchange in good])
    per_second = np.bincount([int(exchange.done_at - load_start) for exchange in good],
                             weights=[len(exchange.windows) for exchange in good])
    print(f"[perfbench] {len(good)} good responses in {load_s:.2f} s; latency ms "
          f"p10/p50/p90/max {np.percentile(latencies_ms, [10, 50, 90, 100]).round(2).tolist()}; "
          f"windows answered in each second {per_second.astype(int).tolist()}",
          file=sys.stderr, flush=True)
    attempted = len(exchanges) + sum(log.transport_errors for log in logs)

    server_events: List[dict] = []
    if trace:
        if trace_out.exists():
            server_events = json.loads(trace_out.read_text())["traceEvents"]
        answered_ms = [1000.0 * exchange.latency_s for exchange in [probe] + exchanges]
        metrics = _layer_metrics(stats, float(np.median(latencies_ms)),
                                 float(np.mean(answered_ms)))
    else:
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": float(np.median(latencies_ms)),
            "windows_per_s": sum(len(exchange.windows) for exchange in good) / load_s,
            "test_accuracy": agree / max(checked, 1),
            "peak_rss_mb": stats["peak_rss_mb"],
        }
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": attempted - len(good),
        "metrics": metrics,
        "recorder": recorder,
        "server_events": server_events,
    }


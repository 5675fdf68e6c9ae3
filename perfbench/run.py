"""Saga benchmark: one workload, one seed, one fresh process, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md and BENCHMARK.json):

* ``saga_fit`` — ``SagaPipeline.fit(weights="search")`` plus ``evaluate``;
* ``http_predict_small`` — ``/v1/predict`` on the bench-profile model;
* ``http_batch_paper`` — 64-window ``/v1/batch`` on the paper-profile model.

Run from the root of a checkout: the command puts ``src`` on the import path
itself and pins the environment the program reads, for itself and for the
server process.  Progress and logs go to standard error; the last line of
standard output is the result, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones and writes a Chrome trace under
``perfbench/out/``.  ``--size tiny`` runs the same code on small inputs, for
the smoke test only.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("saga_fit", "http_predict_small", "http_batch_paper")


def pinned_environment(workdir: Path) -> dict:
    """The environment the program reads, fixed for every run."""
    return {
        "REPRO_TRACE_SAMPLE": "0",
        "REPRO_FAULTS": "",
        "REPRO_FAULTS_SEED": "0",
        "REPRO_DTYPE": "float64",
        "REPRO_PROFILE": "bench",
        "REPRO_CACHE_DIR": str(workdir / "cache"),
        "REPRO_BENCH_DIR": str(workdir / "bench_out"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": str(ROOT / "src"),
    }


def metric_units(trace: bool) -> dict:
    """Name to unit of every metric a run in this mode reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    units = metric_units(bool(args.trace))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    # Before numpy and repro are imported; the server process inherits it.
    os.environ.update(pinned_environment(workdir))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        try:
            import repro  # noqa: F401
        except ImportError as exc:
            log(f"cannot import repro from {ROOT / 'src'}: {exc}")
            return 2
        log(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.workload == "saga_fit":
            import fit_workload

            result = fit_workload.run(args.seed, args.seconds, bool(args.trace), args.size,
                                      STARTED)
        else:
            import http_workload

            result = http_workload.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), args.size, STARTED, workdir)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            from spans import write_chrome_trace

            write_chrome_trace(trace_path, result["recorder"].chrome_events()
                               + result["server_events"])
            log(f"wrote {trace_path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in result["problems"]:
        log(f"CHECK FAILED: {problem}")
    metrics = result["metrics"]
    # Every workload measures every end-to-end metric; a layer a workload
    # does not run reads 0 there.
    missing = set() if args.trace else set(units) - set(metrics)
    unknown = set(metrics) - set(units)
    if missing or unknown:
        log(f"metrics do not match BENCHMARK.json: missing {sorted(missing)}, "
            f"unknown {sorted(unknown)}")
        return 3
    line = {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark command at its tiny size.

Every workload runs once untraced and once traced.  Each run must end with a
result line naming every metric of BENCHMARK.json for its mode, and leave no
process of its own behind.  Without ``src/`` the command must fail fast.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 90417  # distinct from the seeds the benchmark is measured on
TIMEOUT_S = 120


def _command(workload: str, trace: int, script: Path = HERE / "run.py") -> list:
    return [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _run_all(trace: int) -> None:
    """Run every workload at once, each in its own process group."""
    procs = {
        workload: subprocess.Popen(_command(workload, trace), cwd=ROOT, text=True,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                   start_new_session=True)
        for workload in WORKLOADS
    }
    try:
        outputs = {workload: proc.communicate(timeout=TIMEOUT_S)
                   for workload, proc in procs.items()}
        leftovers = [workload for workload, proc in procs.items() if _group_alive(proc.pid)]
    finally:
        for proc in procs.values():
            if _group_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert not leftovers, f"processes outlived the command: {leftovers}"

    section = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for workload, (stdout, stderr) in outputs.items():
        assert procs[workload].returncode == 0, f"{workload} failed:\n{stderr[-3000:]}"
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, stderr[-3000:]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
        assert all(isinstance(metric["value"], float) for metric in result["metrics"].values())
        if trace:
            trace_file = HERE / "out" / f"trace-{workload}-seed{SEED}.json"
            assert json.loads(trace_file.read_text())["traceEvents"]
            trace_file.unlink()
        else:
            assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_untraced_runs_report_every_end_to_end_metric() -> None:
    _run_all(trace=0)


def test_traced_runs_report_every_per_layer_metric() -> None:
    _run_all(trace=1)


def test_checkout_without_the_program_fails_fast(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench" / source.name)
    completed = subprocess.run(_command("saga_fit", 0, tmp_path / "perfbench" / "run.py"),
                               cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""

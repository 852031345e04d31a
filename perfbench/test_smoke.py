"""Smoke test of the benchmark: shortened runs of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = _run(workload, trace=0)
    metrics = _result(proc)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())
    for name, unit in expected.items():
        assert f"  {name} = " in proc.stdout and f" {unit}\n" in proc.stdout
    assert "latency_ms_tail is " in proc.stdout
    assert "host {" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = _result(_run(workload, trace=1))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["trace.coverage_pct"]["value"] >= 90.0
    if workload == "optimize_paper":
        assert metrics["runtime.trace_ms"]["value"] > 0
        assert metrics["core.plan_ms"]["value"] > 0
    else:
        assert metrics["http.overhead_ms"]["value"] > 0
        assert metrics["daemon.submit_ms"]["value"] > 0
        assert metrics["store.gets"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

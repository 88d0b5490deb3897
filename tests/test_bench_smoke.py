"""Smoke test of the benchmark: every workload runs for a second, traced, and checks its outputs.

A traced run also fails when a public microlie name escapes the tracer, for
example an alias left behind by a deleted or renamed function.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_clean(workload):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            *("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

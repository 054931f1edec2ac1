"""Smoke run of the benchmark: each workload once, briefly, with its checks.

The three runs start together (each pins its BLAS threads to 1) and take
20-40 s, so the tests are marked slow.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-notellm2", "eval-pool500", "analyze-notellm2")


@pytest.fixture(scope="module")
def runs():
    """(returncode, stdout, stderr) of one short run per workload."""
    procs = {
        w: subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
             "--seed", "42", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for w in WORKLOADS
    }
    out = {}
    try:
        for w, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=600)
            out[w] = (proc.returncode, stdout, stderr)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return out


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_workload_passes_its_checks(workload, runs):
    returncode, stdout, stderr = runs[workload]
    assert returncode == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True, stderr
    assert result["failed"] == 0

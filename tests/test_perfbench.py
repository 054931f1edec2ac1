"""Smoke run of the benchmark: each workload once, briefly, with its checks,
plus one traced training run.

The four runs start together (each pins its BLAS threads to 1) and take
20-60 s, so the tests are marked slow.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-notellm2", "eval-pool500", "analyze-notellm2")
RUNS = [(w, 0) for w in WORKLOADS] + [("train-notellm2", 1)]


@pytest.fixture(scope="module")
def runs():
    """(returncode, stdout, stderr) of one short run per (workload, trace)."""
    procs = {
        (w, trace): subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
             "--seed", "42", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for w, trace in RUNS
    }
    out = {}
    try:
        for key, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=600)
            out[key] = (proc.returncode, stdout, stderr)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return out


def _result(run):
    returncode, stdout, stderr = run
    assert returncode == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True, stderr
    assert result["failed"] == 0
    return result


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_workload_passes_its_checks(workload, runs):
    _result(runs[workload, 0])


@pytest.mark.slow
def test_perfbench_traced_train_reads_padding(runs):
    # the tracer counts forward_llm positions from its 3-D x
    pad_frac = _result(runs["train-notellm2", 1])["metrics"]["model.forward_llm.pad_frac"]
    assert 0 <= pad_frac["value"] < 1

"""Minimal-length runs of every workload, in this process.

Each runs at a tiny ``--seconds`` so set-up dominates.  The wrong-reply
test corrupts the expected reply of the first two requests and checks
that exactly those count as failed; the digest test checks that
tracing and warm process-wide caches leave virtual time untouched.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import worker, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: small enough that set-up dominates; big enough for the mesh schedule
TINY_SECONDS = 0.5


@pytest.mark.parametrize("name", workloads.NAMES)
def test_wrong_expected_reply_is_counted_as_failed(name):
    result = worker.measure(name, seed=5, seconds=TINY_SECONDS, tamper=frozenset({0, 1}))
    assert result["problems"] == []
    assert result["failed"] == 2
    assert result["record"]["failed"] == 2
    assert result["attempted"] >= result["record"]["requests"] > 2
    assert len(result["request_s"]) == result["record"]["requests"]
    assert result["steps"] > 0


def test_traced_run_keeps_the_virtual_digest():
    plain = worker.measure("rewrite-churn", seed=9, seconds=TINY_SECONDS)
    traced = worker.measure("rewrite-churn", seed=9, seconds=TINY_SECONDS, traced=True)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["record"]["customize"]
    assert traced["digest"] == plain["digest"]
    assert traced["steps"] == plain["steps"]
    counts = traced["trace"]["counts"]
    assert counts["cpu.decode_misses"] > 0
    assert counts["criu.pages_dumped"] > 0
    assert traced["trace"]["layer_self_ns"]["criu"] > 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_runner_prints_every_metric_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-steady",
             "--seed", "4", "--seconds", str(TINY_SECONDS), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}

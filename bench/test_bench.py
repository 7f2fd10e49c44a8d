"""Smoke test of the benchmark: tiny op lists, every metric name and unit
present, every oracle check passing.

Run with ``python -m pytest bench/test_bench.py`` (about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(argv, cwd=HERE.parent):
    return subprocess.run([sys.executable, *argv], cwd=cwd, text=True,
                          capture_output=True, timeout=170)


BENCHMARKED = {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["search", "edge", "evolve", "certify",
                                      "cli"])
def test_workload_reports_every_metric(workload, trace):
    proc = run(["bench/run.py", "--workload", workload, "--seed", "7",
                "--seconds", "0", "--trace", str(trace), "--ops", "2"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0, proc.stderr
    assert doc["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    names = {m["name"] for m in spec}
    if workload in BENCHMARKED:
        assert set(doc["metrics"]) == names
    else:    # edge adds its known-defect probe and ODE-gap metrics
        assert set(doc["metrics"]) >= names
    for m in spec:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert doc["metrics"]["trace.digest_match"]["value"] == 1.0
    else:
        assert all(doc["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(["bench/run.py", "--workload", "search", "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

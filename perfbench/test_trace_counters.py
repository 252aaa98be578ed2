"""Checks of the benchmark itself: repeatable counters, layer isolation, tail rule.

    python3 -m pytest perfbench/test_trace_counters.py

Each workload is traced twice with the same seed; the work counters and the
output digests must agree exactly, and the traced run must show the layer
the workload was chosen to isolate as the largest share of a solve.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, tail  # noqa: E402

COUNTERS = ("quadrature.nodes", "wkbj.action_integral.calls",
            "kinetics.inverse.points", "compare.bytes_written")


def traced_run(workload: str, seed: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_and_layer_is_isolated(workload):
    runs = []
    for _ in range(2):
        proc = traced_run(workload, seed=3)
        assert proc.returncode == 0, proc.stderr
        details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        assert result["correct"] and result["failed"] == 0, details["failures"]
        assert details["counters_repeat"]
        runs.append((details, result))
    (d1, r1), (d2, r2) = runs
    for name in COUNTERS:
        assert r1["metrics"][name]["value"] == r2["metrics"][name]["value"] > 0, name
    assert d1["digests"] == d2["digests"]

    iso = d1["isolation"]
    if workload == "sweep":
        assert iso["largest_self"] == iso["isolated"]
    else:
        assert iso["share"] > 0.5, iso


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = traced_run("paper_a", seed=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    value, pct = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)

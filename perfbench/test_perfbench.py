"""The benchmark's own checks.  From the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py

Every per-layer count (any metric not measured in seconds) must repeat
exactly across two traced runs of one seed, and the benchmark must refuse to
run where there is no hypwalk source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_UNITS = {"s", "s/s"}


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_counts_repeat_exactly(workload):
    first = _result(_run(ROOT, workload, 7, trace=1))
    second = _result(_run(ROOT, workload, 7, trace=1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in TIME_UNITS]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 1, trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Self-test of the benchmark at tiny sizes: ``python -m pytest bench``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
END_TO_END = {"setup_s", "simulate_s", "write_s", "read_s", "identify_s",
              "evaluate_s", "learn_s", "total_s", "peak_rss_mb"}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["rows-t2h3", "class-t2h3", "grid-t1"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics_listed_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run("grid-t1", 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # summed over the round's datasets, each scanning the 32-candidate t1 class
    candidates = result["metrics"]["learner.candidates"]["value"]
    assert candidates > 0 and candidates % 32 == 0


def test_missing_package_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in RUN.parent.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-t1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

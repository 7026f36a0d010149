"""Smoke test of the benchmark at a tiny length.

    python3 -m pytest -q bench/test_bench.py

Each run uses --scale 0.02 (streams and bundle counts at 2% of full size)
and --seconds 1, so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# end-to-end metrics each workload is not read for (bench/README.md); they
# are still printed, since every workload reports every end-to-end metric
NOT_APPLICABLE = {
    "synth-d3k5": {"serve_samples_per_s", "bundle_p50_ms", "bundle_p99_ms"},
    "covtype-d54k7": {"serve_samples_per_s", "bundle_p50_ms", "bundle_p99_ms"},
    "serve-bundles": {"train_samples_per_s", "infer_samples_per_s"},
}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.02", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed(workload, trace, section):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        side = json.loads(proc.stdout.strip().splitlines()[-2])
        assert set(side["not_applicable"]) == NOT_APPLICABLE[workload]


def test_tampered_snapshot_counts_as_failure():
    proc = run("synth-d3k5", 0, "--tamper")
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "check failed" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

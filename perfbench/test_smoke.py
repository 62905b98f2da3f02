"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs traced twice with the same seed: the output contract
holds, every check passes and every count repeats exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import source  # noqa: E402

source.import_saext()
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((source.ROOT / "BENCHMARK.json").read_text())


def _run(out: Path, *args: str, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--smoke", "--seconds", "1",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=170)
    return proc


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_code():
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]]
    assert {m["name"] for m in BENCHMARK["per_layer"]} == (
        set(tracing.COUNT_METRICS) | set(tracing.TIME_METRICS))
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == tracing.unit(metric["name"])


@pytest.mark.parametrize("workload", ["fem-ring", "oracle-sampled"])
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = _last_json(_run(tmp_path, "--workload", workload, "--seed", "1"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = json.loads(
        (tmp_path / f"{workload}-seed1-trace0" / "result.json").read_text())
    for job in detail["jobs"]:
        if workload in workloads.RESCALED:
            assert job["probe_samples"] >= 1 and job["cal_s"] > 0
        else:
            assert job["wall_ref_s"] == job["wall_s"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_runs_repeat_their_counts(tmp_path, workload):
    runs = []
    for k in range(2):
        result = _last_json(_run(tmp_path / str(k), "--workload", workload,
                                 "--seed", "7", "--trace", "1"))
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        detail = json.loads(
            (tmp_path / str(k) / f"{workload}-seed7-trace1" / "result.json").read_text())
        assert detail["counts_repeat"] is True
        assert detail["untraced_functions"] == []
        runs.append(result["metrics"])
    for name in tracing.COUNT_METRICS:
        assert runs[0][name] == runs[1][name], name


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(source.ROOT / "BENCHMARK.json", bare)
    proc = _run(bare / "out", "--workload", "fem-ring",
                script=bare / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_match_roots_allows_only_levels_at_the_range_ends():
    reference = [-0.9995, 3.0, 7.0, 99.99]
    lo, hi = -1.0, 100.0
    assert workloads.match_roots([3.0001, 7.0], reference, lo, hi)[0]
    assert workloads.match_roots([-0.9995, 3.0, 7.0, 99.99], reference, lo, hi)[0]
    assert not workloads.match_roots([3.0], reference, lo, hi)[0]
    assert not workloads.match_roots([3.0, 5.0, 7.0], reference, lo, hi)[0]
    assert not workloads.match_roots([3.01, 7.0], reference, lo, hi)[0]

"""Smoke test of the benchmark at tiny sizes (figures are not comparable).

    python3 -m pytest -q bench/tests

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, and the figures its paths are known by; that the traced runs
together write spans for every layer and that self times plus unattributed
time add up to each traced wall; and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
LAYERS = ("features", "learning", "jtree", "possibility", "detection", "prediction",
          "agents", "model_io")
SEED = 3
# Figures each workload prints beside its end-to-end metrics.
PATH_FIGURES = {
    "train-detector": ("train_s",),
    "detect-stream": ("detect_records_per_s", "detect_batch_p50_ms", "detect_batch_p95_ms",
                      "detect_batch_p99_ms", "detect_accuracy"),
    "plan-forecast": ("learn_plan_s", "ipa_alerts_per_s", "forecast_p50_ms",
                      "forecast_p95_ms", "forecast_hit_rate"),
}


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                            "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def _assert_metrics(proc, result: dict, spec: list[dict]) -> None:
    expected = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = proc.stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.split()[2] == unit for line in lines), name


def test_workloads_are_the_ones_benchmarked():
    assert {w["name"] for w in BENCH["workloads"]} == set(PATH_FIGURES)


@pytest.mark.parametrize("workload", sorted(PATH_FIGURES))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _run(ROOT, workload, 0)
    result = _result(proc)
    _assert_metrics(proc, result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
    assert "failed_share" in printed
    assert set(PATH_FIGURES[workload]) <= printed


def test_traced_runs_report_every_layer():
    names = set()
    for workload in sorted(PATH_FIGURES):
        proc = _run(ROOT, workload, 1)
        _assert_metrics(proc, _result(proc), BENCH["per_layer"])
        path = os.path.join(ROOT, "bench", "out", f"trace-{workload}-seed{SEED}.json")
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["steps"]
        for step in trace["steps"]:
            names.update(step["names"])
            self_s = sum(row["self_s"] for row in step["summary"].values())
            assert self_s + step["unattributed_s"] == pytest.approx(step["traced_s"], abs=1e-6)
            assert step["unattributed_s"] >= 0
            for _, start, end, parent in step["spans"]:
                assert start <= end and parent < len(step["spans"])
    for layer in LAYERS:
        assert any(n.startswith(layer + ".") for n in names), layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

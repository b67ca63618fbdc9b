"""Golden record of the learn-plan outputs.

`learn-plan` and `aggregate` run on the scenario's alert history and on a
log shaped like the benchmark's plan-forecast input (150 attack-step types
in planted scenarios, about 7,600 alerts); the sha256 of the plan model,
the alert classifier and the hyper-alert CSV must equal the record in
tests/data/learn_golden.json, which was written by an earlier, per-item
implementation of K2, the CPT spelling and the alert walks. Any change to
one byte of a learned structure or model fails here.

    PYTHONPATH=src python tests/test_learn_golden.py   # prints the record
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from hidpas.cli import run_command

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PORTS = ("21", "22", "23", "25", "53", "80", "110", "139", "443", "445", "3306", "8080")


def bench_shaped_log(path: str, seed: int = 20090927, types: int = 150, group: int = 25,
                     stages: int = 5, episodes: int = 1200) -> None:
    """Alerts of attack episodes that walk a planted plan DAG: groups of
    types in stages, each type past the first stage with two parents in the
    stage before; an episode takes a next step with probability 0.85 and
    raises one to three alerts per step."""
    rng = np.random.default_rng(seed)
    successors: list[list[int]] = [[] for _ in range(types)]
    starts = []
    for members in np.array_split(np.arange(types), types // group):
        layers = np.array_split(members, stages)
        starts += [int(t) for t in layers[0]]
        for layer, nxt in zip(layers, layers[1:]):
            for child in nxt:
                for parent in rng.choice(layer, size=min(2, len(layer)), replace=False):
                    successors[int(parent)].append(int(child))
    rows = []
    t0 = 0.0
    for _ in range(episodes):
        t0 += float(rng.exponential(120.0))
        step = int(rng.choice(starts))
        steps = [step]
        while successors[step] and rng.random() < 0.85:
            step = int(rng.choice(successors[step]))
            steps.append(step)
        attacker = f"10.0.0.{int(rng.integers(1, 13))}"
        victim = f"192.168.1.{int(rng.integers(10, 30))}"
        sensor = f"ids{int(rng.integers(1, 4))}"
        t = t0
        for s in steps:
            for _ in range(int(rng.integers(1, 4))):
                rows.append((t, f"{t:.1f},{sensor},{attacker},{1024 + int(rng.integers(0, 16))},"
                                f"{victim},{PORTS[s % len(PORTS)]},step{s:03d}"))
                t += float(rng.uniform(0.5, 4.0))
            t += float(rng.uniform(5.0, 40.0))
    rows.sort(key=lambda r: r[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n")
        fh.writelines(line + "\n" for _, line in rows)


def learn_plan_digests(log: str, work: str) -> dict[str, str]:
    """sha256 of each output of `learn-plan` and `aggregate` on log."""
    out = {name: os.path.join(work, name) for name in ("plan.bn", "classifier.bn", "hypers.csv")}
    assert run_command(["learn-plan", "--alerts", log, "--out", out["plan.bn"],
                        "--classifier-out", out["classifier.bn"], "--no-timestamp"]) == 0
    assert run_command(["aggregate", "--alerts", log, "--out", out["hypers.csv"]]) == 0
    digests = {}
    for name, path in out.items():
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def record(work: str) -> dict[str, dict[str, str]]:
    bench_log = os.path.join(work, "bench_alerts.csv")
    bench_shaped_log(bench_log)
    logs = {"scenario": os.path.join(DATA_DIR, "scenario", "alert_history.csv"),
            "bench-shaped": bench_log}
    return {name: learn_plan_digests(log, work) for name, log in logs.items()}


def test_learn_plan_outputs_match_the_golden_record(tmp_path):
    with open(os.path.join(DATA_DIR, "learn_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert record(str(tmp_path)) == golden


def test_bench_shaped_log_has_the_benchmark_shape(tmp_path):
    from hidpas.prediction import aggregate_alerts, build_transactions, load_alert_log

    path = str(tmp_path / "alerts.csv")
    bench_shaped_log(path)
    log = load_alert_log(path)
    tm = build_transactions(aggregate_alerts(log), dt=60.0)
    assert 6000 < len(log) < 9000
    assert tm.occurrence.shape[1] == 150 and tm.slot_count > 1500


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        golden = record(work)
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    print()

"""Golden record of the detect output.

`detect --alerts-out` runs on the scenario's three host streams, under a
detector learned from the scenario's training file, and on a benchmark-shaped
stream generated here (1500 records with the `timestamp,src_ip,dst_ip`
prefix, drawn from the profiles of test_detector_golden, some holding a
service the model never saw), under a detector learned from the
benchmark-shaped training file. The sha256 of each alert CSV must equal the
record in tests/data/detect_golden.json, which was written before
load_stream read a stream by columns. Any change to one byte of an alert
fails here.

    PYTHONPATH=src python tests/test_detect_golden.py   # prints the record
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
from hidpas.features import KDD_FEATURES

from test_detector_golden import DEFAULTS, PROFILES, TEMPLATE, _draw, bench_shaped_kdd

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SCENARIO_DIR = os.path.join(DATA_DIR, "scenario")


def bench_shaped_stream(path: str, seed: int = 20261019, records: int = 1500) -> None:
    """Prefixed stream records from the training profiles: increasing
    millisecond stamps, varying sources, and one record in fifty holding an
    unseen service."""
    rng = np.random.default_rng(seed)
    labels = list(PROFILES)
    cumulative = np.cumsum([PROFILES[label][0] for label in labels])
    stamp = 0
    lines = []
    for i in range(records):
        label = labels[int(np.searchsorted(cumulative, rng.random() * cumulative[-1]))]
        specs = {**DEFAULTS, **PROFILES[label][1]}
        cells = [_draw(rng, specs[name]) if name in specs else TEMPLATE[name]
                 for name, _ in KDD_FEATURES]
        if i % 50 == 49:
            cells[2] = "unseen_service"
        stamp += int(rng.integers(1, 1000))
        lines.append(f"{stamp / 1000:.3f},172.16.0.{int(rng.integers(2, 250))},192.168.1.10,"
                     + ",".join(cells) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def alerts_digest(model: str, stream: str, host: str, work: str) -> str:
    """sha256 of the alert CSV `detect` writes for stream under model."""
    out = os.path.join(work, f"{host}-alerts.csv")
    assert run_command(["detect", "--model", model, "--data", stream, "--host", host,
                        "--alerts-out", out]) == 0
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def learn(data: str, out: str) -> str:
    assert run_command(["learn-detector", "--data", data, "--out", out,
                        "--label-granularity", "category", "--no-timestamp"]) == 0
    return out


def record(work: str) -> dict[str, str]:
    scenario = learn(os.path.join(SCENARIO_DIR, "detector_train.csv"),
                     os.path.join(work, "scenario.bn"))
    golden = {f"host_{h}": alerts_digest(scenario, os.path.join(SCENARIO_DIR, f"host_{h}.csv"),
                                         f"host-{h}", work)
              for h in "abc"}
    train, stream = os.path.join(work, "bench_kdd.csv"), os.path.join(work, "stream.csv")
    bench_shaped_kdd(train)
    bench_shaped_stream(stream)
    golden["bench-shaped"] = alerts_digest(learn(train, os.path.join(work, "bench.bn")),
                                           stream, "host-1", work)
    return golden


def test_detect_output_matches_the_golden_record(tmp_path):
    with open(os.path.join(DATA_DIR, "detect_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert record(str(tmp_path)) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        golden = record(work)
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    print()

"""Golden record of the forecast outputs.

A detector, a plan model and an alert classifier are learned from the
scenario files as criterion 7 learns them. Then `predict --observed
portsweep` runs under `--select max` and under `--select threshold`, and
`simulate --seed 42 --log` runs on the criterion-7 config. The sha256 and
byte count of each stdout and of the NDJSON log must equal the record in
tests/data/forecast_golden.json, so any change to one byte of a forecast
report or of its wire form fails here, across commits (criterion 7 only
compares two runs of one commit).

    PYTHONPATH=src python tests/test_forecast_golden.py   # prints the record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from hidpas.cli import run_command

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SCENARIO_DIR = os.path.join(DATA_DIR, "scenario")


def _entry(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(argv) == 0
    return out.getvalue().encode()


def record(work: str) -> dict[str, dict]:
    det, plan, clf = (os.path.join(work, name) for name in ("det.bn", "plan.bn", "clf.bn"))
    events = os.path.join(work, "events.ndjson")
    _stdout(["learn-detector", "--data", os.path.join(SCENARIO_DIR, "detector_train.csv"),
             "--out", det, "--top-k", "4", "--label-granularity", "attack", "--no-timestamp"])
    _stdout(["learn-plan", "--alerts", os.path.join(SCENARIO_DIR, "alert_history.csv"),
             "--out", plan, "--classifier-out", clf, "--slot", "60", "--no-timestamp"])
    golden = {f"predict --select {selection}": _entry(_stdout(
        ["predict", "--model", plan, "--observed", "portsweep", "--select", selection]))
        for selection in ("max", "threshold")}
    conf = os.path.join(work, "sim.conf")
    with open(conf, "w", encoding="utf-8") as fh:
        fh.write(f"detector_model = {det}\nalert_classifier = {clf}\n"
                 f"plan_model = {plan}\ntau = 0.7\n"
                 f"host.host-a = {os.path.join(SCENARIO_DIR, 'host_a.csv')}\n"
                 f"host.host-c = {os.path.join(SCENARIO_DIR, 'host_c.csv')}\n")
    _stdout(["simulate", "--config", conf, "--seed", "42", "--log", events])
    with open(events, "rb") as fh:
        golden["simulate --seed 42 --log"] = _entry(fh.read())
    return golden


def test_forecast_outputs_match_the_golden_record(tmp_path):
    with open(os.path.join(DATA_DIR, "forecast_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert record(str(tmp_path)) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        golden = record(work)
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    print()

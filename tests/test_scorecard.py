"""Planted-truth scorecard on the benchmark generator's TINY data.

The generator plants the truth: each stream record's class, each replayed
alert's hyper-alert (its attack type) and each replayed episode's later
steps. These tests pin how many of them the shipped decision rules get
right, next to plain argmax of P, so that a change which moves decision
quality shows here and changes the figures on purpose.

numpy does not promise its Generator streams across versions, so the
figures are pinned with the sha256 of the inputs they were measured on; a
numpy that draws other inputs skips rather than checking unseen figures.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from hidpas import agents, detection, features, prediction

GEN = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "gen.py")
INPUTS = ("train", "stream", "stream_labels", "alerts", "replay")
PLAN_SLOT_S = 60.0  # bench/steps.py's learn step

# per seed: sha256 of the inputs, then (shipped, argmax P) right of the 100
# stream records, (shipped, argmax P) right of the 30 replayed alerts, and
# the forecasts made with their hits: the shipped `max` selection's top
# row, and every unobserved hyper-alert ranked by P at top 1 and top 3
SCORECARD = {
    1: ("12fdeab70334449b5763f6bf8b6d476a3b5c3fdb652088745e0e4f210481ba3d",
        (74, 95), (8, 30), (8, 1, 3, 4)),
    7: ("a8584ac39a99a328d1c53648ef7ce5515f19af3db5211a6be91ccc2ba22ba9cf",
        (65, 97), (6, 30), (7, 0, 1, 3)),
}


def load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def input_digest(files: dict) -> str:
    digest = hashlib.sha256()
    for name in INPUTS:
        with open(files[name], "rb") as fh:
            digest.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(SCORECARD))
def tiny(request, tmp_path_factory):
    """One seed's TINY data and the models the benchmark learns from it."""
    seed, gen = request.param, load_gen()
    files = gen.write_dataset(seed, str(tmp_path_factory.mktemp(f"tiny{seed}")), gen.TINY)
    table = features.apply_label_granularity(features.load_kdd(files["train"]), "category")
    hypers = prediction.aggregate_alerts(prediction.load_alert_log(files["alerts"]))
    with open(files["stream_labels"], encoding="utf-8") as fh:
        labels = fh.read().split()
    with open(files["replay"], encoding="utf-8") as fh:
        episodes = json.load(fh)
    return {
        "seed": seed,
        "digest": input_digest(files),
        "detector": detection.train_detector(table, detection.DetectorConfig()),
        "stream": detection.load_stream(files["stream"]),
        "labels": labels,
        "plan": prediction.train_plan_model(
            prediction.build_transactions(hypers, dt=PLAN_SLOT_S)),
        "classifier": prediction.train_alert_classifier(hypers),
        "episodes": episodes,
    }


def replayed(episode):
    """An episode's alerts as bench/steps.py sends them to the IPA."""
    for ts, sensor, src_ip, _, dst_ip, _, kind in episode["alerts"]:
        yield detection.DetectionAlert(float(ts), sensor, src_ip, dst_ip, kind, 1.0, 1.0, 1.0)


def argmax_label(model, result) -> str:
    return model.net.variable(model.class_var).states[int(np.argmax(result.marginal.probability))]


def pinned(tiny):
    digest, *figures = SCORECARD[tiny["seed"]]
    if tiny["digest"] != digest:
        pytest.skip("this numpy draws other TINY inputs than the figures were measured on")
    return figures


def test_detector_scorecard(tiny):
    (shipped, argmax), _, _ = pinned(tiny)
    model = tiny["detector"]
    results = detection.classify_connections(model, tiny["stream"])
    assert len(results) == len(tiny["labels"]) == 100
    assert sum(r.label == truth for r, truth in zip(results, tiny["labels"])) == shipped
    assert sum(argmax_label(model, r) == truth
               for r, truth in zip(results, tiny["labels"])) == argmax
    assert not any(r.low_confidence for r in results)


def test_alert_classifier_scorecard(tiny):
    _, (shipped, argmax), _ = pinned(tiny)
    model = tiny["classifier"]
    alerts = [a for episode in tiny["episodes"] for a in replayed(episode)]
    results = [prediction.classify_alert(model, a) for a in alerts]
    assert len(results) == 30
    assert sum(r.label == a.attack_type for r, a in zip(results, alerts)) == shipped
    assert sum(argmax_label(model, r) == a.attack_type for r, a in zip(results, alerts)) == argmax


def test_forecast_scorecard(tiny):
    _, _, (made, shipped, top1, top3) = pinned(tiny)
    forecasts = []  # (report, the episode's later steps)
    for episode in tiny["episodes"]:
        state = agents.IPAState(classifier=tiny["classifier"], plan=tiny["plan"])
        steps = episode["steps"]
        for alert in replayed(episode):
            state, emitted = agents.ipa_step(
                state, agents.AgentMessage(agents.ALERT, alert.host, alert))
            forecasts += [(m.payload, steps[steps.index(alert.attack_type) + 1:])
                          for m in emitted]
    ranked = [(sorted(report.rows, key=lambda r: (-r.probability, r.hyper_name)), later)
              for report, later in forecasts]
    assert len(forecasts) == made
    assert sum(bool(report.predicted) and report.predicted[0].hyper_name in later
               for report, later in forecasts) == shipped
    assert sum(rows[0].hyper_name in later for rows, later in ranked) == top1
    assert sum(any(r.hyper_name in later for r in rows[:3]) for rows, later in ranked) == top3


def test_replayed_alerts_classify_as_records_with_blank_ports(tiny):
    """The IPA classifies a DetectionAlert as sent: it reads as the alert-log
    record of the same alert with both ports unobserved."""
    model = tiny["classifier"]
    for episode in tiny["episodes"]:
        for alert in replayed(episode):
            record = prediction.AlertRecord(alert.timestamp, alert.host, alert.src_ip, "",
                                            alert.dst_ip, "", alert.attack_type)
            assert prediction.classify_alert(model, alert) == prediction.classify_alert(
                model, record)

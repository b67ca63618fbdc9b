from __future__ import annotations

import json
import os
from dataclasses import astuple, fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas.agents import (
    ALERT,
    PREDICTION,
    AgentMessage,
    IPAState,
    SimulationConfig,
    ipa_step,
    load_sim_config,
    run_simulation,
)
from hidpas.cli import run_command
from hidpas.detection import DetectionAlert
from hidpas.features import DataError
from hidpas.model_io import load_classifier, load_plan
from hidpas.prediction import (ATTRIBUTE_FIELDS, AlertRecord, PredictionReport, PredictionRow,
                               classify_alert)

from conftest import SCENARIO_DIR


def build_models(tmp_path) -> dict[str, str]:
    paths = {
        "detector": str(tmp_path / "det.bn"),
        "classifier": str(tmp_path / "clf.bn"),
        "plan": str(tmp_path / "plan.bn"),
    }
    rc = run_command([
        "learn-detector", "--data", os.path.join(SCENARIO_DIR, "detector_train.csv"),
        "--out", paths["detector"], "--top-k", "4",
        "--label-granularity", "attack", "--no-timestamp",
    ])
    assert rc == 0
    rc = run_command([
        "learn-plan", "--alerts", os.path.join(SCENARIO_DIR, "alert_history.csv"),
        "--out", paths["plan"], "--classifier-out", paths["classifier"],
        "--slot", "60", "--no-timestamp",
    ])
    assert rc == 0
    return paths


def scenario_config(tmp_path, seed=42) -> SimulationConfig:
    paths = build_models(tmp_path)
    hosts = {
        "host-a": os.path.join(SCENARIO_DIR, "host_a.csv"),
        "host-b": os.path.join(SCENARIO_DIR, "host_b.csv"),
        "host-c": os.path.join(SCENARIO_DIR, "host_c.csv"),
    }
    return SimulationConfig(
        hosts=hosts,
        detector_model=paths["detector"],
        alert_classifier=paths["classifier"],
        plan_model=paths["plan"],
        tau=0.7,
        seed=seed,
    )


def sample_alert(ts=65.0, attack="portsweep") -> DetectionAlert:
    return DetectionAlert(ts, "host-c", "10.0.0.5", "192.168.1.10", attack,
                          0.5, 0.9, 1.0)


@pytest.fixture(scope="module")
def sim_setup(tmp_path_factory):
    return scenario_config(tmp_path_factory.mktemp("models"))


def test_message_payload_kind_enforced():
    with pytest.raises(ValueError):
        AgentMessage(PREDICTION, "x", sample_alert())
    with pytest.raises(ValueError):
        AgentMessage(ALERT, "x", None)


_texts = st.sampled_from(['"', "\\", '\\"', "é", "\u2603", "\U0001f600", "a\nb", ""]) | st.text()
_floats = st.sampled_from([1e-17, 0.1 + 0.2, 0.0, -0.0]) | st.floats()
_alerts = st.builds(DetectionAlert, _floats, _texts, _texts, _texts, _texts,
                    _floats, _floats, _floats)
_reports = st.builds(PredictionReport, st.lists(_texts).map(tuple), st.lists(
    st.builds(PredictionRow, _texts, _floats, _floats, _floats, st.booleans(), st.booleans())
).map(tuple), st.sampled_from(["max", "threshold"]))


@settings(max_examples=150, deadline=None)
@given(message=st.one_of(st.builds(AgentMessage, st.just(ALERT), _texts, _alerts),
                         st.builds(AgentMessage, st.just(PREDICTION), _texts, _reports)))
def test_a_message_is_sent_as_json_dumps_spells_it(message):
    """The wire form is `json.dumps` of the message with sorted keys, the
    same on every call, whatever a caller does to a payload dict it got."""
    expected = json.dumps({"kind": message.kind, "sender": message.sender,
                           "payload": message.payload.to_payload()}, sort_keys=True)
    payload = message.payload.to_payload()
    for value in payload.values():
        if isinstance(value, list):
            value.append("changed")
    payload.clear()
    assert message.to_json() == expected
    payload = message.payload.to_payload()
    for row in payload.get("rows", []):
        row["hyper_alert"] = "changed"
    payload["kind"] = "changed"
    assert message.to_json() == expected


def test_simulation_three_hosts_one_alert_one_prediction(sim_setup):
    result = run_simulation(sim_setup)
    alerts = [m for m in result.event_log if m.kind == ALERT]
    predictions = [m for m in result.event_log if m.kind == PREDICTION]
    assert len(alerts) == 1
    assert alerts[0].payload.attack_type == "portsweep"
    assert len(predictions) == 1
    row = next(r for r in predictions[0].payload.rows if r.hyper_name == "teardrop")
    assert row.probability == pytest.approx(0.8, abs=1e-9)


def test_simulation_benign_hosts_produce_nothing(sim_setup):
    from dataclasses import replace

    config = replace(sim_setup, hosts={
        "host-a": os.path.join(SCENARIO_DIR, "host_a.csv"),
        "host-b": os.path.join(SCENARIO_DIR, "host_b.csv"),
    })
    result = run_simulation(config)
    assert result.event_log == [] and result.reports == []


def test_simulation_is_reproducible(sim_setup):
    first = run_simulation(sim_setup)
    second = run_simulation(sim_setup)
    assert [m.to_json() for m in first.event_log] == [m.to_json() for m in second.event_log]


def test_duplicate_intrusions_trigger_one_prediction(sim_setup, tmp_path):
    """Three hosts with identical intrusive records: three alerts, one
    distinct hyper-alert, and repeat evidence adds no new predictions."""
    from dataclasses import replace

    intrusive = os.path.join(SCENARIO_DIR, "host_c.csv")
    config = replace(sim_setup, hosts={
        "h1": intrusive, "h2": intrusive, "h3": intrusive,
    })
    result = run_simulation(config)
    alerts = [m for m in result.event_log if m.kind == ALERT]
    predictions = [m for m in result.event_log if m.kind == PREDICTION]
    assert len(alerts) == 3
    assert len(predictions) == 1  # same hyper-alert observed again and again


def test_ipa_step_is_pure_and_replayable(sim_setup):
    classifier = load_classifier(sim_setup.alert_classifier)
    plan = load_plan(sim_setup.plan_model)
    state0 = IPAState(classifier=classifier, plan=plan, theta=0.5)

    msg = AgentMessage(ALERT, "host-c", sample_alert())
    state1a, out_a = ipa_step(state0, msg)
    state1b, out_b = ipa_step(state0, msg)
    assert state1a.observed == state1b.observed == ("portsweep",)
    assert [m.to_json() for m in out_a] == [m.to_json() for m in out_b]

    # repeated hyper-alert: no new prediction
    state2, out2 = ipa_step(state1a, AgentMessage(ALERT, "host-c", sample_alert(70.0)))
    assert out2 == () and state2.observed == state1a.observed


def test_ipa_step_skips_a_prediction_on_impossible_evidence(sim_setup, caplog):
    """In this plan x rules out portsweep, so observing both has zero mass
    and y cannot be forecast: the IPA logs the skip, emits nothing, and
    still records the alert's hyper-alert as observed. It does the same
    when y is observed too, leaving nothing to forecast."""
    from dataclasses import replace

    import numpy as np

    from hidpas.core import BayesNet, Dag, Variable
    from hidpas.prediction import OCCURRENCE, PlanModel

    names = ("x", "portsweep", "y")
    dag = Dag([Variable(i, name, OCCURRENCE) for i, name in enumerate(names)], [(), (0,), ()])
    cpts = [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([[0.5, 0.5]])]
    plan = PlanModel(BayesNet(dag, cpts), tau=0.7)
    state = IPAState(classifier=load_classifier(sim_setup.alert_classifier), plan=plan,
                     observed=("x",))
    with caplog.at_level("WARNING", logger="hidpas.agents"):
        new_state, out = ipa_step(state, AgentMessage(ALERT, "host-c", sample_alert()))
    assert out == ()
    assert new_state.observed == ("x", "portsweep")
    assert [r.getMessage() for r in caplog.records] == [
        "prediction skipped: observed set ['x', 'portsweep'] has zero mass in the plan model"]
    caplog.clear()
    with caplog.at_level("WARNING", logger="hidpas.agents"):
        new_state, out = ipa_step(replace(state, observed=("x", "y")),
                                  AgentMessage(ALERT, "host-c", sample_alert()))
    assert out == () and new_state.observed == ("x", "y", "portsweep")
    assert [r.getMessage() for r in caplog.records] == [
        "prediction skipped: observed set ['x', 'y', 'portsweep'] has zero mass in the plan model"]


def test_ipa_classifies_a_host_alert_as_a_record_with_blank_ports(sim_setup):
    """ipa_step hands each DetectionAlert to classify_alert as sent: a host
    alert observes no ports, so it reads as the alert-log record of the same
    alert with both ports blank."""
    classifier = replace(load_classifier(sim_setup.alert_classifier), tau=sim_setup.tau)
    alerts = [m.payload for m in run_simulation(sim_setup).event_log if m.kind == ALERT]
    alerts += [sample_alert(), sample_alert(attack="teardrop"), sample_alert(attack="unseen")]
    for alert in alerts:
        assert alert.src_port == alert.dst_port == ""
        record = AlertRecord(alert.timestamp, alert.host, alert.src_ip, "", alert.dst_ip, "",
                             alert.attack_type)
        assert classify_alert(classifier, alert) == classify_alert(classifier, record)


@pytest.mark.parametrize("missing", ATTRIBUTE_FIELDS)
def test_classify_alert_needs_every_attribute_field(sim_setup, missing):
    classifier = load_classifier(sim_setup.alert_classifier)
    alert = SimpleNamespace(**{f: "" for f in ATTRIBUTE_FIELDS if f != missing})
    with pytest.raises(AttributeError, match=missing):
        classify_alert(classifier, alert)


def test_detection_alert_ports_are_not_fields():
    """The blank ports are class attributes: the constructor, equality, the
    payload and the NDJSON event log see only the eight fields."""
    alert = sample_alert()
    assert [f.name for f in fields(DetectionAlert)] == [
        "timestamp", "host", "src_ip", "dst_ip", "attack_type",
        "necessity", "probability", "possibility"]
    assert DetectionAlert(*astuple(alert)) == alert
    assert list(alert.to_payload()) == [
        "timestamp", "host", "src_ip", "dst_ip", "necessity", "probability", "possibility",
        "type"]


def test_ipa_step_first_alert_emits_one_prediction(sim_setup):
    classifier = load_classifier(sim_setup.alert_classifier)
    plan = load_plan(sim_setup.plan_model)
    state = IPAState(classifier=classifier, plan=plan)
    _, out = ipa_step(state, AgentMessage(ALERT, "h", sample_alert()))
    assert len(out) == 1 and out[0].kind == PREDICTION


def test_event_log_replays_through_ipa_step(sim_setup):
    result = run_simulation(sim_setup)
    classifier = load_classifier(sim_setup.alert_classifier)
    plan = load_plan(sim_setup.plan_model)
    from dataclasses import replace as dc_replace

    classifier = dc_replace(classifier, tau=sim_setup.tau)
    plan = dc_replace(plan, tau=sim_setup.tau)
    state = IPAState(classifier=classifier, plan=plan,
                     selection=sim_setup.selection, theta=sim_setup.theta)
    replayed = []
    for msg in result.event_log:
        if msg.kind != ALERT:
            continue
        state, out = ipa_step(state, msg)
        replayed.extend(out)
    assert [m.to_json() for m in replayed] == [
        m.to_json() for m in result.event_log if m.kind == PREDICTION]


def test_alert_order_per_host_is_preserved(sim_setup):
    from dataclasses import replace

    intrusive = os.path.join(SCENARIO_DIR, "host_c.csv")
    config = replace(sim_setup, hosts={"only": intrusive})
    result = run_simulation(config)
    stamps = [m.payload.timestamp for m in result.event_log if m.kind == ALERT]
    assert stamps == sorted(stamps)


def test_event_log_ndjson_format(sim_setup, tmp_path):
    result = run_simulation(sim_setup)
    path = tmp_path / "events.ndjson"
    result.write_ndjson(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(result.event_log)
    first = json.loads(lines[0])
    assert set(first) == {"kind", "sender", "payload"}
    assert first["kind"] == ALERT
    assert set(first["payload"]) == {
        "timestamp", "host", "src_ip", "dst_ip", "type",
        "necessity", "probability", "possibility"}


def test_sim_config_file_parsing(tmp_path, sim_setup):
    conf = tmp_path / "sim.conf"
    conf.write_text(
        "# scenario\n"
        f"detector_model = {sim_setup.detector_model}\n"
        f"alert_classifier = {sim_setup.alert_classifier}\n"
        f"plan_model = {sim_setup.plan_model}\n"
        "selection = threshold\n"
        "theta = 0.25\n"
        "tau = 0.7\n"
        "seed = 7\n"
        f"host.a = {sim_setup.hosts['host-a']}\n"
    )
    config = load_sim_config(str(conf))
    assert config.selection == "threshold"
    assert config.theta == 0.25
    assert config.tau == 0.7
    assert config.seed == 7
    assert list(config.hosts) == ["a"]


def test_sim_config_missing_keys_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("host.a = x.csv\n")
    with pytest.raises(DataError, match="missing keys"):
        load_sim_config(str(conf))
    conf.write_text("detector_model = d.bn\nalert_classifier = c.bn\nplan_model = p.bn\n")
    with pytest.raises(DataError, match=r"bad.conf: missing keys \['host.<id>'\]$"):
        load_sim_config(str(conf))


@pytest.mark.parametrize("line, message", [
    ("theta = abc", "bad theta 'abc'"),
    ("theta = inf", "bad theta 'inf'"),
    ("tau = nan", "bad tau 'nan'"),
    ("seed = 1.5", "bad seed '1.5'"),
    ("selection = maximum", "bad selection 'maximum' \\(expected one of max, threshold\\)"),
    ("thetaa = 0.9", "unknown key 'thetaa'"),
    ("plan_model = q.bn", "plan_model repeats line 3"),
    ("host.a = y.csv", "host.a repeats line 4"),
    ("host. = x.csv", "host without an id"),
    ("host.b =", "host.b has no value"),
    ("seed =", "seed has no value"),
    ("thetaa =", "unknown key 'thetaa'"),
])
def test_sim_config_rejects_a_bad_value_with_its_line(tmp_path, line, message):
    conf = tmp_path / "bad.conf"
    conf.write_text("detector_model = d.bn\nalert_classifier = c.bn\nplan_model = p.bn\n"
                    f"host.a = x.csv\n{line}\n")
    with pytest.raises(DataError, match=f"bad.conf:5: {message}"):
        load_sim_config(str(conf))


def test_simulation_missing_model_aborts(sim_setup):
    from dataclasses import replace

    config = replace(sim_setup, detector_model="/no/such.bn")
    with pytest.raises(DataError):
        run_simulation(config)

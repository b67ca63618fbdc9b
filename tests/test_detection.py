from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from hidpas import possibility
from hidpas.core import Evidence
from hidpas.detection import (
    ConnectionRecord,
    DetectorConfig,
    _record_evidence,
    classify_connection,
    classify_connections,
    detect_stream,
    load_stream,
    train_detector,
    write_alerts_csv,
)
from hidpas.features import KDD_FEATURES, DataError, RawTable, load_kdd

from conftest import data_path


def toy_table(n_per_class: int = 12) -> RawTable:
    """attack_type is a deterministic function of protocol_type."""
    names = [n for n, _ in KDD_FEATURES] + ["attack_type"]
    kinds = [k for _, k in KDD_FEATURES] + ["categorical"]
    defaults = {"categorical": "c0", "numeric": 0.0}
    columns = []
    protos = ["tcp"] * n_per_class + ["udp"] * n_per_class
    labels = ["normal"] * n_per_class + ["dos"] * n_per_class
    for name, kind in zip(names, kinds):
        if name == "protocol_type":
            columns.append(np.array(protos, dtype=object))
        elif name == "attack_type":
            columns.append(np.array(labels, dtype=object))
        elif kind == "numeric":
            columns.append(np.zeros(2 * n_per_class))
        else:
            columns.append(np.array([defaults["categorical"]] * 2 * n_per_class,
                                    dtype=object))
    return RawTable(tuple(names), tuple(kinds), tuple(columns))


def record_from_table(table: RawTable, row: int, **meta) -> ConnectionRecord:
    values = tuple(table.columns[i][row] for i in range(41))
    return ConnectionRecord(values, **meta)


@pytest.fixture(scope="module")
def deterministic_model():
    table = toy_table()
    return train_detector(table, DetectorConfig(top_k=2, smoothing=0.0)), table


@pytest.fixture(scope="module")
def scenario_model():
    table = load_kdd(data_path("scenario", "detector_train.csv"))
    return train_detector(table, DetectorConfig(top_k=4))


def test_deterministic_class_forces_edge_and_perfect_training_fit(deterministic_model):
    model, table = deterministic_model
    proto = model.net.var_id("protocol_type")
    cls = model.class_var
    linked = (proto in model.net.dag.parents[cls]
              or cls in model.net.dag.parents[proto])
    assert linked
    for row in range(table.row_count):
        result = classify_connection(model, record_from_table(table, row))
        assert result.label == table.column("attack_type")[row]
        assert result.triple[1] == pytest.approx(1.0)
        assert result.marginal.gap(result.state) == pytest.approx(0.0)


def test_single_class_table_degenerates():
    table = toy_table()
    labels = np.array(["normal"] * table.row_count, dtype=object)
    idx = table.names.index("attack_type")
    columns = tuple(labels if i == idx else c for i, c in enumerate(table.columns))
    single = RawTable(table.names, table.kinds, columns)
    model = train_detector(single, DetectorConfig(top_k=2))
    result = classify_connection(model, record_from_table(single, 0))
    assert result.label == "normal"
    assert result.triple[1] == pytest.approx(1.0)


def test_model_has_top_k_plus_class_variables(scenario_model):
    assert len(scenario_model.net.dag.variables) == 5  # 4 features + class


def test_classification_probabilities_sum_to_one(scenario_model):
    records = load_stream(data_path("scenario", "host_c.csv"))
    for record in records:
        result = classify_connection(scenario_model, record)
        assert math.fsum(result.marginal.probability) == pytest.approx(1.0, abs=1e-9)


def test_unseen_category_flows_through_unknown_path(deterministic_model):
    model, table = deterministic_model
    record = record_from_table(table, 0)
    values = list(record.values)
    values[1] = "icmp"  # protocol value never seen in training
    result = classify_connection(model, ConnectionRecord(tuple(values)))
    assert result.unknown_values == ("protocol_type=icmp",)
    assert result.label in ("normal", "dos")


def test_symmetric_model_breaks_ties_by_state_order():
    table = toy_table()
    model = train_detector(table, DetectorConfig(top_k=0, smoothing=1.0))
    # no features: classification sees the bare class prior, which is uniform
    result = classify_connection(model, record_from_table(table, 0))
    assert result.label == model.class_states[0]


def test_probability_component_equals_plain_jt_classification(scenario_model):
    """The possibility bracket influences selection only; P comes from plain
    sum-product propagation of the same evidence."""
    from hidpas.core import Evidence
    from hidpas.detection import _record_evidence
    from hidpas.jtree import (SUM_PRODUCT, build_tree_for_net, evidence_matrix,
                              initialize_potentials, net_factors, propagate,
                              query_marginal)

    records = load_stream(data_path("scenario", "host_c.csv"))
    jt = initialize_potentials(build_tree_for_net(scenario_model.net),
                               net_factors(scenario_model.net), SUM_PRODUCT)
    for record in records:
        evidence, _ = _record_evidence(scenario_model, record)
        result = classify_connection(scenario_model, record)
        plain = query_marginal(propagate(jt, evidence_matrix(jt, [Evidence(evidence)])),
                               scenario_model.class_var)[0]
        assert tuple(plain) == result.marginal.probability


def test_detect_stream_all_normal_is_empty(scenario_model):
    records = load_stream(data_path("scenario", "host_a.csv"))
    assert detect_stream(scenario_model, records, "h") == []


def test_detect_stream_flags_the_intrusive_record(scenario_model):
    records = load_stream(data_path("scenario", "host_c.csv"))
    alerts = detect_stream(scenario_model, records, "host-c")
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.attack_type == "portsweep"
    assert alert.host == "host-c"
    assert alert.timestamp == 65.0
    assert alert.src_ip == "10.0.0.5"
    assert 0.0 <= alert.necessity <= alert.possibility <= 1.0


def test_detect_stream_empty_input(scenario_model):
    assert detect_stream(scenario_model, [], "h") == []


def test_alert_count_never_exceeds_records(scenario_model):
    for name in ("host_a", "host_b", "host_c"):
        records = load_stream(data_path("scenario", f"{name}.csv"))
        alerts = detect_stream(scenario_model, records, name)
        assert len(alerts) <= len(records)
        assert all(a.attack_type != "normal" for a in alerts)


def test_load_stream_plain_kdd_synthesizes_timestamps(tmp_path):
    lines = open(data_path("scenario", "detector_train.csv")).readlines()[:3]
    path = tmp_path / "plain.csv"
    path.write_text("".join(lines))
    records = load_stream(str(path))
    assert [r.timestamp for r in records] == [0.0, 1.0, 2.0]
    assert records[0].src_ip == ""


def test_load_stream_metadata_prefix():
    records = load_stream(data_path("scenario", "host_c.csv"))
    assert records[1].timestamp == 65.0
    assert records[1].src_ip == "10.0.0.5"
    assert records[1].dst_ip == "192.168.1.10"


def test_load_stream_rejects_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3,4\n")
    with pytest.raises(Exception):
        load_stream(str(path))
    assert load_stream(str(path), on_bad="skip") == []


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "soon"])
def test_load_stream_rejects_a_non_finite_timestamp(tmp_path, stamp):
    lines = open(data_path("scenario", "host_c.csv")).read().splitlines()
    path = tmp_path / "stamps.csv"
    path.write_text("\n".join([lines[0], stamp + lines[1][lines[1].index(","):], lines[2]]) + "\n")
    with pytest.raises(DataError, match=f"stamps.csv:2: bad timestamp '{stamp}'"):
        load_stream(str(path))
    kept = load_stream(str(path), on_bad="skip")
    assert [r.timestamp for r in kept] == [r.timestamp for r in
                                           load_stream(data_path("scenario", "host_c.csv"))[::2][:2]]


def test_alert_csv_format(tmp_path, scenario_model):
    records = load_stream(data_path("scenario", "host_c.csv"))
    alerts = detect_stream(scenario_model, records, "host-c")
    out = tmp_path / "alerts.csv"
    write_alerts_csv(alerts, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "timestamp,host,src_ip,dst_ip,type,necessity,probability,possibility"
    assert lines[1].split(",")[4] == "portsweep"


def test_detect_stream_alerts_do_not_depend_on_chunking(scenario_model, monkeypatch):
    records = [r for name in ("detector_train", "host_a", "host_b", "host_c")
               for r in load_stream(data_path("scenario", f"{name}.csv"))]

    def rows(alerts):
        return [a.csv_row() for a in alerts]

    whole = rows(detect_stream(scenario_model, records, "h"))
    assert whole
    for size in (1, 4):
        fed = []
        for i in range(0, len(records), size):
            fed += detect_stream(scenario_model, records[i:i + size], "h")
        assert rows(fed) == whole
    # a budget of three rows' tables makes the engine calibrate by 3; a
    # fresh model has an empty memo, so every distinct row is calibrated
    fresh = replace(scenario_model)
    monkeypatch.setattr(possibility, "ENTRY_BUDGET", 3 * fresh.engine._prob.plan.entries)
    assert rows(detect_stream(fresh, iter(records), "h")) == whole


def test_classify_connections_calibrates_within_the_entry_budget(scenario_model, monkeypatch):
    """A long call is calibrated in chunks of the engine's entry budget, one
    per two distinct rows here, and classifies as an unbounded call does."""
    records = [r for name in ("detector_train", "host_a", "host_b", "host_c")
               for r in load_stream(data_path("scenario", f"{name}.csv"))]
    fresh = replace(scenario_model)
    distinct = {tuple(sorted(_record_evidence(fresh, r)[0].items())) for r in records}
    calls = []
    propagate = possibility.propagate
    monkeypatch.setattr(possibility, "propagate",
                        lambda *args: calls.append(1) or propagate(*args))
    monkeypatch.setattr(possibility, "ENTRY_BUDGET", 2 * fresh.engine._prob.plan.entries)
    got = classify_connections(fresh, records)
    assert len(distinct) == 3 and len(calls) == 2 * 2
    assert got == classify_connections(scenario_model, records)


def test_impossible_row_falls_back_to_prior_alone(deterministic_model, caplog):
    """The model saw duration only at its mean, so a duration below it has
    zero probability; that row alone gets the prior."""
    model, table = deterministic_model
    normal, attack = record_from_table(table, 0), record_from_table(table, table.row_count - 1)
    values = list(normal.values)
    values[0] = -1.0  # duration
    impossible = ConnectionRecord(tuple(values))
    with caplog.at_level("WARNING", logger="hidpas.detection"):
        results = classify_connections(model, [normal, impossible, attack])
    assert [r.getMessage() for r in caplog.records] == [
        "impossible evidence for record; falling back to prior"]
    prior = model.engine.query(Evidence(), [model.class_var])[model.class_var]
    assert results[1].marginal == prior and results[1].low_confidence
    for record, result in zip((normal, attack), (results[0], results[2])):
        assert result == classify_connection(model, record)
        assert not result.low_confidence
    assert [r.label for r in results[::2]] == ["normal", "dos"]


def test_detect_stream_raises_on_a_broken_record(deterministic_model):
    model, table = deterministic_model
    values = list(record_from_table(table, 0).values)
    values[0] = "not-a-number"  # duration
    with pytest.raises(ValueError):
        detect_stream(model, [ConnectionRecord(tuple(values))], "h")


def test_record_value_by_feature_name():
    values = tuple(range(len(KDD_FEATURES)))
    record = ConnectionRecord(values)
    assert [record.value(name) for name, _ in KDD_FEATURES] == list(values)
    with pytest.raises(ValueError, match="unknown feature"):
        record.value("no_such_feature")

from __future__ import annotations

import csv
import math
import os
import random
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas import features, possibility, prediction
from hidpas.detection import DetectorConfig, classify_connections, load_stream, train_detector
from hidpas.features import DataError, load_kdd
from hidpas.oracles import enumerate_marginal
from hidpas.jtree import net_factors
from hidpas.prediction import (
    ALERT_LOG_HEADER,
    ATTRIBUTE_FIELDS,
    EMPTY_STATE,
    LOG_FIELDS,
    PRESENT,
    AlertLog,
    AlertRecord,
    HyperAlert,
    aggregate_alerts,
    build_transactions,
    classify_alert,
    load_alert_log,
    phase1_cluster_count,
    predict_attacks,
    train_alert_classifier,
    train_plan_model,
    write_hyper_csv,
)

from conftest import counting, data_path


def alert(ts, attack, sensor="s1", sip="1.1.1.1", sport="10",
          dip="2.2.2.2", dport="80") -> AlertRecord:
    return AlertRecord(ts, sensor, sip, sport, dip, dport, attack)


@pytest.fixture(scope="module")
def scenario_hypers():
    return aggregate_alerts(load_alert_log(data_path("scenario", "alert_history.csv")))


@pytest.fixture(scope="module")
def scenario_plan(scenario_hypers):
    tm = build_transactions(scenario_hypers, dt=60.0)
    return train_plan_model(tm)


# -- aggregation -----------------------------------------------------------------

def test_identical_alerts_collapse_to_one_hyper():
    hypers = aggregate_alerts([alert(1, "scan"), alert(2, "scan"), alert(3, "scan")])
    assert len(hypers) == 1
    assert hypers[0].size == 3
    assert hypers[0].name == "scan"


def test_aggregation_partitions_the_input():
    log = load_alert_log(data_path("alerts_synthetic.csv"))
    hypers = aggregate_alerts(log)
    assert sum(h.size for h in hypers) == len(log)
    rows = [r for h in hypers for r in h.members.rows.tolist()]
    assert sorted(rows) == list(range(len(log)))


def test_synthetic_log_designed_structure():
    log = load_alert_log(data_path("alerts_synthetic.csv"))
    assert len(log) == 50
    assert phase1_cluster_count(log) == 6
    hypers = aggregate_alerts(log)
    assert [(h.id, h.name, h.size) for h in hypers] == [
        (0, "scan", 20), (1, "exploit", 15), (2, "dos", 10), (3, "backdoor", 5),
    ]


def test_merged_hyper_blanks_differing_attributes():
    hypers = aggregate_alerts([alert(1, "scan", sport="10"),
                               alert(2, "scan", sport="20")])
    assert len(hypers) == 1
    attrs = dict(zip(("src_ip", "src_port", "dst_ip", "dst_port", "attack_type"),
                     hypers[0].attributes))
    assert attrs["src_port"] == ""          # differs across members
    assert attrs["src_ip"] == "1.1.1.1"     # shared


def test_alternative_merge_key():
    alerts = [alert(1, "scan", dip="9.9.9.9"), alert(2, "probe", dip="9.9.9.9")]
    by_type = aggregate_alerts(alerts, merge_key="attack_type")
    by_dst = aggregate_alerts(alerts, merge_key="dst_ip")
    assert len(by_type) == 2 and len(by_dst) == 1


def test_empty_log_aggregates_empty():
    assert aggregate_alerts([]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["s1", "s2"]),
    st.sampled_from(["1.1.1.1", "2.2.2.2"]),
    st.sampled_from(["10", "20", "30"]),
    st.sampled_from(["9.9.9.9"]),
    st.sampled_from(["80", "443"]),
    st.sampled_from(["scan", "dos", "rsh"]),
), max_size=40))
def test_aggregation_partition_property(specs):
    log = [AlertRecord(float(i), *fields) for i, fields in enumerate(specs)]
    hypers = aggregate_alerts(log)
    assert sum(h.size for h in hypers) == len(log)
    assert len({h.name for h in hypers}) == len(hypers)  # one hyper per step
    for h in hypers:
        assert h.size >= 1
        assert all(a.attack_type == h.name for a in h.members)
        for field_name, shared in zip(
                ("src_ip", "src_port", "dst_ip", "dst_port", "attack_type"),
                h.attributes):
            if shared:
                assert all(getattr(a, field_name) == shared for a in h.members)


# -- alert classification -----------------------------------------------------------

def test_classifier_labels_training_alerts(scenario_hypers):
    model = train_alert_classifier(scenario_hypers)
    for h in scenario_hypers:
        for a in h.members:
            assert classify_alert(model, a).label == h.name


def test_classify_runs_the_collect_pass_only_where_the_class_is_read_at_a_root(
        scenario_hypers, monkeypatch):
    """The fixture alert classifier's class variable is homed at a root, so
    each classification calibrates without a distribute pass and its trees
    hold no table off the roots. The fixture detector's (top 4 features) is
    homed at cluster 1, a child of root 0, so each of its classifications
    runs the one distribute message into it and holds tables at 0 and 1 only."""
    classifier = train_alert_classifier(scenario_hypers)
    detector = train_detector(load_kdd(data_path("scenario", "detector_train.csv")),
                              DetectorConfig(top_k=4))
    homed = [m.engine._prob.plan.home[m.class_var] for m in (classifier, detector)]
    assert classifier.engine._prob.plan.parent[homed[0]] == -1
    assert homed[1] == 1 and detector.engine._prob.plan.parent[1] == 0
    calibrated = []
    propagate = possibility.propagate
    monkeypatch.setattr(possibility, "propagate",
                        lambda *args: calibrated.append(propagate(*args)) or calibrated[-1])
    for h in scenario_hypers:
        classify_alert(classifier, h.members[0])
    assert len(calibrated) == 2 * len(scenario_hypers)
    assert all(t is None for jt in calibrated
               for c, t in enumerate(jt.cluster_tables) if jt.plan.parent[c] >= 0)
    assert all(jt.edges for jt in calibrated)
    calibrated.clear()
    classify_connections(detector, load_stream(data_path("scenario", "host_a.csv")))
    assert len(calibrated) == 2
    assert all([c for c, t in enumerate(jt.cluster_tables) if t is not None] == [0, 1]
               for jt in calibrated)


def test_classifier_single_hyper_degenerates():
    hypers = aggregate_alerts([alert(1, "scan"), alert(2, "scan")])
    model = train_alert_classifier(hypers)
    result = classify_alert(model, alert(9, "scan"))
    assert result.label == "scan"


def test_classifier_edge_on_discriminating_port():
    alerts = [alert(t, "scan", dport="80") for t in range(8)]
    alerts += [alert(t + 10, "scan2", dport="443") for t in range(8)]
    hypers = aggregate_alerts(alerts)
    model = train_alert_classifier(hypers)
    cls = model.class_var
    related = set(model.net.dag.parents[cls])
    for child, parents in enumerate(model.net.dag.parents):
        if cls in parents:
            related.add(child)
    names = {model.net.variable(v).name for v in related}
    assert {"dst_port", "attack_type"} & names


def test_classifier_unseen_port_flows_through(scenario_hypers):
    model = train_alert_classifier(scenario_hypers)
    odd = alert(1, "portsweep", sip="10.0.0.5", sport="9999",
                dip="192.168.1.10", dport="445")
    result = classify_alert(model, odd)
    assert result.unknown_values == ("src_port=9999",)
    assert result.label == "portsweep"


def test_classifier_deterministic_corpus_gap_zero():
    """Unsmoothed training on an attribute-determined corpus leaves no
    imprecision: the winning state's bracket collapses."""
    alerts = [alert(t, "scan", dport="80") for t in range(6)]
    alerts += [alert(t + 10, "burst", dport="443") for t in range(6)]
    hypers = aggregate_alerts(alerts)
    model = train_alert_classifier(hypers, smoothing=0.0)
    for h in hypers:
        result = classify_alert(model, h.members[0])
        assert result.label == h.name
        assert result.marginal.gap(result.state) == pytest.approx(0.0, abs=1e-12)
        assert result.triple == (1.0, 1.0, 1.0)


def test_classifier_empty_fields_stay_unobserved(scenario_hypers):
    model = train_alert_classifier(scenario_hypers)
    partial = AlertRecord(5.0, "host-c", "10.0.0.5", "", "192.168.1.10", "",
                          "teardrop")
    assert classify_alert(model, partial).label == "teardrop"


def test_classifier_impossible_evidence_falls_back_to_prior(caplog):
    alerts = [alert(t, "scan", sip="10.0.0.1") for t in range(6)]
    alerts += [alert(t + 10, "exploit", sip="10.0.0.2") for t in range(6)]
    model = train_alert_classifier(aggregate_alerts(alerts), smoothing=0.0)
    prior = model.engine.query({}, [model.class_var])[model.class_var]
    caplog.clear()
    with caplog.at_level("WARNING", logger="hidpas.prediction"):
        result = classify_alert(model, alert(99, "exploit", sip="10.0.0.1"))
    assert result.marginal == prior
    assert result.low_confidence
    warnings = [r for r in caplog.records if r.name == "hidpas.prediction"]
    assert [r.getMessage() for r in warnings] == [
        "impossible evidence for record; falling back to prior"]


def test_classify_alert_equals_classifying_its_encoded_row(scenario_hypers, caplog):
    """An alert's one-row evidence gives the decision and unknown values of
    the row `features.encode` makes; a row of zero mass warns on every call."""
    def reference(model, a):
        columns = [features.encode([v]) if (v := getattr(a, f)) else None
                   for f in ATTRIBUTE_FIELDS]
        return model.classify(*model.encode(1, columns), prediction.log)[0]

    model = train_alert_classifier(scenario_hypers)
    alerts = [m for h in scenario_hypers for m in h.members] + [
        alert(1, "portsweep", sip="10.0.0.5", sport="9999", dip="192.168.1.10", dport="445"),
        alert(2, "nonesuch", sip="", sport="", dip="", dport="x,y"),
        AlertRecord(3.0, "s", "", "", "", "", "teardrop"),
        replace(scenario_hypers[0].members[0], attack_type="teardrop")]
    for a in alerts:
        assert classify_alert(model, a) == reference(replace(model), a)
    assert classify_alert(model, alerts[-3]).unknown_values == ("dst_port=x,y",
                                                                "attack_type=nonesuch")

    split = [alert(t, "scan", sip="10.0.0.1") for t in range(6)]
    split += [alert(t + 10, "exploit", sip="10.0.0.2") for t in range(6)]
    unsmoothed = train_alert_classifier(aggregate_alerts(split), smoothing=0.0)
    caplog.clear()
    with caplog.at_level("WARNING", logger="hidpas.prediction"):
        for _ in range(3):
            assert classify_alert(unsmoothed, alert(99, "exploit", sip="10.0.0.1")) == \
                unsmoothed.prior
    assert [r.getMessage() for r in caplog.records if r.name == "hidpas.prediction"] == [
        "impossible evidence for record; falling back to prior"] * 3


# -- transactions ----------------------------------------------------------------------

def test_transaction_matrix_documented_shape():
    # three hyper-alerts over ten slots; slot 1 holds A and C but not B
    alerts_a = [alert(t, "A") for t in (5, 65, 125, 185, 245, 305, 365, 425, 485, 545)]
    alerts_b = [alert(150, "B")]
    alerts_c = [alert(70, "C")]
    hypers = aggregate_alerts(alerts_a + alerts_b + alerts_c)
    tm = build_transactions(hypers, dt=60.0)
    assert tm.slot_count == 10
    assert tm.names == ("A", "B", "C")
    np.testing.assert_array_equal(tm.occurrence[1], [1, 0, 1])
    assert tm.occurrence[:, 0].tolist() == [1] * 10


def test_transaction_slot_count_from_span():
    hypers = aggregate_alerts([alert(0, "A")])
    tm = build_transactions(hypers, dt=2.0, span=10.0)
    assert tm.slot_count == 5


def test_transaction_boundary_inclusion():
    hypers = aggregate_alerts([alert(100.0, "A")])
    tm = build_transactions(hypers, dt=60.0, start=100.0)
    assert tm.occurrence[0, 0] == 1
    assert tm.slot_count == 1


def test_transaction_alerts_outside_window_counted():
    hypers = aggregate_alerts([alert(5, "A"), alert(500, "A")])
    tm = build_transactions(hypers, dt=10.0, start=0.0, span=20.0)
    assert tm.ignored == 1
    assert tm.slot_count == 2


def test_transaction_within_slot_permutation_invariant():
    a = aggregate_alerts([alert(3, "A"), alert(7, "B")])
    b = aggregate_alerts([alert(7, "A"), alert(3, "B")])
    ta = build_transactions(a, dt=10.0, start=0.0, span=10.0)
    tb = build_transactions(b, dt=10.0, start=0.0, span=10.0)
    np.testing.assert_array_equal(ta.occurrence, tb.occurrence)


def test_transaction_rejects_bad_slot():
    hypers = aggregate_alerts([alert(1, "A")])
    with pytest.raises(ValueError):
        build_transactions(hypers, dt=0.0)
    with pytest.raises(ValueError):
        build_transactions(hypers, dt=10.0, span=5.0)


# -- plan model -------------------------------------------------------------------------

def test_plan_model_learns_cooccurrence_edge(scenario_plan):
    p = scenario_plan.hyper_names.index("portsweep")
    t = scenario_plan.hyper_names.index("teardrop")
    assert scenario_plan.net.dag.parents[t] == (p,)


def test_plan_model_all_zero_column_is_isolated():
    alerts = [alert(5, "A"), alert(65, "A"), alert(500, "B")]
    hypers = aggregate_alerts(alerts)
    tm = build_transactions(hypers, dt=60.0, start=0.0, span=120.0)
    assert tm.occurrence[:, 1].tolist() == [0, 0]
    plan = train_plan_model(tm)
    b = plan.hyper_names.index("B")
    assert plan.net.dag.parents[b] == ()


def test_plan_model_single_slot_no_edges():
    hypers = aggregate_alerts([alert(1, "A"), alert(2, "B")])
    tm = build_transactions(hypers, dt=60.0)
    assert tm.slot_count == 1
    plan = train_plan_model(tm)
    assert all(p == () for p in plan.net.dag.parents)


def test_plan_hyper_names_are_its_net_variable_names(scenario_plan):
    """A plan's hyper-alerts are named by its net's variables, so the two
    cannot disagree: the same plan over another net reads that net's names."""
    assert scenario_plan.hyper_names == tuple(v.name for v in scenario_plan.net.dag.variables)
    other = train_plan_model(build_transactions(
        aggregate_alerts([alert(1, "A"), alert(2, "B")]), dt=60.0))
    assert replace(scenario_plan, net=other.net).hyper_names == ("A", "B")


def test_plan_model_order_follows_earliest_occurrence(scenario_plan):
    # portsweep precedes teardrop, so teardrop may not be portsweep's parent
    p = scenario_plan.hyper_names.index("portsweep")
    assert scenario_plan.net.dag.parents[p] == ()


# -- prediction --------------------------------------------------------------------------

def test_predict_empty_evidence_reports_priors(scenario_plan):
    report = predict_attacks(scenario_plan, [])
    assert report.observed == ()
    assert len(report.rows) == 2


def test_predict_observed_step_raises_successor(scenario_plan):
    prior = predict_attacks(scenario_plan, [])
    prior_p = next(r.probability for r in prior.rows if r.hyper_name == "teardrop")
    report = predict_attacks(scenario_plan, ["portsweep"])
    cond_p = next(r.probability for r in report.rows if r.hyper_name == "teardrop")
    assert cond_p > prior_p
    # cross-check against exhaustive enumeration
    arities = [v.arity for v in scenario_plan.net.dag.variables]
    pid = scenario_plan.hyper_names.index("portsweep")
    tid = scenario_plan.hyper_names.index("teardrop")
    expected = enumerate_marginal(net_factors(scenario_plan.net), arities,
                                  {pid: 1}, tid, "sum-product")
    assert cond_p == pytest.approx(expected[1], abs=1e-12)


def test_predict_all_observed_yields_empty_report(scenario_plan):
    report = predict_attacks(scenario_plan, ["portsweep", "teardrop"])
    assert report.rows == ()
    assert report.predicted == ()


def test_predict_threshold_zero_selects_everything(scenario_plan):
    report = predict_attacks(scenario_plan, [], selection="threshold", theta=0.0)
    informative = [r for r in report.rows if r.informative]
    assert all(r.selected for r in informative)
    none = predict_attacks(scenario_plan, [], selection="threshold", theta=1.0 + 1e-9)
    assert all(not r.selected for r in none.rows)


def test_predict_accepts_numeric_ids(scenario_plan):
    by_name = predict_attacks(scenario_plan, ["portsweep"])
    by_id = predict_attacks(scenario_plan, [scenario_plan.hyper_names.index("portsweep")])
    assert by_name == by_id


def test_predict_unknown_hyper_rejected(scenario_plan):
    with pytest.raises(ValueError):
        predict_attacks(scenario_plan, ["nonesuch"])


def test_predict_contradictory_evidence_unsmoothed_model():
    """Steps that never co-occurred have zero joint mass without smoothing."""
    from hidpas.possibility import ImpossibleEvidenceError

    alerts = []
    for slot, which in ((0, "A"), (1, "B"), (2, "A"), (3, "B"),
                        (4, "A"), (5, "B"), (0, "C"), (2, "C")):
        alerts.append(alert(slot * 60 + 1, which))
    hypers = aggregate_alerts(alerts)
    plan = train_plan_model(build_transactions(hypers, dt=60.0), smoothing=0.0)
    for observed in (["A", "B"], ["A", "B", "C"]):  # a set that leaves nothing to forecast too
        with pytest.raises(ImpossibleEvidenceError):
            predict_attacks(plan, observed)
    # the default smoothed fit keeps every evidence combination possible
    smoothed = train_plan_model(build_transactions(hypers, dt=60.0))
    report = predict_attacks(smoothed, ["A", "B"])
    assert len(report.rows) == 1
    assert predict_attacks(smoothed, ["A", "B", "C"]).rows == ()


def test_a_repeated_forecast_is_calibrated_once(scenario_plan, monkeypatch):
    """The plan model's memo answers an observed set it has forecast; a copy
    with another threshold starts with an empty memo."""
    plan = replace(scenario_plan)
    calls = counting(monkeypatch, possibility, "propagate")
    first = predict_attacks(plan, ["portsweep"])
    assert [jt.semiring for jt in calls] == ["sum-product", "max-min"]
    assert predict_attacks(plan, ["portsweep"]) == first
    assert len(calls) == 2 and len(plan.forecasts) == 1
    tuned = replace(plan, tau=0.1)
    assert not tuned.forecasts
    predict_attacks(tuned, ["portsweep"])
    assert len(calls) == 4


@pytest.fixture(scope="module")
def synthetic_plan():
    """The synthetic log's four-step plan, at a gap threshold that leaves
    every forecast row of an observed step informative."""
    hypers = aggregate_alerts(load_alert_log(data_path("alerts_synthetic.csv")))
    return train_plan_model(build_transactions(hypers, dt=60.0), tau=0.9)


def test_a_remembered_forecast_is_the_same_report(synthetic_plan):
    plan = replace(synthetic_plan)
    first = predict_attacks(plan, ["scan"])
    assert predict_attacks(plan, ["scan"]) is first
    assert predict_attacks(plan, [0, "scan"]) is first
    assert first.payload_json is first.payload_json
    assert first.predicted is first.predicted


def test_another_selection_of_a_remembered_set_is_not_recalibrated(synthetic_plan,
                                                                     monkeypatch):
    """Each selection and theta asked of a remembered set gets the report
    a fresh model gives, from the rows the memo holds."""
    plan = replace(synthetic_plan)
    predict_attacks(plan, ["scan"])
    weight = plan.forecasts.weight
    calls = counting(monkeypatch, possibility, "propagate")
    asked = [("threshold", 0.25), ("max", 0.5), ("threshold", 0.1), ("threshold", 0.25),
             ("max", 0.1), ("threshold", 0.5)]
    reports = [predict_attacks(plan, ["scan"], selection, theta) for selection, theta in asked]
    assert not calls and plan.forecasts.weight == weight
    assert len({tuple(r.selected for r in report.rows) for report in reports}) > 2
    for (selection, theta), report in zip(asked, reports):
        fresh = predict_attacks(replace(synthetic_plan), ["scan"], selection, theta)
        assert report == fresh and report.payload_json == fresh.payload_json
    assert predict_attacks(plan, ["scan"], "threshold", 0.5) is reports[-1]


def test_an_impossible_set_raises_on_every_forecast():
    alerts = [alert(slot * 60 + 1, which) for slot, which in ((0, "A"), (1, "B"), (2, "A"))]
    plan = train_plan_model(build_transactions(aggregate_alerts(alerts), dt=60.0),
                            smoothing=0.0)
    for selection in ("max", "max", "threshold"):
        with pytest.raises(possibility.ImpossibleEvidenceError):
            predict_attacks(plan, ["A", "B"], selection)
    assert len(plan.forecasts) == 1


def test_forecasts_are_evicted_by_target_weight(synthetic_plan, monkeypatch):
    """An entry weighs one per target, however many reports it holds."""
    plan = replace(synthetic_plan)
    monkeypatch.setattr(possibility, "MEMO_MARGINALS", 6)
    calls = counting(monkeypatch, possibility, "propagate")

    def calibrations(observed, selection="max"):
        before = len(calls)
        predict_attacks(plan, observed, selection)
        return len(calls) - before

    assert calibrations(["scan"]) == 2  # three targets
    assert calibrations(["exploit"]) == 2
    assert calibrations(["scan"], "threshold") == 0 and plan.forecasts.weight == 6
    assert calibrations(["dos", "backdoor"]) == 2  # two targets: scan, the oldest, goes
    assert plan.forecasts.weight == 5
    assert calibrations(["exploit"]) == 0
    assert calibrations(["scan"]) == 2  # and exploit goes
    assert calibrations(["dos", "backdoor"]) == 0
    assert calibrations(["exploit"]) == 2


def test_predict_report_table_format(scenario_plan):
    report = predict_attacks(scenario_plan, ["portsweep"])
    table = report.format_table()
    assert table.splitlines()[0].split() == [
        "hyper_alert", "N", "P", "Π", "informative", "selected"]
    assert "teardrop" in table


def test_evidence_relevance_on_dependent_pair(scenario_plan):
    """Observing a parent moves the child's probability when CPT rows differ."""
    t = scenario_plan.hyper_names.index("teardrop")
    rows = scenario_plan.net.cpts[t]
    assert not np.allclose(rows[0], rows[1])
    prior = predict_attacks(scenario_plan, [])
    cond = predict_attacks(scenario_plan, ["portsweep"])
    p0 = next(r.probability for r in prior.rows if r.hyper_name == "teardrop")
    p1 = next(r.probability for r in cond.rows if r.hyper_name == "teardrop")
    assert p0 != p1


# -- plan edges ------------------------------------------------------------------------------

def plan_edges(plan) -> list[tuple[str, str]]:
    """Each (parent, child) edge of the learned plan, by hyper-alert name."""
    return [(plan.hyper_names[parent], plan.hyper_names[child])
            for child, parents in enumerate(plan.net.dag.parents) for parent in parents]


def present_given_present(plan, parent: str, child: str) -> tuple[float, float, float]:
    """N, P, Π of child present, given parent present."""
    pid, cid = plan.var_of(parent), plan.var_of(child)
    return plan.engine.query({pid: PRESENT}, [cid])[cid].triple(PRESENT)


def test_plan_edge_strength_matches_enumeration(scenario_plan):
    assert plan_edges(scenario_plan) == [("portsweep", "teardrop")]
    triple = present_given_present(scenario_plan, "portsweep", "teardrop")
    arities = [v.arity for v in scenario_plan.net.dag.variables]
    pid = scenario_plan.hyper_names.index("portsweep")
    tid = scenario_plan.hyper_names.index("teardrop")
    expected = enumerate_marginal(net_factors(scenario_plan.net), arities,
                                  {pid: 1}, tid, "sum-product")
    assert triple[1] == pytest.approx(expected[1], abs=1e-12)


def test_plan_edge_deterministic_cooccurrence_strength():
    # B occurs exactly when A occurs, with zero smoothing the link is certain
    alerts = []
    for slot in (0, 2, 4):
        alerts.append(alert(slot * 60 + 1, "A"))
        alerts.append(alert(slot * 60 + 2, "B"))
    hypers = aggregate_alerts(alerts)
    tm = build_transactions(hypers, dt=60.0, start=0.0, span=300.0)
    plan = train_plan_model(tm, smoothing=0.0)
    assert ("A", "B") in plan_edges(plan)
    assert present_given_present(plan, "A", "B")[1] == pytest.approx(1.0)


def test_plan_isolated_node_has_no_edge():
    alerts = [alert(5, "A"), alert(65, "A"), alert(500, "B")]
    hypers = aggregate_alerts(alerts)
    tm = build_transactions(hypers, dt=60.0, start=0.0, span=120.0)
    plan = train_plan_model(tm)
    assert plan_edges(plan) == []


# -- alert log loader ------------------------------------------------------------------------

def test_load_alert_log_requires_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("1,ids1,a,b,c,d,scan\n")
    with pytest.raises(DataError, match="header"):
        load_alert_log(str(path))


@pytest.mark.parametrize("row, message", [
    ("nan,ids1,a,b,c,d,scan", "bad timestamp 'nan'"),
    ("-inf,ids1,a,b,c,d,scan", "bad timestamp '-inf'"),
    ("1,,a,b,c,d,scan", "sensor and attack_type are required"),
    ("1,ids1,a,b,c,d, ", "sensor and attack_type are required"),
])
def test_load_alert_log_names_the_line_of_a_bad_alert(tmp_path, row, message):
    path = tmp_path / "alerts.csv"
    path.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                    "1,ids1,a,b,c,d,scan\n" + row + "\n")
    with pytest.raises(DataError, match=f"alerts.csv:3: {message}"):
        load_alert_log(str(path))


def test_load_alert_log_names_physical_line_after_quoted_newline(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                    '"1\n",ids1,a,b,c,d,scan\n'  # this record holds lines 2-3
                    "2,ids1,a,b,c,d,scan\n"
                    "abc,ids1,a,b,c,d,scan\n")
    with pytest.raises(DataError, match=r"a\.csv:5: bad timestamp 'abc'"):
        load_alert_log(str(path))


def test_load_alert_log_header_is_the_first_non_blank_record(tmp_path):
    path = tmp_path / "alerts.csv"
    path.write_text("\n \t\n"
                    "timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                    "1,ids1,a,b,c,d,scan\n")
    assert list(load_alert_log(str(path))) == [
        AlertRecord(1.0, "ids1", "a", "b", "c", "d", "scan")]


def test_load_alert_log_field_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                    "1,ids1,a,b\n")
    with pytest.raises(DataError, match="short.csv:2"):
        load_alert_log(str(path))


@pytest.mark.parametrize("row, bad", [
    ("1,ids1,a,b,c,d,port scan", "port scan"),
    ('1,ids1,a,b,c,d,"a,b"', "a,b"),
    ("1,ids1,10.0.0.1,b,c,d,scan\tx", "scan\tx"),
    ('1,ids 1,a,b,c,d,scan', "ids 1"),
    ('1,ids1,a,"80\n81",c,d,scan', "80\n81"),
    ("1,ids1,a,b,c,d,scan\u00a0x", "scan\xa0x"),
], ids=["space", "quoted-comma", "tab", "sensor", "quoted-newline", "no-break-space"])
def test_load_alert_log_rejects_a_field_that_is_no_token(tmp_path, row, bad):
    # model files hold names and state labels as tokens; a field they could
    # not hold fails where it is read, not when the model is saved
    path = tmp_path / "alerts.csv"
    path.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                    "1,ids1,a,b,c,d,scan\n" + row + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_alert_log(str(path))
    assert str(err.value).startswith(f"{path}:3: field {bad!r} holds whitespace or a comma")


def test_load_alert_log_strips_fields_and_keeps_empty_ports(tmp_path):
    path = tmp_path / "alerts.csv"
    path.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                    " 1 , ids1 ,a,, c ,,scan \n")
    [record] = load_alert_log(str(path))
    assert record == AlertRecord(1.0, "ids1", "a", "", "c", "", "scan")


def test_hyper_csv_quotes_a_name_holding_a_comma(tmp_path):
    hypers = aggregate_alerts([alert(1, "a,b"), alert(2, 'say "x"'), alert(3, "scan")])
    path = tmp_path / "hypers.csv"
    write_hyper_csv(hypers, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["id", "name", "size", "earliest"], ["0", "a,b", "1", "1"],
                    ["1", 'say "x"', "1", "2"], ["2", "scan", "1", "3"]]
    assert path.read_text().splitlines()[1:] == ['0,"a,b",1,1', '1,"say ""x""",1,2', "2,scan,1,3"]


# The cells of generated alert logs: an address or port may be empty; a
# sensor or attack type may not. Each is padded and quoted at random below.
LOG_CELLS = {"sensor": ["ids1", "ids-2", "\u00fc"], "src_ip": ["", "10.0.0.5", "10.0.0.6"],
             "src_port": ["", "2001", "80"], "dst_ip": ["", "192.168.1.10", 'q"t'],
             "dst_port": ["", "445", "0"], "attack_type": ["scan", "dos", "a\"b", "__empty__"]}
# "1_0" is float's spelling of 10, which loadtxt rejects: its block goes to the row loop
LOG_STAMPS = ["0", "1.5", "-3", "1e3", "+.5", "007", "-0", "60", "59.999", "1_0"]


@st.composite
def alert_log_files(draw) -> str:
    """A well-formed alert log: padded and quoted cells, empty ports, blank
    lines before the header (and at random, lines of spaces after it),
    duplicate rows, LF or CRLF line ends."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    quote_rate = draw(st.sampled_from([0.0, 0.2, 0.6]))
    pad_rate = draw(st.sampled_from([0.0, 0.3]))

    def cell(value: str) -> str:
        if rng.random() < pad_rate:
            value = rng.choice([" ", "\t"]) + value + rng.choice(["", " "])
        if rng.random() < quote_rate or '"' in value:
            value = '"' + value.replace('"', '""') + '"'
        return value

    rows = [",".join([cell(rng.choice(LOG_STAMPS))]
                     + [cell(rng.choice(LOG_CELLS[f])) for f in LOG_FIELDS])
            for _ in range(draw(st.integers(1, 30)))]
    for _ in range(draw(st.integers(0, 5))):  # duplicate rows
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
    if draw(st.booleans()):
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(["", " \t"]))
    header = ",".join(cell(h) for h in ALERT_LOG_HEADER.split(","))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    before = draw(st.sampled_from(["", newline, " " + newline + newline]))
    return before + newline.join([header] + rows) + draw(st.sampled_from(["", newline]))


@settings(max_examples=200, deadline=None)
@given(alert_log_files(), st.sampled_from(ATTRIBUTE_FIELDS),
       st.sampled_from([1, 2, 3, features.BLOCK_RECORDS]))
def test_alert_log_equals_the_row_loop_and_aggregates_as_the_reference(text, merge_key, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alerts.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(features, "BLOCK_RECORDS", block):
            log = load_alert_log(path)
        with mock.patch.object(features, "read_matrix", return_value=None):
            records = list(load_alert_log(path))  # read by the row loop
    assert list(log) == records
    for i, name in enumerate(LOG_FIELDS, start=1):  # no level but a kept alert's
        assert log.table.columns[i][0] == sorted({getattr(a, name) for a in records})
    assert list(map(repr, log.timestamps.tolist())) == [repr(a.timestamp) for a in records]
    got = aggregate_alerts(log, merge_key)
    # earliest as the hyper CSV writes it: -0 and 0 compare equal but print apart
    assert [(h.id, h.name, h.attributes, h.members.rows.tolist(), f"{h.earliest:.12g}")
            for h in got] == \
        [(*hyper, f"{min(records[row].timestamp for row in hyper[-1]):.12g}")
         for hyper in reference_aggregate(records, merge_key)]
    assert phase1_cluster_count(log) == len(
        {(a.sensor,) + tuple(getattr(a, f) for f in ATTRIBUTE_FIELDS) for a in records})


def test_load_alert_log_reads_a_well_formed_log_in_bulk(tmp_path, monkeypatch):
    """Logs whose bodies hold no line of spaces never reach the row loop."""
    texts = [Path(data_path("scenario", "alert_history.csv")).read_text(encoding="utf-8"),
             Path(data_path("alerts_synthetic.csv")).read_text(encoding="utf-8"),
             ' \n\n"timestamp" ,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\r\n'
             '" 1 ",ids1, a ,,"c",,scan \r\n\r\n2,"ids1",a,"",c,445,"a""b"\r\n']
    expected = []
    with mock.patch.object(features, "read_matrix", return_value=None):
        for i, text in enumerate(texts):
            (tmp_path / f"{i}.csv").write_text(text, encoding="utf-8", newline="")
            expected.append(list(load_alert_log(str(tmp_path / f"{i}.csv"))))

    def no_row_path(*args):
        raise AssertionError("a well-formed log went to the block and row path")

    monkeypatch.setattr(features, "csv_records", no_row_path)  # read_table's records
    for i, records in enumerate(expected):
        assert list(load_alert_log(str(tmp_path / f"{i}.csv"))) == records
    assert expected[2] == [AlertRecord(1.0, "ids1", "a", "", "c", "", "scan"),
                           AlertRecord(2.0, "ids1", "a", "", "c", "445", 'a"b')]


def _alert_lines(count: int) -> list[str]:
    return [f"{t},ids{t % 2},10.0.0.{t % 5},{2000 + t % 3},192.168.1.10,445,scan{t % 4}"
            for t in range(count)]


def _write_log(path: Path, lines: list[str]) -> str:
    path.write_text("\n".join([ALERT_LOG_HEADER] + lines) + "\n", encoding="utf-8")
    return str(path)


def test_one_line_the_bulk_read_rejects_sends_one_block_through_the_grammar(tmp_path,
                                                                             monkeypatch):
    monkeypatch.setattr(features, "BLOCK_RECORDS", 4)
    lines = _alert_lines(40)
    lines[21] = "2_1" + lines[21][2:]  # in the sixth block: alerts 21-24
    path = _write_log(tmp_path / "alerts.csv", lines)
    calls = counting(monkeypatch, prediction, "_alert_row")
    log = load_alert_log(path)
    assert [rec[0] for rec in calls] == ["20", "2_1", "22", "23"]
    assert log.timestamps.tolist() == list(range(40))
    with mock.patch.object(features, "read_matrix", return_value=None):
        assert list(log) == list(load_alert_log(path))
    with pytest.raises(DataError, match=r"alerts\.csv:30: bad timestamp 'x28'"):
        load_alert_log(_write_log(tmp_path / "alerts.csv", lines[:28] + ["x" + lines[28]]))


@pytest.mark.parametrize("block", [1, 2, 3])
def test_an_alert_spanning_a_block_end_reads_whole(tmp_path, monkeypatch, block):
    monkeypatch.setattr(features, "BLOCK_RECORDS", block)
    lines = _alert_lines(5)
    lines[1] = '"1\n",ids1,10.0.0.1,2001,192.168.1.10,445,scan1'  # alert 2 holds lines 3-4
    lines[4] = "4_0" + lines[4][1:]  # alert 5, read by the grammar
    path = _write_log(tmp_path / "alerts.csv", lines)
    calls = counting(monkeypatch, prediction, "_alert_row")
    log = load_alert_log(path)
    assert log.timestamps.tolist() == [0, 1, 2, 3, 40]
    assert calls and all(rec[0] != "1\n" for rec in calls)  # it was read in bulk
    with mock.patch.object(features, "read_matrix", return_value=None):
        assert list(log) == list(load_alert_log(path))


# -- bulk walks against per-member references ------------------------------------------

def reference_aggregate(log_records, merge_key="attack_type") -> list[tuple]:
    """Two-phase aggregation over every member, one attribute at a time:
    each hyper-alert's (id, name, attributes, member rows)."""
    phase1: dict[tuple, list] = {}
    for row, a in enumerate(log_records):
        key = (a.sensor,) + tuple(getattr(a, f) for f in ATTRIBUTE_FIELDS)
        phase1.setdefault(key, []).append(row)
    merged: dict[str, list] = {}
    for rows in phase1.values():
        first = log_records[rows[0]]
        merged.setdefault(getattr(first, merge_key) or EMPTY_STATE, []).append(rows)
    out = []
    for hid, (step, clusters) in enumerate(merged.items()):
        rows = [row for cluster in clusters for row in cluster]
        shared = []
        for f in ATTRIBUTE_FIELDS:
            values = {getattr(log_records[row], f) for row in rows}
            shared.append(values.pop() if len(values) == 1 else "")
        out.append((hid, step, tuple(shared), rows))
    return out


def reference_transactions(hypers, dt, start=None, span=None):
    """(occurrence, earliest, start, ignored) member by member."""
    stamps = [a.timestamp for h in hypers for a in h.members]
    if start is None:
        start = min(stamps)
    if span is not None:
        m = math.ceil(span / dt)
        limit = start + span
    else:
        latest = max(stamps)
        m = max(1, math.floor((latest - start) / dt) + 1) if latest >= start else 1
        limit = start + m * dt
    occ = np.zeros((m, len(hypers)), dtype=np.int8)
    ignored = 0
    for col, h in enumerate(hypers):
        for a in h.members:
            if not start <= a.timestamp < limit:
                ignored += 1
                continue
            slot = int((a.timestamp - start) // dt)
            if slot >= m:
                ignored += 1
                continue
            occ[slot, col] = 1
    return occ, tuple(min(a.timestamp for a in h.members) for h in hypers), start, ignored


VALUES = {"sensor": ["s1", "s2"], "src_ip": ["", "1.1.1.1", "1.1.1.2"],
          "src_port": ["", "10", "11"], "dst_ip": ["", "2.2.2.2"],
          "dst_port": ["", "80", "443"], "attack_type": ["scan", "probe", "exploit"]}

alert_records = st.lists(
    st.tuples(st.integers(-50, 400).map(lambda t: t / 4),
              *(st.sampled_from(VALUES[f]) for f in ("sensor",) + ATTRIBUTE_FIELDS)),
    max_size=40).map(lambda rows: [AlertRecord(*row) for row in rows])


@settings(max_examples=150, deadline=None)
@given(alert_records, st.sampled_from(ATTRIBUTE_FIELDS))
def test_aggregate_equals_per_member_reference(records, merge_key):
    got = aggregate_alerts(records, merge_key)
    # the same log rows, in the same order
    assert [(h.id, h.name, h.attributes, h.members.rows.tolist()) for h in got] == \
        reference_aggregate(records, merge_key)
    assert [list(h.members) for h in got] == \
        [[records[row] for row in rows] for *_, rows in reference_aggregate(records, merge_key)]
    assert phase1_cluster_count(records) == len(
        {(a.sensor,) + tuple(getattr(a, f) for f in ATTRIBUTE_FIELDS) for a in records})


def test_aggregate_renumbers_a_phase1_key_that_would_overflow():
    # 2**11 cells in each of six columns: a mixed-radix key of all six codes
    # would set (0, 0, 0, 0, 0, 0) and (2**9, 0, 0, 0, 0, 0) 2**64 apart,
    # so an int64 key that wrapped would merge their alerts into one cluster
    cells = [f"{j:04d}" for j in range(2 ** 11)]
    records = [AlertRecord(float(j), *[cell] * 6) for j, cell in enumerate(cells)]
    records.append(AlertRecord(-1.0, cells[2 ** 9], *[cells[0]] * 5))
    got = aggregate_alerts(records)
    assert [(h.id, h.name, h.attributes, h.members.rows.tolist()) for h in got] == \
        reference_aggregate(records)
    assert phase1_cluster_count(records) == len(records)


def test_alert_log_views_index_their_rows():
    log = load_alert_log(data_path("alerts_synthetic.csv"))
    records = list(log)
    view = log[[7, 3, 9]]
    assert view.rows.tolist() == [7, 3, 9] and len(view) == 3
    assert view[1] == records[3] and view[-1] == records[9]
    assert list(view[1:]) == [records[3], records[9]]
    assert view.timestamps.tolist() == [records[i].timestamp for i in (7, 3, 9)]
    assert AlertLog.of_records(view) is view and list(AlertLog.of_records(records)) == records


@settings(max_examples=200, deadline=None)
@given(alert_records.filter(bool), st.sampled_from([0.25, 0.1, 1.0, 7.0, 60.0]),
       st.one_of(st.none(), st.integers(-20, 200).map(lambda t: t / 4)),
       st.one_of(st.none(), st.integers(1, 60).map(lambda k: k * 0.75)))
def test_transactions_equal_per_member_reference(records, dt, start, span):
    hypers = aggregate_alerts(records)
    if span is not None and span < dt:
        with pytest.raises(ValueError, match="span"):
            build_transactions(hypers, dt, start, span)
        return
    tm = build_transactions(hypers, dt, start, span)
    occ, earliest, start_used, ignored = reference_transactions(hypers, dt, start, span)
    assert tm.occurrence.tolist() == occ.tolist()
    assert tm.earliest == earliest and tm.start == start_used and tm.ignored == ignored
    assert tm.names == tuple(h.name for h in hypers) and tm.dt == dt


def test_transactions_slot_edges_equal_the_reference():
    # stamps on, and one ulp either side of, slot borders that are not exact
    # in binary: the slot is float floor division, as Python computes it
    dt, start = 0.1, 0.3
    stamps = []
    for k in range(0, 40):
        border = start + k * dt
        stamps += [np.nextafter(border, -math.inf), border, np.nextafter(border, math.inf)]
    records = [AlertRecord(float(t), "s1", "", "", "", "", f"t{i % 7}")
               for i, t in enumerate(stamps)]
    hypers = aggregate_alerts(records)
    for window in ((None, None), (start, None), (start, 2.0), (0.55, 1.05), (0.0, 4.0)):
        tm = build_transactions(hypers, dt, *window)
        occ, earliest, _, ignored = reference_transactions(hypers, dt, *window)
        assert tm.occurrence.tolist() == occ.tolist(), window
        assert tm.earliest == earliest and tm.ignored == ignored, window


def test_hyper_alerts_of_two_aggregations_are_refused():
    records = [AlertRecord(1.0, "s1", "", "", "", "", "scan")]
    mixed = aggregate_alerts(records) + aggregate_alerts(records)
    for learn in (lambda: build_transactions(mixed, dt=1.0),
                  lambda: train_alert_classifier(mixed)):
        with pytest.raises(ValueError, match="one aggregation"):
            learn()


def test_transactions_reject_a_hyper_alert_without_members():
    with pytest.raises(ValueError, match="member"):
        build_transactions([HyperAlert(0, "scan", ("",) * 5, ())], dt=1.0)

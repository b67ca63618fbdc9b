"""The benchmark's layer probes (bench/spans.py) find every name they wrap.

The benchmark spans each layer by replacing public functions in the modules
where their callers look them up. A renamed or removed function fails here,
in the test suite, rather than only when the benchmark runs.
"""

from __future__ import annotations

import importlib.util
import os

from hidpas import agents, detection, learning, possibility, prediction

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_probes_install_and_uninstall():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install_layer_probes(tracer)
        patched = {(owner, attr): original for owner, attr, original in tracer._patches}
        assert (detection, "classify_connection") in patched
        assert (possibility.HybridPropagator, "query") in patched
        assert {owner for owner, _ in patched} == {
            agents, detection, learning, possibility, prediction, possibility.HybridPropagator}
        for (owner, attr), original in patched.items():
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for (owner, attr), original in patched.items():
        assert vars(owner)[attr] is original


def test_count_statistics_probe_counts_cpt_fits_only():
    """With the probes installed, each net's fit_cpts records one
    learning.count_statistics call per variable and K2 records none, so the
    benchmark's learning.count_statistics_calls counts CPT fits only."""
    from hidpas.features import load_kdd

    from conftest import data_path

    table = load_kdd(data_path("scenario", "detector_train.csv"))
    hypers = prediction.aggregate_alerts(
        prediction.load_alert_log(data_path("scenario", "alert_history.csv")))
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install_layer_probes(tracer)
        nets = [detection.train_detector(table, detection.DetectorConfig(top_k=4)).net,
                prediction.train_plan_model(prediction.build_transactions(hypers, dt=60.0)).net,
                prediction.train_alert_classifier(hypers).net]
    finally:
        tracer.uninstall()
    names = [tracer.names[nid] for nid, *_ in tracer.spans]
    callers = [names[parent] for name, (*_, parent) in zip(names, tracer.spans)
               if name == "learning.count_statistics"]
    assert names.count("learning.k2_search") == names.count("learning.fit_cpts") == 3
    assert callers == ["learning.fit_cpts"] * sum(len(net.dag.variables) for net in nets)

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

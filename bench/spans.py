"""In-memory span tracer and log-based failure counter for the benchmark.

Spans are recorded from outside the program: the tracer replaces a public
function in the module where its caller looks it up, and the benchmark's own
calls into each layer go through `Tracer.call`. Untraced runs use
`NULL_TRACER`, which patches nothing and calls straight through.
"""

from __future__ import annotations

import functools
import logging
import time
from collections import Counter

# N <= P <= Pi breaches up to this size are rounding, as in the test suite.
SANDWICH_TOL = 1e-12


class NullTracer:
    """Calls straight through; used for every timed (untraced) run."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus named counts."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        span = [nid, 0, 0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace owner.attr with a spanning wrapper until `uninstall`.

        name is a span name or a function of the call's arguments giving
        one; on_result(result, *args) may record counts.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            result = self.call(span_name, original, *args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (nid, start, end, _), children in zip(self.spans, child_ns):
            row = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - children) / 1e9
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) / 1e9

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def install_layer_probes(tracer: Tracer) -> None:
    """Span the public functions each layer's callers look up."""
    from hidpas import agents, detection, learning, possibility, prediction

    def on_query(result, engine, evidence, targets):
        tracer.count("possibility.targets", len(targets))
        tracer.count("possibility.sandwich_breaches",
                     sum(1 for m in result.values() if m.sandwich_violation() > SANDWICH_TOL))

    def on_classify(result, model, record):
        tracer.count("detection.low_confidence", int(result.low_confidence))

    def calibrate_name(jt, *args, **kwargs):
        return "jtree.calibrate_" + jt.semiring.replace("-", "_")

    tracer.wrap(detection, "gini_rank", "features.gini_rank")
    tracer.wrap(detection, "build_rules", "features.build_rules")
    tracer.wrap(detection, "to_discrete_dataset", "features.to_discrete_dataset")
    tracer.wrap(detection, "k2_search", "learning.k2_search")
    tracer.wrap(detection, "fit_cpts", "learning.fit_cpts")
    tracer.wrap(detection, "classify_connection", "detection.classify_connection", on_classify)
    tracer.wrap(prediction, "k2_search", "learning.k2_search")
    tracer.wrap(prediction, "fit_cpts", "learning.fit_cpts")
    tracer.wrap(learning, "count_statistics", "learning.count_statistics")
    tracer.wrap(possibility, "build_tree_for_net", "jtree.build_tree_for_net")
    tracer.wrap(possibility, "transformed_factors", "possibility.transformed_factors")
    tracer.wrap(possibility, "propagate", calibrate_name)
    tracer.wrap(possibility, "query_marginal", "jtree.marginal")
    tracer.wrap(possibility.HybridPropagator, "query", "possibility.query", on_query)
    tracer.wrap(agents, "classify_alert", "prediction.classify_alert")
    tracer.wrap(agents, "predict_attacks", "prediction.predict_attacks")


# Warning and error messages the program logs when an operation fails or
# degrades, keyed by (logger, message fragment).
LOG_EVENTS = {
    ("hidpas.detection", "failed to classify"): "detection.skipped",
    ("hidpas.detection", "falling back to prior"): "detection.prior_fallbacks",
    ("hidpas.prediction", "falling back to prior"): "prediction.prior_fallbacks",
    ("hidpas.agents", "prediction skipped"): "agents.predictions_skipped",
    ("hidpas.features", "skipped row"): "features.rows_skipped",
}


class LogCounter(logging.Handler):
    """Counts the program's failure and fallback log records by kind."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        for (logger, fragment), kind in LOG_EVENTS.items():
            if record.name == logger and fragment in message:
                self.counts[kind] += 1

    def install(self) -> None:
        root = logging.getLogger("hidpas")
        root.setLevel(logging.WARNING)
        root.addHandler(self)
        root.propagate = False

"""One benchmark step in a fresh process: set up, repeat the timed pass, check.

Steps mirror the command-line paths:

* train     - learn-detector: load_kdd, apply_label_granularity,
              train_detector, save_detector
* detect    - detect: load_detector and build its engine (set-up), then
              load_stream, detect_stream in fixed-size batches,
              write_alerts_csv
* learn     - learn-plan: load_alert_log, aggregate_alerts,
              build_transactions, train_plan_model, train_alert_classifier,
              save_plan, save_classifier
* forecast  - load both plan models and build their engines (set-up), then
              replay held-out episodes through agents.ipa_step

The parent passes the monotonic time at which it spawned this process, so
set-up time covers interpreter start, imports, model load and engine build.
After set-up the step repeats its pass for about --budget seconds (at
least one pass). Peak memory is this process's own high-water resident
set (VmHWM, Linux). The result is written as JSON to --out.

    python3 bench/steps.py detect --data DIR --work DIR --out result.json \
        --spawned-at T --seed 1 --round 0 --budget 5 [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hidpas import agents, detection, features, model_io, prediction  # noqa: E402
from hidpas.jtree import MAX_MIN, SUM_PRODUCT, net_factors  # noqa: E402
from hidpas.oracles import enumerate_marginal  # noqa: E402
from hidpas.possibility import transformed_factors  # noqa: E402

from spans import (  # noqa: E402
    NULL_TRACER, SANDWICH_TOL, LogCounter, Tracer, install_layer_probes)

DETECT_BATCH = 4  # records per detect_stream call
PLAN_SLOT_S = 60.0
ORACLE_SAMPLE = 6  # detect queries checked against enumeration per process
SUM_PRODUCT_TOL = 1e-9
MAX_MIN_TOL = 1e-12


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sandwiched(n: float, p: float, pi: float) -> bool:
    return max(n - p, p - pi) <= SANDWICH_TOL


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark; exec starts it afresh."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Step:
    """Base: subclasses set up models, run one repetition, check outputs."""

    def __init__(self, args):
        self.args = args
        with open(os.path.join(args.data, "files.json"), encoding="utf-8") as fh:
            self.data = json.load(fh)
        self.failures: dict[str, int] = {}
        # N <= P <= Pi breaches by kind: [outputs breaching, outputs checked].
        # The engine does not promise the bracket after propagation
        # (tests/test_possibility.py), so a breach is reported, not failed.
        self.breaches: dict[str, list[int]] = {}
        self.attempted = 0
        self.engines = []

    def fail(self, kind: str, n: int = 1) -> None:
        if n:
            self.failures[kind] = self.failures.get(kind, 0) + n

    def breach(self, kind: str, n: int, checked: int) -> None:
        row = self.breaches.setdefault(kind, [0, 0])
        row[0] += n
        row[1] += checked

    def setup(self, tr) -> None:
        pass

    def rep(self, tr) -> dict:
        raise NotImplementedError

    def check(self, reps: list[dict]) -> None:
        pass

    def guards(self, reps: list[dict]) -> dict:
        return {}


class TrainStep(Step):
    def rep(self, tr) -> dict:
        path = os.path.join(self.args.work, f"detector-{os.getpid()}.bn")
        t0 = time.perf_counter()
        table = tr.call("features.load_kdd", features.load_kdd, self.data["train"])
        table = tr.call("features.apply_label_granularity",
                        features.apply_label_granularity, table, "category")
        model = tr.call("detection.train_detector", detection.train_detector, table,
                        detection.DetectorConfig())
        tr.call("model_io.save_detector", model_io.save_detector, model, path,
                timestamp=False)
        seconds = time.perf_counter() - t0
        tr.count("features.rows_read", table.row_count)
        self.attempted += 1
        return {"pass_s": seconds, "model": path, "digest": _digest(path)}

    def check(self, reps: list[dict]) -> None:
        path = reps[0]["model"]
        with open(path, encoding="utf-8") as fh:
            saved = fh.read()
        self.attempted += 1
        reloaded = model_io.format_detector(model_io.load_detector(path), timestamp=False)
        self.fail("model_round_trip", int(reloaded != saved))


class DetectStep(Step):
    def setup(self, tr) -> None:
        self.model = tr.call("model_io.load_detector", model_io.load_detector,
                             self.args.model)
        self.engines.append(tr.call("possibility.engine", lambda: self.model.engine))
        with open(self.data["stream_labels"], encoding="utf-8") as fh:
            self.labels = fh.read().split()

    def rep(self, tr) -> dict:
        path = os.path.join(self.args.work, f"alerts-{os.getpid()}.csv")
        t0 = time.perf_counter()
        records = tr.call("detection.load_stream", detection.load_stream, self.data["stream"])
        t_loaded = time.perf_counter()
        alerts = []
        batch_s = []
        for i in range(0, len(records), DETECT_BATCH):
            t = time.perf_counter()
            alerts += tr.call("detection.detect_stream", detection.detect_stream, self.model,
                              records[i:i + DETECT_BATCH], "host-1")
            batch_s.append(time.perf_counter() - t)
        t_written = time.perf_counter()
        tr.call("detection.write_alerts_csv", detection.write_alerts_csv, alerts, path)
        end = time.perf_counter()
        seconds = (t_loaded - t0) + sum(batch_s) + (end - t_written)
        tr.count("detection.alerts", len(alerts))
        self.attempted += len(records)
        self.breach("alert_outside_interval",
                    sum(1 for a in alerts
                        if not _sandwiched(a.necessity, a.probability, a.possibility)),
                    len(alerts))
        self.records = records
        return {"records": len(records), "pass_s": seconds, "batch_s": batch_s,
                "digest": _digest(path), "outcomes": self._outcomes(records, alerts)}

    @staticmethod
    def _outcomes(records, alerts) -> list[str]:
        by_time = {a.timestamp: a.attack_type for a in alerts}
        return [by_time.get(r.timestamp, detection.NORMAL_LABEL) for r in records]

    def guards(self, reps: list[dict]) -> dict:
        outcomes = reps[0]["outcomes"]
        if len(outcomes) != len(self.labels):
            raise RuntimeError("stream and label file lengths differ")
        hits = sum(o == lab for o, lab in zip(outcomes, self.labels))
        return {"detect_accuracy": hits / len(outcomes)}

    def _evidence(self, record) -> dict[int, int]:
        """The evidence detection asserts: binarized numerics, known categories."""
        net, kinds = self.model.net, dict(features.KDD_FEATURES)
        evidence = {}
        for name in self.model.features:
            var = net.variable(net.var_id(name))
            raw = record.value(name)
            if kinds[name] == features.NUMERIC:
                evidence[var.id] = int(float(raw) >= self.model.rules.means[name])
            elif str(raw) in var.states:
                evidence[var.id] = var.states.index(str(raw))
        return evidence

    def check(self, reps: list[dict]) -> None:
        net, target = self.model.net, self.model.class_var
        arities = [v.arity for v in net.dag.variables]
        factors = {SUM_PRODUCT: net_factors(net), MAX_MIN: transformed_factors(net)}
        rng = np.random.default_rng([self.args.seed, self.args.round])
        for i in rng.choice(len(self.records), size=min(ORACLE_SAMPLE, len(self.records)),
                            replace=False):
            record = self.records[int(i)]
            self.attempted += 1
            evidence = self._evidence(record)
            marginal = self.model.engine.query(evidence, [target])[target]
            used = detection.classify_connection(self.model, record).marginal
            expect_p = enumerate_marginal(factors[SUM_PRODUCT], arities, evidence, target,
                                          SUM_PRODUCT)
            expect_pi = enumerate_marginal(factors[MAX_MIN], arities, evidence, target, MAX_MIN)
            ok = (expect_p is not None and expect_pi is not None and used == marginal
                  and np.max(np.abs(np.array(marginal.probability) - expect_p)) <= SUM_PRODUCT_TOL
                  and np.max(np.abs(np.array(marginal.possibility) - expect_pi)) <= MAX_MIN_TOL)
            self.fail("oracle_mismatch", int(not ok))
            self.breach("marginal_outside_interval",
                        int(marginal.sandwich_violation() > SANDWICH_TOL), 1)


class LearnStep(Step):
    def rep(self, tr) -> dict:
        plan_path = os.path.join(self.args.work, f"plan-{os.getpid()}.bn")
        clf_path = os.path.join(self.args.work, f"classifier-{os.getpid()}.bn")
        t0 = time.perf_counter()
        log = tr.call("prediction.load_alert_log", prediction.load_alert_log,
                      self.data["alerts"])
        hypers = tr.call("prediction.aggregate_alerts", prediction.aggregate_alerts, log)
        tm = tr.call("prediction.build_transactions", prediction.build_transactions,
                     hypers, dt=PLAN_SLOT_S)
        plan = tr.call("prediction.train_plan_model", prediction.train_plan_model, tm)
        clf = tr.call("prediction.train_alert_classifier", prediction.train_alert_classifier,
                      hypers)
        tr.call("model_io.save_plan", model_io.save_plan, plan, plan_path, timestamp=False)
        tr.call("model_io.save_classifier", model_io.save_classifier, clf, clf_path,
                timestamp=False)
        seconds = time.perf_counter() - t0
        tr.count("prediction.hyper_alerts", len(hypers))
        tr.count("prediction.slots", tm.slot_count)
        self.attempted += 1
        self.plan = plan
        return {"pass_s": seconds, "plan": plan_path, "classifier": clf_path,
                "digest": _digest(plan_path) + _digest(clf_path)}

    def guards(self, reps: list[dict]) -> dict:
        with open(self.data["plan_truth"], encoding="utf-8") as fh:
            planted = [tuple(e) for e in json.load(fh)]
        names = self.plan.hyper_names
        learned = {frozenset((names[p], names[c]))
                   for c, parents in enumerate(self.plan.net.dag.parents) for p in parents}
        found = sum(1 for e in planted if frozenset(e) in learned)
        return {"learning.plan_edge_recall": found / len(planted)}

    def check(self, reps: list[dict]) -> None:
        for key, load, fmt in (("plan", model_io.load_plan, model_io.format_plan),
                               ("classifier", model_io.load_classifier,
                                model_io.format_classifier)):
            with open(reps[0][key], encoding="utf-8") as fh:
                saved = fh.read()
            self.attempted += 1
            self.fail("model_round_trip",
                      int(fmt(load(reps[0][key]), timestamp=False) != saved))


class ForecastStep(Step):
    def setup(self, tr) -> None:
        self.plan = tr.call("model_io.load_plan", model_io.load_plan, self.args.plan)
        self.clf = tr.call("model_io.load_classifier", model_io.load_classifier,
                           self.args.classifier)
        self.engines.append(tr.call("possibility.engine", lambda: self.plan.engine))
        self.engines.append(tr.call("possibility.engine", lambda: self.clf.engine))
        with open(self.data["replay"], encoding="utf-8") as fh:
            self.episodes = json.load(fh)

    def rep(self, tr) -> dict:
        latencies = []
        alerts = hits = outside = 0
        reports = hashlib.sha256()
        t0 = time.perf_counter()
        for episode in self.episodes:
            state = agents.IPAState(classifier=self.clf, plan=self.plan)
            steps = episode["steps"]
            for ts, sensor, src_ip, _, dst_ip, _, kind in episode["alerts"]:
                message = agents.AgentMessage(agents.ALERT, sensor, detection.DetectionAlert(
                    float(ts), sensor, src_ip, dst_ip, kind, 1.0, 1.0, 1.0))
                t = time.perf_counter()
                state, emitted = tr.call("agents.ipa_step", agents.ipa_step, state, message)
                elapsed = time.perf_counter() - t
                alerts += 1
                if not emitted:
                    continue
                latencies.append(elapsed)
                report = emitted[0].payload
                reports.update(emitted[0].to_json().encode())
                later = steps[steps.index(kind) + 1:]
                hits += int(bool(report.predicted) and report.predicted[0].hyper_name in later)
                outside += int(not all(_sandwiched(r.necessity, r.probability, r.possibility)
                                       for r in report.rows))
        seconds = time.perf_counter() - t0
        tr.count("agents.predictions_emitted", len(latencies))
        self.breach("prediction_outside_interval", outside, len(latencies))
        self.attempted += alerts
        return {"alerts": alerts, "pass_s": seconds, "forecast_s": latencies,
                "hits": hits, "digest": reports.hexdigest()}

    def guards(self, reps: list[dict]) -> dict:
        made = len(reps[0]["forecast_s"])
        return {"forecast_hit_rate": reps[0]["hits"] / made if made else 0.0,
                "forecast_predictions": made}


STEPS = {"train": TrainStep, "detect": DetectStep, "learn": LearnStep,
         "forecast": ForecastStep}


def _table_entries(engine) -> int:
    arity = {v.id: v.arity for v in engine.net.dag.variables}
    return sum(int(np.prod([arity[v] for v in c])) for c in engine.structure.clusters)


def _passes(step: Step, budget: float) -> list[dict]:
    """Untraced passes while the next one, as long as the last, would end
    nearer the budget than stopping now (at least one pass)."""
    reps = [step.rep(NULL_TRACER)]
    t0 = time.perf_counter() - reps[0]["pass_s"]
    while time.perf_counter() - t0 + reps[-1]["pass_s"] / 2 <= budget:
        reps.append(step.rep(NULL_TRACER))
    return reps


def _traced(step: Step, logs: LogCounter) -> tuple[list[dict], dict]:
    """A warm-up pass, then set-up and one pass untraced, then the same traced.

    Both timed halves run warm, so their ratio is the tracing overhead.
    """
    step.setup(NULL_TRACER)
    reps = [step.rep(NULL_TRACER)]
    step.engines.clear()
    t0 = time.perf_counter()
    step.setup(NULL_TRACER)
    reps.append(step.rep(NULL_TRACER))
    untraced_s = time.perf_counter() - t0
    before = dict(logs.counts)
    step.engines.clear()
    tracer = Tracer()
    install_layer_probes(tracer)
    t0 = time.perf_counter()
    try:
        step.setup(tracer)
        reps.append(step.rep(tracer))
    finally:
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
    for kind, n in logs.counts.items():
        tracer.count(kind, n - before.get(kind, 0))
    return reps, {
        "untraced_s": untraced_s, "traced_s": traced_s,
        "unattributed_s": traced_s - tracer.root_seconds(),
        "summary": tracer.summary(), "counts": dict(tracer.counts),
        "max_cluster_vars": max((max(len(c) for c in e.structure.clusters)
                                 for e in step.engines), default=0),
        "table_entries": sum(_table_entries(e) for e in step.engines),
        "spans": tracer.export(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="run one benchmark step")
    parser.add_argument("step", choices=sorted(STEPS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0, help="picks the oracle sample")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of untraced passes after set-up (at least one)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--model", help="detector model (detect)")
    parser.add_argument("--plan", help="plan model (forecast)")
    parser.add_argument("--classifier", help="alert classifier (forecast)")
    args = parser.parse_args()

    logs = LogCounter()
    logs.install()
    step = STEPS[args.step](args)
    result: dict = {"step": args.step}
    if args.trace:
        reps, result["trace"] = _traced(step, logs)
    else:
        step.setup(NULL_TRACER)
        result["setup_s"] = time.monotonic() - args.spawned_at
        reps = _passes(step, args.budget)
    digests = {r.pop("digest") for r in reps}
    step.attempted += 1
    step.fail("nondeterministic_output", int(len(digests) != 1))
    step.check(reps)
    for kind in ("detection.skipped", "detection.prior_fallbacks",
                 "prediction.prior_fallbacks", "agents.predictions_skipped"):
        step.fail(kind, logs.counts.get(kind, 0))
    result.update({
        "reps": reps, "digest": digests.pop() if len(digests) == 1 else None,
        "guards": step.guards(reps), "attempted": step.attempted,
        "failures": step.failures, "breaches": step.breaches, "rss_mb": _peak_rss_mb(),
    })
    for r in reps:
        r.pop("outcomes", None)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

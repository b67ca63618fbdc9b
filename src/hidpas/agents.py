"""Two-layer agent simulation: per-host detection agents feeding one
network-wide prediction agent, coupled only by messages.

Agents are logical actors scheduled deterministically in one process.
Detection agents classify their host's connection stream; the prediction
agent classifies each incoming alert into a hyper-alert and re-predicts
whenever a new distinct hyper-alert appears. Runs are reproducible from
(config, seed): alert arrival is interleaved round-robin over a seeded
shuffle of the hosts.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from .detection import DetectionAlert, detect_stream, load_stream
from .core import PARAMS, DataError, check_params, open_input, open_output
from .model_io import load_classifier, load_detector, load_plan
from .possibility import ImpossibleEvidenceError
from .prediction import (
    AlertClassifierModel,
    AlertRecord,
    PlanModel,
    PredictionReport,
    classify_alert,
    predict_attacks,
)

log = logging.getLogger(__name__)

ALERT = "alert"
PREDICTION = "prediction"
SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class AgentMessage:
    kind: str
    sender: str
    payload: DetectionAlert | PredictionReport | None = None

    def __post_init__(self):
        ok = (
            (self.kind == ALERT and isinstance(self.payload, DetectionAlert))
            or (self.kind == PREDICTION and isinstance(self.payload, PredictionReport))
            or (self.kind == SHUTDOWN and self.payload is None)
        )
        if not ok:
            raise ValueError(f"payload type does not match message kind {self.kind!r}")

    def to_json(self) -> str:
        payload = self.payload.to_payload() if self.payload is not None else None
        return json.dumps({"kind": self.kind, "sender": self.sender,
                           "payload": payload}, sort_keys=True)


@dataclass(frozen=True)
class SimulationConfig:
    hosts: Mapping[str, str]  # host id -> connection stream path
    detector_model: str
    alert_classifier: str
    plan_model: str
    selection: str = PARAMS["selection"].default
    theta: float = PARAMS["theta"].default
    tau: float | None = None  # overrides the gap threshold stored in the models
    seed: int = PARAMS["seed"].default

    def __post_init__(self):
        object.__setattr__(self, "hosts", dict(self.hosts))
        if not self.hosts:
            raise ValueError("at least one host is required")
        check_params(selection=self.selection, theta=self.theta, seed=self.seed,
                     **({} if self.tau is None else {"tau": self.tau}))


@dataclass(frozen=True)
class IPAState:
    """Prediction-agent state: immutable models plus the observed step set."""

    classifier: AlertClassifierModel
    plan: PlanModel
    selection: str = PARAMS["selection"].default
    theta: float = PARAMS["theta"].default
    observed: tuple[str, ...] = ()
    terminated: bool = False


def ipa_step(state: IPAState, message: AgentMessage) -> tuple[IPAState, tuple[AgentMessage, ...]]:
    """Pure transition: classify the alert, maybe emit a fresh prediction.

    A prediction is emitted only when the alert maps to a hyper-alert not
    seen before (repeat evidence would reproduce the previous report).
    """
    if state.terminated:
        return state, ()
    if message.kind == SHUTDOWN:
        return replace(state, terminated=True), ()
    if message.kind != ALERT or not isinstance(message.payload, DetectionAlert):
        log.warning("dropping malformed message kind=%r from %s",
                    message.kind, message.sender)
        return state, ()

    alert = message.payload
    record = AlertRecord(
        timestamp=alert.timestamp,
        sensor=alert.host,
        src_ip=alert.src_ip,
        src_port="",
        dst_ip=alert.dst_ip,
        dst_port="",
        attack_type=alert.attack_type,
    )
    result = classify_alert(state.classifier, record)
    if result.label in state.observed:
        return state, ()
    new_state = replace(state, observed=state.observed + (result.label,))
    known = [h for h in new_state.observed if _in_plan(state.plan, h)]
    try:
        report = predict_attacks(state.plan, known, state.selection, state.theta)
    except ImpossibleEvidenceError:
        # contradictory plan evidence (possible with unsmoothed models) must
        # not take the prediction agent down
        log.warning("prediction skipped: observed set %s has zero mass in the "
                    "plan model", known)
        return new_state, ()
    return new_state, (AgentMessage(PREDICTION, "ipa", report),)


def _in_plan(plan: PlanModel, hyper: str) -> bool:
    return hyper in plan.hyper_names


@dataclass
class SimulationResult:
    event_log: list[AgentMessage] = field(default_factory=list)
    reports: list[PredictionReport] = field(default_factory=list)

    def write_ndjson(self, path: str) -> None:
        with open_output(path) as fh:
            for msg in self.event_log:
                fh.write(msg.to_json() + "\n")


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Drive every detection agent over its stream, then drain the queues.

    Host alert queues are interleaved round-robin in a seeded shuffled host
    order, so the event log is a deterministic function of (config, seed).
    """
    detector = load_detector(config.detector_model)
    classifier = load_classifier(config.alert_classifier)
    plan = load_plan(config.plan_model)
    if config.tau is not None:
        detector = replace(detector, tau=config.tau)
        classifier = replace(classifier, tau=config.tau)
        plan = replace(plan, tau=config.tau)
    streams = {}
    for host, path in sorted(config.hosts.items()):
        streams[host] = load_stream(path)

    queues: dict[str, list[DetectionAlert]] = {
        host: detect_stream(detector, records, host)
        for host, records in streams.items()
    }

    order = sorted(queues)
    random.Random(config.seed).shuffle(order)

    state = IPAState(classifier=classifier, plan=plan,
                     selection=config.selection, theta=config.theta)
    result = SimulationResult()
    while any(queues.values()):
        for host in order:
            if not queues[host]:
                continue
            alert = queues[host].pop(0)
            message = AgentMessage(ALERT, host, alert)
            result.event_log.append(message)
            state, emitted = ipa_step(state, message)
            for out in emitted:
                result.event_log.append(out)
                if out.kind == PREDICTION:
                    result.reports.append(out.payload)
    return result


def load_sim_config(path: str) -> SimulationConfig:
    """Flat key = value file; hosts are `host.<id> = <stream path>` lines.

    Recognized keys: detector_model, alert_classifier, plan_model, selection,
    theta, tau, seed; the last four are read by PARAMS. Paths are resolved
    relative to the config file's directory. An unknown key, a key given
    twice, a host with an empty id, an empty value and a value its setting's
    rule rejects are data errors naming the file and line.
    """
    import os

    with open_input(path, encoding="utf-8") as fh:
        text = fh.read()

    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    known = {f.name for f in fields(SimulationConfig)} - {"hosts"}
    hosts: dict[str, str] = {}
    settings = {}  # selection, theta, tau and seed, as given
    values: dict[str, tuple[str, int]] = {}  # key -> (value, line), host keys too
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise DataError(f"{path}:{lineno}: {key} repeats line {values[key][1]}")
        if key == "host.":
            raise DataError(f"{path}:{lineno}: host without an id (host.<id> = <stream path>)")
        if not key.startswith("host.") and key not in known:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise DataError(f"{path}:{lineno}: {key} has no value")
        if key.startswith("host."):
            hosts[key[len("host."):]] = resolve(value)
        elif key in PARAMS:
            try:
                settings[key] = PARAMS[key].read(value)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad {key} {value!r} ({exc})") from None
        values[key] = (value, lineno)

    missing = [k for k in ("detector_model", "alert_classifier", "plan_model")
               if k not in values]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")

    return SimulationConfig(
        hosts=hosts,
        detector_model=resolve(values["detector_model"][0]),
        alert_classifier=resolve(values["alert_classifier"][0]),
        plan_model=resolve(values["plan_model"][0]),
        **settings,
    )

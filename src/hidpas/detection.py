"""Host intrusion detection: train a connection classifier, classify streams.

A trained model discretizes incoming connection records with frozen rules,
asserts the selected feature values as evidence, and reads the class
posterior with its possibility/necessity bracket. The most probable
informative class wins; when nothing is informative the plain argmax is
returned flagged low-confidence.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (PARAMS, DataError, Variable, bad_row, check_params, csv_records,
                   finite_float, open_output)
from .features import (
    KDD_FEATURES,
    NUMERIC,
    RawTable,
    TransformRules,
    build_rules,
    gini_rank,
    parse_connection_fields,
    select_features,
    to_discrete_dataset,
)
from .learning import fit_cpts, k2_search
from .possibility import Classification, ClassifierModel

log = logging.getLogger(__name__)

NORMAL_LABEL = "normal"

ALERT_CSV_HEADER = "timestamp,host,src_ip,dst_ip,type,necessity,probability,possibility"

# Column of each feature in ConnectionRecord.values, and its kind.
FEATURE_COLUMNS = {name: i for i, (name, _) in enumerate(KDD_FEATURES)}
_KINDS = dict(KDD_FEATURES)


@dataclass(frozen=True)
class ConnectionRecord:
    """One raw connection: the 41 typed feature values plus stream metadata."""

    values: tuple
    timestamp: float = 0.0
    src_ip: str = ""
    dst_ip: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(KDD_FEATURES):
            raise ValueError(f"expected {len(KDD_FEATURES)} feature values")

    def value(self, feature: str):
        try:
            return self.values[FEATURE_COLUMNS[feature]]
        except KeyError:
            raise ValueError(f"unknown feature {feature!r}") from None


@dataclass(frozen=True)
class DetectionAlert:
    """A non-normal classification forwarded to the prediction layer."""

    timestamp: float
    host: str
    src_ip: str
    dst_ip: str
    attack_type: str
    necessity: float
    probability: float
    possibility: float

    def csv_row(self) -> tuple[str, ...]:
        """The fields of this alert's row under ALERT_CSV_HEADER."""
        return (f"{self.timestamp:.12g}", self.host, self.src_ip, self.dst_ip,
                self.attack_type, f"{self.necessity:.12g}",
                f"{self.probability:.12g}", f"{self.possibility:.12g}")

    def to_payload(self) -> dict:
        payload = dict(vars(self))
        payload["type"] = payload.pop("attack_type")
        return payload


@dataclass(frozen=True)
class DetectorConfig:
    class_column: str = "attack_type"
    top_k: int = PARAMS["top_k"].default
    max_parents: int = PARAMS["max_parents"].default
    smoothing: float = PARAMS["smoothing"].default
    tau: float = PARAMS["tau"].default
    order: tuple[str, ...] | None = None  # column names; default class-first

    def __post_init__(self):
        check_params(top_k=self.top_k, max_parents=self.max_parents,
                     smoothing=self.smoothing, tau=self.tau)


@dataclass(frozen=True)
class DetectorModel(ClassifierModel):
    """A connection classifier: each evidence field is a KDD feature, read
    off its column of `ConnectionRecord.values`, and a numeric one has a
    threshold rule; every rule names a variable of the net, and a states
    rule lists that variable's states. A model that breaks this raises
    ValueError when built."""

    rules: TransformRules

    def __post_init__(self):
        super().__post_init__()
        variables = {var.name: var for var in self.net.dag.variables}
        for name in (*self.rules.means, *self.rules.states):
            if name not in variables:
                raise ValueError(f"rule for {name!r}, which is not a variable of the net")
        for name, states in self.rules.states.items():
            if states != variables[name].states:
                raise ValueError(f"rule {name} states={','.join(states)} differs from the "
                                 f"net's states {','.join(variables[name].states)}")

    def _field(self, var: Variable, place: int) -> tuple[int, float | dict[str, int]]:
        kind = _KINDS.get(var.name)
        if kind is None:
            raise ValueError(f"feature {var.name!r} is not a KDD feature")
        if kind != NUMERIC:
            return FEATURE_COLUMNS[var.name], var.state_index()
        if (mean := self.rules.means.get(var.name)) is None:
            raise ValueError(f"numeric feature {var.name!r} has no threshold rule")
        return FEATURE_COLUMNS[var.name], mean

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(name for name, *_ in self.fields)


def train_detector(table: RawTable, config: DetectorConfig = DetectorConfig()) -> DetectorModel:
    """Rank, select, discretize, learn structure and parameters."""
    ranking = gini_rank(table, config.class_column)
    selected = select_features(ranking, min(config.top_k, len(ranking.entries)))
    rules = build_rules(table, selected)
    dataset = to_discrete_dataset(table, rules, selected)

    name_to_id = {v.name: v.id for v in dataset.variables}
    if config.order is not None:
        for fault, names in (
                ("names unknown columns", [n for n in config.order if n not in name_to_id]),
                ("repeats", [n for n in dict.fromkeys(config.order) if config.order.count(n) > 1]),
                ("misses", [n for n in name_to_id if n not in config.order])):
            if names:
                raise DataError(f"order {fault} {names}: each of the selected columns "
                                f"{sorted(name_to_id)} must appear once")
        order = tuple(name_to_id[n] for n in config.order)
    else:
        order = (name_to_id[config.class_column],) + tuple(
            name_to_id[n] for n in selected if n != config.class_column
        )
    dag = k2_search(dataset, order, config.max_parents)
    net = fit_cpts(dataset, dag, config.smoothing)
    return DetectorModel(
        rules=rules,
        net=net,
        class_var=name_to_id[config.class_column],
        tau=config.tau,
    )


def classify_connections(model: DetectorModel, records: Sequence[ConnectionRecord]
                         ) -> list[Classification]:
    """Classify records through one batched calibration; each result equals
    classify_connection on that record alone."""
    return model.classify((record.values for record in records), log)


def classify_connection(model: DetectorModel, record: ConnectionRecord) -> Classification:
    """Classify one connection into the most probable informative class."""
    return classify_connections(model, [record])[0]


def detect_stream(model: DetectorModel, records: Iterable[ConnectionRecord],
                  host: str) -> list[DetectionAlert]:
    """Classify a record stream in one batched call, emitting one alert per
    non-normal result; the alerts do not depend on how the stream is split."""
    records = list(records)
    alerts: list[DetectionAlert] = []
    for record, result in zip(records, classify_connections(model, records)):
        if result.label == NORMAL_LABEL:
            continue
        n, p, pi = result.triple
        alerts.append(DetectionAlert(
            timestamp=record.timestamp,
            host=host,
            src_ip=record.src_ip,
            dst_ip=record.dst_ip,
            attack_type=result.label,
            necessity=n,
            probability=p,
            possibility=pi,
        ))
    return alerts


def load_stream(path: str, on_bad: str = "abort") -> list[ConnectionRecord]:
    """Read a connection stream.

    Accepted row shapes:
      41 or 42 fields: plain KDD row (label, when present, is ignored);
          the timestamp is the row's 0-based index among the records kept,
          in seconds, so a skipped row leaves no gap.
      44 or 45 fields: `timestamp,src_ip,dst_ip` prefix followed by the 41
          features (and optional ignored label).
    """
    if on_bad not in ("abort", "skip"):
        raise ValueError("on_bad must be 'abort' or 'skip'")
    n_feat = len(KDD_FEATURES)
    records: list[ConnectionRecord] = []
    for lineno, rec in csv_records(path):
        try:
            if len(rec) in (n_feat, n_feat + 1):
                values = parse_connection_fields(rec[:n_feat])
                records.append(ConnectionRecord(values, timestamp=float(len(records))))
            elif len(rec) in (n_feat + 3, n_feat + 4):
                try:
                    ts = finite_float(rec[0])
                except ValueError:
                    raise DataError(f"bad timestamp {rec[0]!r}") from None
                values = parse_connection_fields(rec[3:3 + n_feat])
                records.append(ConnectionRecord(
                    values, timestamp=ts, src_ip=rec[1].strip(), dst_ip=rec[2].strip()
                ))
            else:
                raise DataError(f"unexpected field count {len(rec)}")
        except DataError as exc:
            bad_row(path, lineno, exc, on_bad, log)
    return records


def write_alerts_csv(alerts: Sequence[DetectionAlert], path: str) -> None:
    """One row per alert, quoted as csv quotes it (a host or address holding a comma)."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ALERT_CSV_HEADER.split(","))
        writer.writerows(alert.csv_row() for alert in alerts)

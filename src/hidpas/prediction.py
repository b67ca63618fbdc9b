"""Network intrusion prediction: hyper-alerts, plan learning, forecasting.

Alerts are first clustered on all attributes except timestamps, then the
clusters are merged per attack-plan step (by attack type unless overridden).
Hyper-alert occurrences over fixed time slots train a binary network whose
conditional structure is read as the attack plan.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .core import (
    NOT_TOKEN,
    PARAMS,
    BayesNet,
    DataError,
    Variable,
    check_params,
    csv_records,
    finite_float,
    open_output,
)
from .features import CATEGORICAL, NUMERIC, RowView, category_states, encode, read_table
from .learning import DiscreteDataset, fit_cpts, k2_search
from .possibility import (Classification, ClassifierModel, HybridMarginal, HybridPropagator,
                          ImpossibleEvidenceError, Memo)
from .possibility import log as engine_log

log = logging.getLogger(__name__)

ALERT_LOG_HEADER = "timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type"
ATTRIBUTE_FIELDS = ("src_ip", "src_port", "dst_ip", "dst_port", "attack_type")
CLASS_COLUMN = "hyper_alert"
ABSENT, PRESENT = 0, 1
OCCURRENCE = ("absent", "present")  # a plan variable's states, by ABSENT and PRESENT
# State label under which the classifier stores an attribute left empty;
# labels are saved as tokens and cannot be empty.
EMPTY_STATE = "__empty__"


@dataclass(frozen=True)
class AlertRecord:
    """One sensor alert; ports may be empty for partially observed alerts."""

    timestamp: float
    sensor: str
    src_ip: str
    src_port: str
    dst_ip: str
    dst_port: str
    attack_type: str

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        if not self.sensor or not self.attack_type:
            raise ValueError("sensor and attack_type are required")


LOG_FIELDS = ("sensor",) + ATTRIBUTE_FIELDS  # an AlertLog's cell columns


class AlertLog(RowView):
    """Alerts held by column, as `load_alert_log` reads them: a timestamp,
    then each of LOG_FIELDS."""

    NAMES = ("timestamp",) + LOG_FIELDS
    KINDS = (NUMERIC,) + (CATEGORICAL,) * len(LOG_FIELDS)
    values = attrgetter(*NAMES)
    record = AlertRecord

    @property
    def timestamps(self) -> np.ndarray:
        return self.column(0)


def _first_seen_groups(columns: Iterable[tuple[list[str], np.ndarray]]) -> tuple[np.ndarray, int]:
    """Each row's group under the joint value of code columns, groups
    numbered in order of first occurrence, and the number of groups."""
    key = 0
    for levels, codes in columns:  # renumbered per column, so key < rows * cells
        _, first, key = np.unique(key * len(levels) + codes, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[key], len(first)


@dataclass(frozen=True)
class HyperAlert:
    """A cluster of alerts representing one step of an attack plan.

    attributes holds the values shared by every member; fields that differ
    across members after merging are blanked.
    """

    id: int
    name: str
    attributes: tuple[str, ...]
    members: AlertLog

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def earliest(self) -> float:
        return min(self.members.timestamps.tolist())  # the first of 0.0 and -0.0


def aggregate_alerts(log_records: AlertLog | Sequence[AlertRecord],
                     merge_key: str = "attack_type") -> list[HyperAlert]:
    """Two-phase aggregation into hyper-alerts.

    Phase 1 groups alerts identical in (sensor, src_ip, src_port, dst_ip,
    dst_port, attack_type); phase 2 merges phase-1 clusters that share the
    merge key, which names the attack-plan step (EMPTY_STATE for an empty
    key, as names cannot be empty). Ids follow first occurrence; a hyper's
    members are its clusters in order of first occurrence, each in log order.
    """
    if merge_key not in ATTRIBUTE_FIELDS:
        raise ValueError(f"merge key must be one of {ATTRIBUTE_FIELDS}")
    log = AlertLog.of_records(log_records)
    columns = log.columns[1:]  # LOG_FIELDS
    cluster, clusters = _first_seen_groups(columns)
    levels, codes = columns[LOG_FIELDS.index(merge_key)]
    names, name_of = encode([cell or EMPTY_STATE for cell in levels], codes)
    step, _ = _first_seen_groups([(names, name_of)])  # a step's first cluster comes first
    order = np.argsort(step * clusters + cluster, kind="stable")
    starts = np.flatnonzero(np.diff(step[order], prepend=-1))
    shared = []  # per field, each hyper's shared cell, or ""
    for levels, codes in columns[1:]:
        ordered = codes[order]
        low, high = (np.minimum.reduceat(ordered, starts).tolist(),
                     np.maximum.reduceat(ordered, starts).tolist())
        shared.append([levels[lo] if lo == hi else "" for lo, hi in zip(low, high)])
    return [HyperAlert(hid, names[name_of[rows[0]]], attributes, log[rows])
            for hid, (rows, attributes) in enumerate(zip(np.split(order, starts[1:]),
                                                         zip(*shared)))]


def phase1_cluster_count(log_records: AlertLog | Sequence[AlertRecord]) -> int:
    """Number of clusters before the plan-step merge (for reporting)."""
    return _first_seen_groups(AlertLog.of_records(log_records).columns[1:])[1]


def _joined(hypers: Sequence[HyperAlert]) -> AlertLog:
    """Every hyper's members, in order, as one view of the log they share."""
    logs = [h.members for h in hypers]
    if any(m.table is not logs[0].table for m in logs):
        raise ValueError("hyper-alerts must come from one aggregation")
    return logs[0].at(np.concatenate([m.rows for m in logs]))


# -- alert classification -----------------------------------------------------

@dataclass(frozen=True)
class AlertClassifierModel(ClassifierModel):
    """Bayesian classifier from alert attributes to hyper-alert names: its
    evidence fields are ATTRIBUTE_FIELDS, in that order; a model whose net
    holds other fields raises ValueError when built."""

    def __post_init__(self):
        super().__post_init__()
        names = tuple(name for name, *_ in self.fields)
        if names != ATTRIBUTE_FIELDS:
            raise ValueError(f"attribute fields are {','.join(ATTRIBUTE_FIELDS)} in id order, "
                             f"not {','.join(names)}")


def train_alert_classifier(hypers: Sequence[HyperAlert],
                           max_parents: int = PARAMS["max_parents"].default,
                           smoothing: float = PARAMS["smoothing"].default,
                           tau: float = PARAMS["tau"].default) -> AlertClassifierModel:
    """Learn attribute -> hyper-alert structure from the labeled members."""
    check_params(max_parents=max_parents, smoothing=smoothing, tau=tau)
    if not hypers:
        raise ValueError("no hyper-alerts to train on")
    columns = _joined(hypers).columns[2:] + [  # the attributes, then the class
        ([h.name for h in hypers], np.repeat(range(len(hypers)), [h.size for h in hypers]))]
    variables, data = [], []
    for cid, (name, (levels, codes)) in enumerate(zip(ATTRIBUTE_FIELDS + (CLASS_COLUMN,),
                                                      columns)):
        labels = [cell or EMPTY_STATE for cell in levels]
        states = category_states(name, [labels[c] for c in np.unique(codes).tolist()])
        index = {s: i for i, s in enumerate(states)}  # a label no member holds is no state
        variables.append(Variable(cid, name, states))
        data.append(np.array([index.get(label, -1) for label in labels], dtype=np.int64)[codes])
    dataset = DiscreteDataset(tuple(variables), np.column_stack(data))

    class_id = len(ATTRIBUTE_FIELDS)
    order = (class_id,) + tuple(range(class_id))
    net = fit_cpts(dataset, k2_search(dataset, order, max_parents), smoothing)
    return AlertClassifierModel(net=net, class_var=class_id, tau=tau)


_ONLY_CELL = np.zeros(1, dtype=np.intp)  # a one-row column's code: its only cell
_ONLY_CELL.setflags(write=False)


def classify_alert(model: AlertClassifierModel, alert) -> Classification:
    """Assert the alert's ATTRIBUTE_FIELDS as evidence, an AlertRecord's or a
    detection.DetectionAlert's (whose ports are blank); empty ones stay unobserved."""
    columns = [([value], _ONLY_CELL) if (value := getattr(alert, f)) else None
               for f in ATTRIBUTE_FIELDS]
    return model.classify(*model.encode(1, columns), log)[0]


# -- transactions and the plan model ------------------------------------------

@dataclass(frozen=True)
class TransactionMatrix:
    """Binary hyper-alert occurrence per time slot.

    Slot i covers [start + i*dt, start + (i+1)*dt); occurrence holds one row
    per slot and one column per hyper-alert.
    """

    names: tuple[str, ...]
    earliest: tuple[float, ...]
    start: float
    dt: float
    occurrence: np.ndarray
    ignored: int = 0

    def __post_init__(self):
        occ = np.asarray(self.occurrence, dtype=np.int8)
        if not np.all((occ == 0) | (occ == 1)):
            raise ValueError("occurrence entries must be binary")
        occ.setflags(write=False)
        object.__setattr__(self, "occurrence", occ)

    @property
    def slot_count(self) -> int:
        return int(self.occurrence.shape[0])


def build_transactions(hypers: Sequence[HyperAlert], dt: float,
                       start: float | None = None,
                       span: float | None = None) -> TransactionMatrix:
    """Mark each hyper-alert present in every slot holding one of its members.

    dt is the slot width (the `slot` setting). start defaults to the earliest
    alert; span defaults to covering the whole log. Alerts outside
    [start, start + span) are ignored and counted.
    """
    check_params(slot=dt, span=span)
    if not hypers:
        raise ValueError("no hyper-alerts")
    sizes = [len(h.members) for h in hypers]
    if not all(sizes):
        raise ValueError("every hyper-alert needs a member")
    stamps = _joined(hypers).timestamps
    if start is None:
        start = float(stamps.min())
    if span is not None:
        m = math.ceil(span / dt)
        limit = start + span
    else:
        latest = float(stamps.max())
        m = max(1, math.floor((latest - start) / dt) + 1) if latest >= start else 1
        limit = start + m * dt

    # float // as Python's: the slot of a member with start <= t < limit
    slots = (stamps - start) // dt
    kept = (start <= stamps) & (stamps < limit) & (slots < m)
    occ = np.zeros((m, len(hypers)), dtype=np.int8)
    occ[slots[kept].astype(np.intp), np.repeat(np.arange(len(hypers)), sizes)[kept]] = 1
    ignored = len(stamps) - int(np.count_nonzero(kept))
    if ignored:
        log.warning("%d alerts fall outside the transaction window", ignored)
    return TransactionMatrix(
        names=tuple(h.name for h in hypers),
        earliest=tuple(np.minimum.reduceat(stamps, np.cumsum([0] + sizes[:-1])).tolist()),
        start=float(start),
        dt=float(dt),
        occurrence=occ,
        ignored=ignored,
    )


@dataclass(frozen=True)
class PlanModel:
    """Binary occurrence network over hyper-alerts, with the gap threshold.
    Each variable is a hyper-alert, named as the variable is (`hyper_names`).
    Every variable has the states OCCURRENCE; another net raises ValueError.
    `forecasts` memoizes `predict_attacks` per observed set. An entry holds
    the finished report under each selection asked of the set, with the
    breaches its forecasts log, not the marginals; a repeated forecast gets
    the same report object, so reports are never changed. A copy made by
    `dataclasses.replace` starts with an empty memo."""

    net: BayesNet
    tau: float
    forecasts: Memo = field(default_factory=Memo, init=False, repr=False, compare=False)

    def __post_init__(self):
        for var in self.net.dag.variables:
            if var.states != OCCURRENCE:
                raise ValueError(f"hyper-alert {var.name!r} has states {','.join(var.states)}, "
                                 f"not {','.join(OCCURRENCE)}")

    @cached_property
    def engine(self) -> HybridPropagator:
        return HybridPropagator(self.net)

    @cached_property
    def hyper_names(self) -> tuple[str, ...]:
        return tuple(var.name for var in self.net.dag.variables)

    def var_of(self, hyper: str | int) -> int:
        """The variable of a hyper-alert: a token is its name if one has it,
        and its id otherwise, an int or a string of ASCII digits."""
        if hyper in self.hyper_names:
            return self.hyper_names.index(hyper)
        if isinstance(hyper, str):
            if not (hyper.isascii() and hyper.isdigit()):
                raise DataError(f"no hyper-alert named {hyper!r}")
            hyper = int(hyper)
        if not 0 <= hyper < len(self.hyper_names):
            raise DataError(f"no hyper-alert with id {hyper}")
        return hyper


def train_plan_model(tm: TransactionMatrix,
                     max_parents: int = PARAMS["max_parents"].default,
                     smoothing: float = PARAMS["smoothing"].default,
                     tau: float = PARAMS["tau"].default) -> PlanModel:
    """Slots are observations; K2 runs in earliest-occurrence order."""
    check_params(max_parents=max_parents, smoothing=smoothing, tau=tau)
    if tm.slot_count < 1 or not tm.names:
        raise ValueError("transaction matrix must have at least one slot and one hyper-alert")
    variables = tuple(
        Variable(i, name, OCCURRENCE) for i, name in enumerate(tm.names)
    )
    dataset = DiscreteDataset(variables, tm.occurrence)
    order = tuple(sorted(range(len(tm.names)), key=lambda i: (tm.earliest[i], i)))
    net = fit_cpts(dataset, k2_search(dataset, order, max_parents), smoothing)
    return PlanModel(net=net, tau=tau)


@dataclass(frozen=True)
class PredictionRow:
    hyper_name: str
    necessity: float
    probability: float
    possibility: float
    informative: bool
    selected: bool

    def to_payload(self) -> dict:
        payload = dict(vars(self))
        payload["hyper_alert"] = payload.pop("hyper_name")
        return payload


@dataclass(frozen=True)
class PredictionReport:
    """A forecast's rows, one per unobserved hyper-alert. The plan model's
    memo hands one report to every caller that repeats the forecast, so a
    report is shared and immutable; `to_payload` gives each call its own dict."""

    observed: tuple[str, ...]
    rows: tuple[PredictionRow, ...]
    selection: str

    @cached_property
    def predicted(self) -> tuple[PredictionRow, ...]:
        """Selected rows ranked by probability, best first."""
        chosen = [r for r in self.rows if r.selected]
        chosen.sort(key=lambda r: (-r.probability, r.hyper_name))
        return tuple(chosen)

    def format_table(self) -> str:
        width = max([len("hyper_alert")] + [len(r.hyper_name) for r in self.rows])
        lines = [f"{'hyper_alert':<{width}}  {'N':>10}  {'P':>10}  {'Π':>10}  "
                 f"informative  selected"]
        for r in self.rows:
            lines.append(
                f"{r.hyper_name:<{width}}  {r.necessity:>10.6f}  {r.probability:>10.6f}  "
                f"{r.possibility:>10.6f}  {str(r.informative):<11}  {str(r.selected)}"
            )
        return "\n".join(lines)

    def to_payload(self) -> dict:
        return {
            "observed": list(self.observed),
            "selection": self.selection,
            "rows": [r.to_payload() for r in self.rows],
        }

    @cached_property
    def payload_json(self) -> str:
        """`to_payload()` as JSON with sorted keys, spelled once per report."""
        return json.dumps(self.to_payload(), sort_keys=True)


def _select(observed: tuple[str, ...], draft: Sequence[tuple], selection: str,
            theta: float) -> PredictionReport:
    """The report of draft rows (name, N, P, Π, informative): `max` selects
    the informative rows of highest P, `threshold` those with P >= theta."""
    if selection == "max":
        top = max((p for _, _, p, _, informative in draft if informative), default=None)
        flags = [informative and p == top for _, _, p, _, informative in draft]
    else:
        flags = [informative and p >= theta for _, _, p, _, informative in draft]
    return PredictionReport(observed, tuple(PredictionRow(*d, selected)
                                            for d, selected in zip(draft, flags)), selection)


@dataclass(frozen=True)
class _Forecast:
    """A `PlanModel.forecasts` entry for an observed set of possible evidence:
    the (variable, violation) pairs of the targets whose N <= P <= Π interval
    misses the probability, and per selection the theta last asked with its
    report."""

    breaches: tuple[tuple[int, float], ...]
    reports: dict[str, tuple[float, PredictionReport]]

    @classmethod
    def of(cls, model: PlanModel, observed_ids: Sequence[int],
           marginals: dict[int, HybridMarginal], selection: str, theta: float) -> _Forecast:
        draft, breaches = [], []
        for vid, hm in marginals.items():
            draft.append((model.hyper_names[vid], *hm.triple(PRESENT),
                          hm.informative(PRESENT, model.tau)))
            if (violation := hm.sandwich_violation()) > 0:
                breaches.append((vid, violation))
        observed = tuple(model.hyper_names[v] for v in observed_ids)
        return cls(tuple(breaches), {selection: (theta, _select(observed, draft, selection, theta))})

    def report(self, selection: str, theta: float) -> PredictionReport:
        """The held report, or one selected anew from a held report's rows."""
        held = self.reports.get(selection)
        if held is None or held[0] != theta:
            _, known = next(iter(self.reports.values()))
            draft = [(r.hyper_name, r.necessity, r.probability, r.possibility, r.informative)
                     for r in known.rows]
            held = self.reports[selection] = (theta, _select(known.observed, draft,
                                                             selection, theta))
        return held[1]


def predict_attacks(model: PlanModel, observed: Iterable[str | int],
                    selection: str = PARAMS["selection"].default,
                    theta: float = PARAMS["theta"].default) -> PredictionReport:
    """Forecast unobserved hyper-alerts given the observed ones as evidence.

    Observation asserts `present`; unobserved steps are never asserted
    absent. `max` selects the informative node(s) of highest probability;
    `threshold` selects every informative node with probability >= theta.
    Each observed set is calibrated once: `model.forecasts` keeps its
    report, which a repeated forecast returns as is.
    """
    check_params(selection=selection, theta=theta)
    observed_ids = sorted({model.var_of(h) for h in observed})
    row = np.full((1, len(model.hyper_names)), -1, dtype=np.intp)
    row[0, observed_ids] = PRESENT
    targets = tuple(np.flatnonzero(row[0] < 0).tolist())
    [forecast] = model.forecasts.recall(row, targets, lambda rows: [
        None if marginals is None else _Forecast.of(model, observed_ids, marginals,
                                                    selection, theta)
        for marginals in model.engine.solve(rows, targets)])
    if forecast is None:
        raise ImpossibleEvidenceError()
    if engine_log.isEnabledFor(logging.DEBUG):  # possibility.log_breaches' lines
        for variable, violation in forecast.breaches:
            engine_log.debug("post-propagation interval breach %.3g on variable %d",
                             violation, variable)
    return forecast.report(selection, theta)


# -- alert log I/O -------------------------------------------------------------

def load_alert_log(path: str) -> AlertLog:
    """CSV whose first non-blank record is the header
    timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type, then one
    alert per record, its cells stripped; the body is read by `read_table`,
    which names the first bad line."""
    with closing(csv_records(path)) as records:
        _, header = next(records, (0, None))
        if header is None or [h.strip() for h in header] != ALERT_LOG_HEADER.split(","):
            raise DataError(f"{path}: expected header {ALERT_LOG_HEADER!r}")
        body, _ = next(records, (0, None))  # the line the first alert starts on
    if not body:
        return AlertLog.of_records(())
    table, _ = read_table(path, AlertLog.NAMES, AlertLog.KINDS, _alert_row, "abort", log,
                          skiprows=body - 1, check=lambda cells: not (  # _alert_row's checks
                              NOT_TOKEN.search("\0".join(map("\0".join, cells)))
                              or "" in cells[0] or "" in cells[-1]))
    return AlertLog(table)


def _alert_row(rec: list[str]) -> list:
    """An alert record's row: its timestamp and its stripped fields, each a
    token, the sensor and attack type nonempty."""
    if len(rec) != 7:
        raise DataError(f"expected 7 fields, got {len(rec)}")
    try:
        ts = finite_float(rec[0])
    except ValueError:
        raise DataError(f"bad timestamp {rec[0]!r}") from None
    fields = [cell.strip() for cell in rec[1:]]
    if (bad := next(filter(NOT_TOKEN.search, fields), None)) is not None:
        raise DataError(f"field {bad!r} holds whitespace or a comma; sensors, "
                        f"addresses, ports and attack types must be tokens")
    if not fields[0] or not fields[-1]:
        raise DataError("sensor and attack_type are required")
    return [ts] + fields


def write_hyper_csv(hypers: Sequence[HyperAlert], path: str) -> None:
    """One row per hyper-alert, quoted as csv quotes it (a name holding a comma)."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "name", "size", "earliest"))
        writer.writerows((h.id, h.name, h.size, f"{h.earliest:.12g}") for h in hypers)

"""Network intrusion prediction: hyper-alerts, plan learning, forecasting.

Alerts are first clustered on all attributes except timestamps, then the
clusters are merged per attack-plan step (by attack type unless overridden).
Hyper-alert occurrences over fixed time slots train a binary network whose
conditional structure is read as the attack plan.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
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
    bad_row,
    check_params,
    csv_records,
    finite_float,
    open_output,
)
from .features import category_states, encode
from .learning import DiscreteDataset, fit_cpts, k2_search
from .possibility import Classification, ClassifierModel, HybridPropagator

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


# phase-1 cluster key: the sensor, then the attributes
_phase1_key = attrgetter("sensor", *ATTRIBUTE_FIELDS)


@dataclass(frozen=True)
class HyperAlert:
    """A cluster of alerts representing one step of an attack plan.

    attributes holds the values shared by every member; fields that differ
    across members after merging are blanked.
    """

    id: int
    name: str
    attributes: tuple[str, ...]
    members: tuple[AlertRecord, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def earliest(self) -> float:
        return min(a.timestamp for a in self.members)


def aggregate_alerts(log_records: Sequence[AlertRecord],
                     merge_key: str = "attack_type") -> list[HyperAlert]:
    """Two-phase aggregation into hyper-alerts.

    Phase 1 groups alerts identical in (sensor, src_ip, src_port, dst_ip,
    dst_port, attack_type); phase 2 merges phase-1 clusters that share the
    merge key, which names the attack-plan step (EMPTY_STATE for an empty
    key, as names cannot be empty). Ids follow first occurrence.
    """
    if merge_key not in ATTRIBUTE_FIELDS:
        raise ValueError(f"merge key must be one of {ATTRIBUTE_FIELDS}")

    phase1: dict[tuple, list[AlertRecord]] = {}
    for alert in log_records:
        phase1.setdefault(_phase1_key(alert), []).append(alert)

    place = 1 + ATTRIBUTE_FIELDS.index(merge_key)  # the merge key's place in a phase-1 key
    merged: dict[str, list[tuple]] = {}
    for key in phase1:
        merged.setdefault(key[place] or EMPTY_STATE, []).append(key)

    out: list[HyperAlert] = []
    for hid, (step, keys) in enumerate(merged.items()):
        # a member's attributes are its cluster key's, so the keys give the shared ones
        shared = tuple(values[0] if len(set(values)) == 1 else ""
                       for values in list(zip(*keys))[1:])
        members = tuple(a for key in keys for a in phase1[key])
        out.append(HyperAlert(id=hid, name=step, attributes=shared, members=members))
    return out


def phase1_cluster_count(log_records: Sequence[AlertRecord]) -> int:
    """Number of clusters before the plan-step merge (for reporting)."""
    return len(set(map(_phase1_key, log_records)))


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
    alerts = [a for h in hypers for a in h.members]
    columns = ATTRIBUTE_FIELDS + (CLASS_COLUMN,)
    variables = []
    data = np.empty((len(alerts), len(columns)), dtype=np.int64)
    for cid, name in enumerate(columns):
        if name == CLASS_COLUMN:
            values = [h.name for h in hypers for _ in h.members]
        else:
            values = list(map(attrgetter(name), alerts))
            if "" in values:
                values = [v or EMPTY_STATE for v in values]
        states = category_states(name, values)
        variables.append(Variable(cid, name, states))
        index = {s: i for i, s in enumerate(states)}
        data[:, cid] = list(map(index.__getitem__, values))
    dataset = DiscreteDataset(tuple(variables), data)

    class_id = len(columns) - 1
    order = (class_id,) + tuple(range(class_id))
    net = fit_cpts(dataset, k2_search(dataset, order, max_parents), smoothing)
    return AlertClassifierModel(net=net, class_var=class_id, tau=tau)


def classify_alert(model: AlertClassifierModel, alert: AlertRecord) -> Classification:
    """Assert the alert's attributes as evidence; empty fields stay unobserved."""
    columns = [encode([value]) if (value := getattr(alert, f)) else None
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
    get_stamp = attrgetter("timestamp")
    stamps = np.fromiter((get_stamp(a) for h in hypers for a in h.members),
                         dtype=np.float64, count=sum(sizes))
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
    Every variable has the states OCCURRENCE; another net raises ValueError."""

    net: BayesNet
    tau: float

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
    observed: tuple[str, ...]
    rows: tuple[PredictionRow, ...]
    selection: str

    @property
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


def predict_attacks(model: PlanModel, observed: Iterable[str | int],
                    selection: str = PARAMS["selection"].default,
                    theta: float = PARAMS["theta"].default) -> PredictionReport:
    """Forecast unobserved hyper-alerts given the observed ones as evidence.

    Observation asserts `present`; unobserved steps are never asserted
    absent. `max` selects the informative node(s) of highest probability;
    `threshold` selects every informative node with probability >= theta.
    """
    check_params(selection=selection, theta=theta)
    observed_ids = sorted({model.var_of(h) for h in observed})
    evidence = {vid: PRESENT for vid in observed_ids}
    targets = [i for i in range(len(model.hyper_names)) if i not in observed_ids]

    marginals = model.engine.query(evidence, targets) if targets else {}
    draft = []
    for vid in targets:
        n, p, pi = marginals[vid].triple(PRESENT)
        informative = marginals[vid].informative(PRESENT, model.tau)
        draft.append([model.hyper_names[vid], n, p, pi, informative])

    if selection == "max":
        top = max((d[2] for d in draft if d[4]), default=None)
        flags = [d[4] and d[2] == top for d in draft]
    else:
        flags = [d[4] and d[2] >= theta for d in draft]

    rows = tuple(
        PredictionRow(name, n, p, pi, informative, selected)
        for (name, n, p, pi, informative), selected in zip(draft, flags)
    )
    return PredictionReport(
        observed=tuple(model.hyper_names[v] for v in observed_ids),
        rows=rows,
        selection=selection,
    )


# -- alert log I/O -------------------------------------------------------------

def load_alert_log(path: str) -> list[AlertRecord]:
    """CSV whose first non-blank record is the header
    timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type."""
    out: list[AlertRecord] = []
    records = csv_records(path)
    _, header = next(records, (0, None))
    if header is None or [h.strip() for h in header] != ALERT_LOG_HEADER.split(","):
        raise DataError(f"{path}: expected header {ALERT_LOG_HEADER!r}")
    for lineno, rec in records:
        try:
            if len(rec) != 7:
                raise DataError(f"expected 7 fields, got {len(rec)}")
            try:
                ts = finite_float(rec[0])
            except ValueError:
                raise DataError(f"bad timestamp {rec[0]!r}") from None
            fields = list(map(str.strip, rec[1:]))
            if NOT_TOKEN.search("\0".join(fields)):
                bad = next(f for f in fields if NOT_TOKEN.search(f))
                raise DataError(f"field {bad!r} holds whitespace or a comma; sensors, "
                                f"addresses, ports and attack types must be tokens")
            out.append(AlertRecord(ts, *fields))
        except ValueError as exc:  # DataError, or AlertRecord's own checks
            bad_row(path, lineno, exc, "abort", log)
    return out


def write_hyper_csv(hypers: Sequence[HyperAlert], path: str) -> None:
    """One row per hyper-alert, quoted as csv quotes it (a name holding a comma)."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "name", "size", "earliest"))
        writer.writerows((h.id, h.name, h.size, f"{h.earliest:.12g}") for h in hypers)

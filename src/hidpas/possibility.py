"""Probability-to-possibility transformation, necessity, hybrid propagation, classification.

The transformation sorts the distribution, assigns each state the sum of all
probabilities not larger than its own (grouped so ties share one value), and
maps the results back to the original positions. On strictly decreasing
distributions this equals the closed-form power transform; the tail-sum form
extends it continuously to ties and zeros.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import BayesNet, Variable
from .jtree import (
    MAX_MIN,
    SUM_PRODUCT,
    JunctionTree,
    Potential,
    build_tree_for_net,
    evidence_matrix,
    initialize_potentials,
    net_factors,
    propagate,
    query_marginal,
)

log = logging.getLogger(__name__)

ZERO_GUARD = 1e-12  # probabilities below this are treated as exact zeros
NORM_TOL = 1e-9
# Targets one model's memo keeps answers for, a classifier's decisions or a
# plan's forecasts, an entry weighing one per target (at least one); the
# oldest entry goes first. A detector entry takes about 1.2 KB. A plan entry
# holds a report, about 230 B per target, and once the report is sent its
# JSON text, about 210 B more (bench seed 7, tracemalloc); a second
# selection asked of the set doubles that. So a full memo holds 4-10 MB.
MEMO_MARGINALS = 2 ** 13
# Cluster table entries one engine calibrates at once: `solve` takes its
# rows in chunks of this many entries, so its memory does not grow with
# the batch.
ENTRY_BUDGET = 2 ** 16
# CPT entries `transformed_factors` transforms at once: the kernel holds a
# few temporaries per entry, so they stay bounded whatever the net's size.
TRANSFORM_BUDGET = 2 ** 13


class ImpossibleEvidenceError(RuntimeError):
    """Evidence of probability or possibility zero under a net, which
    `HybridPropagator.solve` answers None; `HybridPropagator.query` and
    `predict_attacks` raise it."""

    def __init__(self, message: str = "evidence has zero probability/possibility in this network"):
        super().__init__(message)


def prob_to_poss(p: Sequence[float]) -> np.ndarray:
    """Transform a probability distribution into a possibility distribution.

    The top-ranked state gets exactly 1; every other state gets the sum of
    all probabilities at or below its own (equal probabilities share equal
    possibility); exact zeros stay zero. Output is order-preserving and
    satisfies necessity(pi) <= p <= pi statewise.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty probability vector")
    _check_row(arr)
    return _poss_rows(arr[np.newaxis])[0]


def _check_row(row: np.ndarray) -> None:
    """Raise the ValueError of a row that is not a distribution: a negative
    entry, a sum off 1 (fsum, so the test is exact), or no entry at or
    above the zero guard."""
    if np.any(row < 0):
        raise ValueError("probabilities must be >= 0")
    total = math.fsum(row.tolist())
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    if not row.max() >= ZERO_GUARD:
        raise ValueError("distribution has no mass above the zero guard")


def _suspect_rows(table: np.ndarray) -> np.ndarray:
    """Rows of a (rows, states) table that `_check_row` may reject; it
    passes every other row. A float sum of n entries of a row summing near
    1 is off its exact value by under n * 2**-50, so the band is that wide."""
    margin = table.shape[1] * 2.0 ** -50
    return ((table < 0).any(axis=1)
            | ~(np.abs(table.sum(axis=1) - 1.0) <= NORM_TOL - margin)
            | ~(table.max(axis=1) >= ZERO_GUARD))


_HALF = 46  # bits per limb of the exact prefix sums


def _poss_rows(table: np.ndarray) -> np.ndarray:
    """`prob_to_poss` of every row of a (rows, states) table of checked rows,
    bit for bit. Entries below ZERO_GUARD sort first, so zeroing them after
    the sort keeps each row sorted."""
    order = np.argsort(table, axis=1, kind="stable")
    ranked = np.take_along_axis(table, order, axis=1)
    ranked[ranked < ZERO_GUARD] = 0.0
    poss = np.minimum(_tail_sums(ranked), 1.0)
    top = ranked[:, -1:]
    poss[ranked == top] = 1.0
    if ranked.shape[1] > 1:
        # A unique top state carries the only positive necessity, which is
        # 1 - (second possibility). That value must not exceed the top
        # state's probability, so the second level is floored at the
        # smallest float >= 1 - top; inputs summing slightly under 1 would
        # otherwise breach the necessity <= probability bound. 1 - floor is
        # exact, so the residual below is the exact rounding error of floor.
        second = ranked[:, -2:-1]
        floor = 1.0 - top
        floor = np.where((1.0 - floor) - top > 0, np.nextafter(floor, np.inf), floor)
        lift = (second != top) & (ranked == second)
        poss = np.where(lift, np.minimum(np.maximum(poss, floor), 1.0), poss)
    out = np.empty_like(poss)
    np.put_along_axis(out, order, poss, axis=1)
    return out


def _tail_sums(ranked: np.ndarray) -> np.ndarray:
    """Each entry's tail sum in rows sorted ascending: the sum of the row up
    to the end of its tie group, exact and rounded once, as fsum rounds it.

    The sum is exact in two int64 limbs: a nonzero entry is at least
    ZERO_GUARD > 2**-40 and below 2, so it is an integer multiple of 2**-92
    below 2**93, and splits at 2**-46 into two integers below 2**47.
    """
    scaled = np.ldexp(ranked, _HALF)
    high = np.floor(scaled)
    low = np.cumsum(np.ldexp(scaled - high, _HALF).astype(np.int64), axis=1)
    high = np.cumsum(high.astype(np.int64), axis=1) + (low >> _HALF)
    low &= (1 << _HALF) - 1
    sums = np.ldexp(high.astype(float), -_HALF) + np.ldexp(low.astype(float), -2 * _HALF)
    states = ranked.shape[1]
    group_end = np.full(ranked.shape, states - 1)
    group_end[:, :-1] = np.where(ranked[:, 1:] != ranked[:, :-1], np.arange(states - 1), states)
    group_end = np.minimum.accumulate(group_end[:, ::-1], axis=1)[:, ::-1]
    return np.take_along_axis(sums, group_end, axis=1)


def necessity(pi: Sequence[float] | np.ndarray) -> np.ndarray:
    """Necessity of each singleton state: 1 - max possibility of the others.

    Takes one possibility vector, or a (rows, states) array of them.
    """
    arr = np.asarray(pi, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError("expected a nonempty possibility vector")
    if arr.shape[-1] == 1:
        return np.ones_like(arr)
    ranked = np.sort(arr, axis=-1)
    top, second = ranked[..., -1:], ranked[..., -2:-1]
    # a tied top has second == top, so which top state is excluded is moot
    return np.maximum(1.0 - np.where(arr == top, second, top), 0.0)


@dataclass(frozen=True)
class HybridMarginal:
    """Per-state (necessity, probability, possibility) for one query variable."""

    variable: int
    necessity: tuple[float, ...]
    probability: tuple[float, ...]
    possibility: tuple[float, ...]

    def __post_init__(self):
        for name in ("necessity", "probability", "possibility"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        n = len(self.probability)
        if len(self.necessity) != n or len(self.possibility) != n:
            raise ValueError("component lengths differ")
        for nec, pos in zip(self.necessity, self.possibility):
            if not 0.0 <= nec <= pos <= 1.0:
                raise ValueError(f"necessity {nec} / possibility {pos} out of order")
        if abs(math.fsum(self.probability) - 1.0) > NORM_TOL:
            raise ValueError("probabilities do not sum to 1")
        if abs(max(self.possibility) - 1.0) > NORM_TOL:
            raise ValueError("possibilities are not normalized to max 1")

    @property
    def arity(self) -> int:
        return len(self.probability)

    def triple(self, state: int) -> tuple[float, float, float]:
        return (self.necessity[state], self.probability[state], self.possibility[state])

    def gap(self, state: int) -> float:
        return self.possibility[state] - self.necessity[state]

    def informative(self, state: int, tau: float) -> bool:
        return self.gap(state) <= tau

    def sandwich_violation(self) -> float:
        """Largest statewise breach of necessity <= probability <= possibility."""
        worst = 0.0
        for n, p, pi in zip(self.necessity, self.probability, self.possibility):
            worst = max(worst, n - p, p - pi)
        return max(worst, 0.0)


def select_state(marginal: HybridMarginal, tau: float) -> tuple[int, bool]:
    """Most probable informative state, the lowest index on ties; when no
    state is informative, the plain argmax flagged uninformative (True)."""
    informative = [k for k, (n, pi) in enumerate(zip(marginal.necessity, marginal.possibility))
                   if pi - n <= tau]  # HybridMarginal.informative, without a call per state
    pool = informative or range(marginal.arity)
    return max(pool, key=marginal.probability.__getitem__), not informative


def transformed_factors(net: BayesNet) -> list[Potential]:
    """Possibilistic twin of a net: every CPT row transformed independently.

    The rows of one arity across the whole net are stacked and transformed
    together, TRANSFORM_BUDGET entries at a time. They are checked in
    variable order, then row order, and the first bad row raises as
    `prob_to_poss` raises on it alone.
    """
    tables = net.cpts
    bad = next((i for i, t in enumerate(tables) if t.ndim != 2 or t.shape[1] == 0),
               len(tables))
    groups: dict[int, list[int]] = {}
    for i in range(bad):
        groups.setdefault(tables[i].shape[1], []).append(i)
    stacked, suspects = {}, []
    for arity, members in groups.items():
        rows = stacked[arity] = np.concatenate([tables[i] for i in members])
        lengths = [len(tables[i]) for i in members]
        owner = np.repeat(members, lengths)
        local = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        found = np.flatnonzero(_suspect_rows(rows))
        suspects += zip(owner[found].tolist(), local[found].tolist())
    for i, row in sorted(suspects):
        _check_row(tables[i][row])
    if bad < len(tables):
        raise ValueError("expected a nonempty probability vector")

    poss: list[np.ndarray] = [None] * len(tables)
    for arity, members in groups.items():
        rows, step = stacked[arity], max(1, TRANSFORM_BUDGET // arity)
        for start in range(0, len(rows), step):
            rows[start:start + step] = _poss_rows(rows[start:start + step])
        ends = np.cumsum([len(tables[i]) for i in members])
        for i, part in zip(members, np.split(rows, ends[:-1])):
            poss[i] = part
    return [Potential((*net.dag.parents[v], v), rows.reshape(net.dag.cpt_shape(v)))
            for v, rows in enumerate(poss)]


class Memo(dict):
    """A model's answers (`ClassifierModel.decisions`, `PlanModel.forecasts`)
    keyed by (evidence row bytes, targets), oldest first: past MEMO_MARGINALS
    in all, the oldest entries go. It is not locked, so threads must not
    share one."""

    weight = 0

    def recall(self, observed: np.ndarray, targets: tuple[int, ...], solve) -> list:
        """The answer for each row of an evidence matrix: a remembered one,
        or, for the distinct rows not remembered, the answers of one
        solve(rows) call over those rows, which are then remembered; solve
        checks each row first, so a bad row raises even among remembered ones."""
        keys = [(row.tobytes(), targets) for row in observed]
        found, misses = {}, {}
        for row, key in enumerate(keys):
            if key in self:
                found[key] = self[key]
            else:
                misses.setdefault(key, row)
        if misses:
            for key, answer in zip(misses, solve(observed[list(misses.values())])):
                found[key] = self[key] = answer
                self.weight += max(1, len(targets))
            while self.weight > MEMO_MARGINALS:
                oldest = next(iter(self))
                del self[oldest]
                self.weight -= max(1, len(oldest[1]))
        return [found[key] for key in keys]


def log_breaches(marginals: Iterable[HybridMarginal]) -> None:
    """At DEBUG level, log each marginal whose interval misses its probability."""
    if log.isEnabledFor(logging.DEBUG):
        for hm in marginals:
            if (violation := hm.sandwich_violation()) > 0:
                log.debug("post-propagation interval breach %.3g on variable %d",
                          violation, hm.variable)


class HybridPropagator:
    """The hybrid engine of one net: its tree structure, one calibration
    plan and both factor sets, built once.

    Step 1 transforms every CPT row, step 2 builds a single junction tree,
    step 3 runs sum-product and max-min calibration under the same evidence.
    The engine keeps no answers; the models that answer through it memoize
    theirs.
    """

    def __init__(self, net: BayesNet):
        self.net = net
        self.structure: JunctionTree = build_tree_for_net(net)
        self._prob = initialize_potentials(self.structure, net_factors(net), SUM_PRODUCT)
        self._poss = initialize_potentials(self._prob, transformed_factors(net), MAX_MIN)

    def query(self, evidence: Mapping[int, int] | None,
              targets: Sequence[int]) -> dict[int, HybridMarginal]:
        """`solve` on the one row of an evidence dict; raises
        ImpossibleEvidenceError where `solve` answers None."""
        [marginals] = self.solve(evidence_matrix(self._prob, [evidence]), tuple(targets))
        if marginals is None:
            raise ImpossibleEvidenceError()
        return marginals

    def solve(self, observed: np.ndarray, targets: tuple[int, ...]
              ) -> list[dict[int, HybridMarginal] | None]:
        """One dict of marginals per evidence-matrix row, None where its
        evidence has zero mass, each row as if solved alone, bit for bit:
        the rows pruned to the targets' read-out clusters, one calibration
        per semiring for every ENTRY_BUDGET table entries. A matrix of no
        rows is still checked, as one empty batch."""
        step = max(1, ENTRY_BUDGET // self._prob.plan.entries)
        return [answer for start in range(0, max(1, len(observed)), step)
                for answer in self._calibrate(observed[start:start + step], targets)]

    def _calibrate(self, observed: np.ndarray, targets: tuple[int, ...]
                   ) -> list[dict[int, HybridMarginal] | None]:
        """Both semirings over the rows of an evidence matrix, in one batch each."""
        prob_cal = propagate(self._prob, observed, targets)
        poss_cal = propagate(self._poss, observed, targets)
        columns = []
        for var in targets:
            p = query_marginal(prob_cal, var)
            pi = query_marginal(poss_cal, var)
            columns.append((var, necessity(pi).tolist(), p.tolist(), pi.tolist()))
        return [{var: HybridMarginal(var, n[row], p[row], pi[row])
                 for var, n, p, pi in columns} if possible else None
                for row, possible in enumerate((prob_cal.possible & poss_cal.possible).tolist())]


@dataclass(frozen=True)
class Classification:
    """The state chosen for a class variable, with its hybrid marginal."""

    label: str
    state: int
    marginal: HybridMarginal
    low_confidence: bool = False
    unknown_values: tuple[str, ...] = ()

    @property
    def triple(self) -> tuple[float, float, float]:
        return self.marginal.triple(self.state)


@dataclass(frozen=True)
class ClassifierModel:
    """A net read as a classifier of its class variable, with the gap
    threshold of `select_state`.

    Its evidence fields are the net's variables other than the class, in id
    order, each (name, variable id, column in a row, rule). The rule is a
    threshold, below which a value asserts state 0 and otherwise state 1, or
    the variable's state map. `_field` gives each field its column and rule;
    a subclass overrides it to check the fields, raising ValueError for a
    model it cannot read. `decisions` memoizes `classify` per evidence row;
    a copy made by `dataclasses.replace` starts with an empty one."""

    net: BayesNet
    class_var: int
    tau: float
    fields: tuple[tuple[str, int, int, float | dict[str, int]], ...] = field(
        init=False, repr=False, compare=False)
    decisions: Memo = field(default_factory=Memo, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.net.variable(self.class_var)
        variables = [v for v in self.net.dag.variables if v.id != self.class_var]
        object.__setattr__(self, "fields", tuple(
            (var.name, var.id, *self._field(var, place)) for place, var in enumerate(variables)))

    def _field(self, var: Variable, place: int) -> tuple[int, float | dict[str, int]]:
        """The column and rule of var's field, the place-th field: by default
        the column is that place and the rule var's state map."""
        return place, var.state_index()

    @cached_property
    def engine(self) -> HybridPropagator:
        return HybridPropagator(self.net)

    def encode(self, rows: int, columns: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """The evidence matrix of rows held by column, and per row (an object
        array) the `name=value` texts of its values that a state map lacks.
        columns[c] is column c: for a threshold field a float array, a value
        below the threshold asserting state 0 and any other state 1; for a
        state-map field (cells, codes), row r holding cells[codes[r]]; or
        None, a column no row observes."""
        observed = np.full((rows, len(self.net.dag.variables)), -1, dtype=np.intp)
        unknown = np.empty(rows, dtype=object)
        unknown.fill(())
        for name, var, column, rule in self.fields:
            if columns[column] is None:
                continue
            if not isinstance(rule, dict):
                observed[:, var] = np.where(columns[column] < rule, 0, 1)
                continue
            cells, codes = columns[column]
            states = np.array([rule.get(cell, -1) for cell in cells], dtype=np.intp)[codes]
            observed[:, var] = states
            for row in np.flatnonzero(states < 0).tolist():
                unknown[row] += (f"{name}={cells[codes[row]]}",)
        return observed, unknown

    def classify(self, observed: np.ndarray, unknown: Sequence[tuple[str, ...]],
                 logger: logging.Logger) -> list[Classification]:
        """Classify the rows of an evidence matrix made by `encode`, given
        each row's unknown values; each result equals the row classified
        alone.

        The decision for each evidence row is memoized: the distinct rows
        not in `decisions` are calibrated together by the engine's `solve`,
        and rows that repeat share one `Classification`, copied only to
        carry a row's unknown values. A row whose evidence has zero mass
        under the model gets the `prior` instead, with a warning on the
        caller's logger.
        """
        targets = (self.class_var,)
        decisions = self.decisions.recall(observed, targets, lambda rows: [
            None if posterior is None else self._decide(posterior[self.class_var])
            for posterior in self.engine.solve(rows, targets)])
        results = []
        for missed, decision in zip(unknown, decisions):
            if decision is None:
                logger.warning("impossible evidence for record; falling back to prior")
                decision = self.prior
            results.append(replace(decision, unknown_values=missed) if missed else decision)
        log_breaches(result.marginal for result in results)
        return results

    @cached_property
    def prior(self) -> Classification:
        """The decision on no evidence, flagged low-confidence: the one
        `classify` gives a row of zero mass."""
        return self._decide(self.engine.query({}, (self.class_var,))[self.class_var], True)

    def _decide(self, marginal: HybridMarginal, low: bool = False) -> Classification:
        state, uninformative = select_state(marginal, self.tau)
        return Classification(self.net.variable(self.class_var).states[state], state,
                              marginal, low or uninformative)

"""Probability-to-possibility transformation, necessity, hybrid propagation.

The transformation sorts the distribution, assigns each state the sum of all
probabilities not larger than its own (grouped so ties share one value), and
maps the results back to the original positions. On strictly decreasing
distributions this equals the closed-form power transform; the tail-sum form
extends it continuously to ties and zeros.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import BayesNet
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
# Marginals one engine keeps memoized, an entry weighing one per target (at
# least one); the oldest entry goes first. A detector entry takes about
# 1.2 KB, a plan marginal about 620 B, so a full memo holds 5-10 MB.
MEMO_MARGINALS = 2 ** 13
# Cluster table entries one engine calibrates at once: `query_batch` takes
# its rows in chunks of this many entries, so its memory does not grow with
# the batch.
ENTRY_BUDGET = 2 ** 16
# CPT entries `transformed_factors` transforms at once: the kernel holds a
# few temporaries per entry, so they stay bounded whatever the net's size.
TRANSFORM_BUDGET = 2 ** 13


class ImpossibleEvidenceError(RuntimeError):
    """The asserted evidence has probability / possibility zero; raised by
    `HybridPropagator.query`."""


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
    informative = [k for k in range(marginal.arity) if marginal.informative(k, tau)]
    pool = informative or range(marginal.arity)
    return max(pool, key=marginal.probability.__getitem__), not informative


def transformed_factors(net: BayesNet) -> list[Potential]:
    """Possibilistic twin of a net: every CPT row transformed independently.

    The rows of one arity across the whole net are stacked and transformed
    together, TRANSFORM_BUDGET entries at a time. They are checked in
    variable order, then row order, and the first bad row raises as
    `prob_to_poss` raises on it alone.
    """
    tables = [net.cpts[var.id].table for var in net.dag.variables]
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
    out = []
    for var, rows in zip(net.dag.variables, poss):
        cpt = net.cpts[var.id]
        shape = tuple(net.dag.arity(p) for p in cpt.parents) + (var.arity,)
        out.append(Potential(cpt.parents + (var.id,), rows.reshape(shape)))
    return out


class HybridPropagator:
    """Caches the shared tree structure, its one calibration plan and both
    factor sets for one net.

    Step 1 transforms every CPT row, step 2 builds a single junction tree,
    step 3 runs sum-product and max-min calibration under the same evidence.
    Answers are memoized per (evidence row, targets); the memo is not
    locked, so threads must not share an engine.
    """

    def __init__(self, net: BayesNet):
        self.net = net
        self.structure: JunctionTree = build_tree_for_net(net)
        self._prob = initialize_potentials(self.structure, net_factors(net), SUM_PRODUCT)
        self._poss = initialize_potentials(self._prob, transformed_factors(net), MAX_MIN)
        self._memo: dict[tuple[bytes, tuple[int, ...]], dict[int, HybridMarginal] | None] = {}
        self._memo_weight = 0

    def query(self, evidence: Mapping[int, int] | None,
              targets: Sequence[int]) -> dict[int, HybridMarginal]:
        """The batch of one; raises ImpossibleEvidenceError where
        `query_batch` answers None."""
        [marginals] = self.query_batch([evidence], targets)
        if marginals is None:
            raise ImpossibleEvidenceError(
                "evidence has zero probability/possibility in this network")
        return marginals

    def query_batch(self, evidence: Sequence[Mapping[int, int] | None],
                    targets: Sequence[int]) -> list[dict[int, HybridMarginal] | None]:
        """One dict of marginals per evidence row, or None for a row whose
        evidence has zero probability or possibility. Each row equals `query`
        on that row alone, bit for bit.

        Rows already answered for these targets come from the memo; the
        distinct others are calibrated together, pruned to the targets'
        read-out clusters, one calibration per semiring for every
        ENTRY_BUDGET table entries. Only checked rows enter the memo, so a
        bad row is always calibrated, and raises, even among cached ones.
        Each caller gets its own dicts.
        """
        targets = tuple(targets)
        observed = evidence_matrix(self._prob, evidence)
        keys = [(row.tobytes(), targets) for row in observed]
        found = {}
        misses: dict[tuple[bytes, tuple[int, ...]], int] = {}  # key -> its first row
        for row, key in enumerate(keys):
            if key in self._memo:
                found[key] = self._memo[key]
            else:
                misses.setdefault(key, row)
        missed = list(misses.items())
        step = max(1, ENTRY_BUDGET // self._prob.plan.entries)
        for start in range(0, len(missed), step):
            chunk = missed[start:start + step]
            answers = self._calibrate(observed[[row for _, row in chunk]], targets)
            for (key, _), marginals in zip(chunk, answers):
                found[key] = marginals
                self._remember(key, marginals)

        debug = log.isEnabledFor(logging.DEBUG)
        out: list[dict[int, HybridMarginal] | None] = []
        for key in keys:
            marginals = found[key]
            if marginals is not None:
                marginals = dict(marginals)
                if debug:
                    for var, hm in marginals.items():
                        if (violation := hm.sandwich_violation()) > 0:
                            log.debug("post-propagation interval breach %.3g on variable %d",
                                      violation, var)
            out.append(marginals)
        return out

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

    def _remember(self, key: tuple[bytes, tuple[int, ...]],
                  marginals: dict[int, HybridMarginal] | None) -> None:
        self._memo[key] = marginals
        self._memo_weight += max(1, len(key[1]))
        while self._memo_weight > MEMO_MARGINALS:
            oldest = next(iter(self._memo))
            del self._memo[oldest]
            self._memo_weight -= max(1, len(oldest[1]))


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


def classify(engine: HybridPropagator, class_var: int, tau: float,
             rows: Sequence[tuple[Mapping[int, int], Sequence[str]]],
             logger: logging.Logger) -> list[Classification]:
    """Classify encoded rows, each (evidence, unknown values), through one
    batched query; each result equals the row classified alone.

    A row whose evidence has zero mass under the model gets the class prior
    instead, flagged low-confidence, with a warning on the caller's logger.
    """
    posteriors = engine.query_batch([evidence for evidence, _ in rows], [class_var])
    states = engine.net.variable(class_var).states
    prior = None
    results = []
    for (_, unknown), posterior in zip(rows, posteriors):
        if posterior is None:
            logger.warning("impossible evidence for record; falling back to prior")
            if prior is None:
                prior = engine.query({}, [class_var])[class_var]
            marginal, low = prior, True
        else:
            marginal, low = posterior[class_var], False
        state, uninformative = select_state(marginal, tau)
        results.append(Classification(
            label=states[state],
            state=state,
            marginal=marginal,
            low_confidence=low or uninformative,
            unknown_values=tuple(unknown),
        ))
    return results

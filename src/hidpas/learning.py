"""Structure learning (K2 greedy search) and CPT parameter fitting.

Scores are computed in log space with log-gamma sums; the raw factorial
form overflows long before realistic dataset sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BayesNet, Cpt, Dag, Variable

SCORE_EPS = 1e-12  # a candidate parent must beat the current score by this
ENTRY_BUDGET = 1 << 14  # array entries per K2 scoring chunk; bounds its working memory


@dataclass(frozen=True)
class DiscreteDataset:
    """Fully observed discrete data: one Variable per column, int state rows."""

    variables: tuple[Variable, ...]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.variables):
            if rows.size == 0:
                rows = rows.reshape(0, len(self.variables))
            else:
                raise ValueError(
                    f"rows shape {rows.shape} does not match {len(self.variables)} columns"
                )
        for i, var in enumerate(self.variables):
            if rows.shape[0] and int(rows[:, i].max(initial=0)) >= var.arity:
                raise ValueError(f"column {var.name} holds a state index >= arity {var.arity}")
            if rows.shape[0] and int(rows[:, i].min(initial=0)) < 0:
                raise ValueError(f"column {var.name} holds a negative state index")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def row_count(self) -> int:
        return int(self.rows.shape[0])

    def column_index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise ValueError(f"no column named {name!r}")


@dataclass(frozen=True)
class CountStatistics:
    """Frequency counts for one variable under a parent set.

    counts has shape (q, r): parent configurations (row-major, last parent
    fastest) by child states. marginals are the per-configuration totals.
    """

    variable: int
    parents: tuple[int, ...]
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def marginals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def arity(self) -> int:
        return int(self.counts.shape[1])


@dataclass(frozen=True)
class LearnConfig:
    order: tuple[int, ...]
    max_parents: int = 2
    smoothing: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if self.max_parents < 0:
            raise ValueError("max_parents must be >= 0")
        if self.smoothing < 0:
            raise ValueError("smoothing must be >= 0")


def count_statistics(
    data: DiscreteDataset, var: int, parents: Sequence[int]
) -> CountStatistics:
    """Exact N_ijk counts; configurations never seen in the data count 0."""
    n_cols = len(data.variables)
    parents = tuple(parents)
    if not 0 <= var < n_cols:
        raise ValueError(f"unknown column id {var}")
    for p in parents:
        if not 0 <= p < n_cols:
            raise ValueError(f"unknown column id {p}")
    if var in parents:
        raise ValueError("variable cannot be its own parent")

    r = data.variables[var].arity
    q = 1
    for p in parents:
        q *= data.variables[p].arity

    if data.row_count == 0:
        return CountStatistics(var, parents, np.zeros((q, r), dtype=np.int64))

    cfg = np.zeros(data.row_count, dtype=np.int64)
    for p in parents:
        cfg = cfg * data.variables[p].arity + data.rows[:, p]
    flat = np.bincount(cfg * r + data.rows[:, var], minlength=q * r)
    return CountStatistics(var, parents, flat.reshape(q, r))


def lgamma_table(size: int) -> np.ndarray:
    """math.lgamma(i) for i in 0..size-1; entry 0, a pole, holds 0.0 and is never read."""
    table = np.zeros(size)
    table[1:] = [math.lgamma(i) for i in range(1, size)]
    return table


def k2_log_scores(counts: np.ndarray, lgamma: np.ndarray) -> np.ndarray:
    """K2 local log scores of G count tables, given as counts of shape (G, Q, r).

    lgamma must cover 0..N + r for the largest table total N. Per
    configuration j the terms are lgamma(r) - lgamma(N_j + r), then
    lgamma(N_jk + 1) for each state k, added one at a time in row-major
    order: np.add.accumulate keeps that order, where np.sum's pairwise
    summation would change the last bits and could flip K2 ties. Empty
    configurations and counts of 0 or 1 give exact 0.0 terms, so every score
    equals the plain per-term loop bit for bit. Configurations are taken in
    chunks of about ENTRY_BUDGET terms, the running sum carried between them.
    """
    g, q, r = counts.shape
    step = max(1, ENTRY_BUDGET // (g * (r + 1)))
    total = np.zeros((g, 1))
    for start in range(0, q, step):
        block = counts[:, start:start + step]
        terms = np.empty(block.shape[:2] + (r + 1,))
        terms[..., 0] = lgamma[r] - lgamma[block.sum(axis=2) + r]
        terms[..., 1:] = lgamma[block + 1]
        terms = np.concatenate([total, terms.reshape(g, -1)], axis=1)
        total = np.add.accumulate(terms, axis=1)[:, -1:]
    return total[:, 0]


def k2_local_log_score(stats: CountStatistics) -> float:
    """Natural log of the local marginal-likelihood score.

    Per configuration j: lgamma(r) - lgamma(N_j + r) + sum_k lgamma(N_jk + 1).
    Zero-count configurations contribute exactly 0.
    """
    lgamma = lgamma_table(int(stats.counts.sum()) + stats.arity + 1)
    return float(k2_log_scores(stats.counts[None], lgamma)[0])


def _candidate_scores(columns: np.ndarray, arities: list[int], var: int, cfg: np.ndarray,
                      q: int, candidates: list[int], lgamma: np.ndarray) -> np.ndarray:
    """Scores of var's parents, encoded per row in cfg (q configurations),
    plus each candidate as the last parent; aligned with candidates.

    columns holds the data column by column. Candidates of one arity are
    counted together by one np.bincount, each offset into its own table, in
    chunks of at most ENTRY_BUDGET keys or table entries (at least one
    candidate per chunk).
    """
    n_rows = columns.shape[1]
    r = arities[var]
    scores = np.empty(len(candidates))
    by_arity: dict[int, list[int]] = {}
    for i, c in enumerate(candidates):
        by_arity.setdefault(arities[c], []).append(i)
    for a, idx in by_arity.items():
        span = q * a * r
        size = min(len(idx), max(1, ENTRY_BUDGET // max(n_rows, q * a * (r + 1))))
        # key of row n for the i-th candidate c of a chunk:
        # i * span + (cfg[n] * a + columns[c, n]) * r + columns[var, n]
        base = cfg * (a * r) + columns[var] + np.arange(0, size * span, span)[:, None]
        for start in range(0, len(idx), size):
            part = idx[start:start + size]
            keys = np.multiply(columns[[candidates[i] for i in part]], r, dtype=np.int64)
            keys += base[:len(part)]
            counts = np.bincount(keys.ravel(), minlength=len(part) * span)
            scores[part] = k2_log_scores(counts.reshape(len(part), q * a, r), lgamma)
            del counts  # so that two count tables are never held at once
    return scores


def k2_search(data: DiscreteDataset, config: LearnConfig) -> Dag:
    """Greedy parent selection along a fixed variable ordering.

    For each variable, repeatedly add the single earlier-order candidate that
    most increases the local log score; stop when no candidate strictly
    increases it or the parent budget is exhausted. Among candidates whose
    scores are bit-equal the lowest variable id wins. Scores that are equal
    only mathematically are not ties: a binary column and its complement
    give the same count table with rows swapped, summed in another order,
    so the last bit of rounding picks between them, whichever id is lower.

    Every score is summed sequentially in row-major order (k2_log_scores), so
    it is bit-identical to k2_local_log_score on count_statistics's table for
    the same parents, and so are the ties and the learned structure.
    """
    n = len(data.variables)
    if sorted(config.order) != list(range(n)):
        raise ValueError("order must be a permutation of the dataset column ids")
    if config.max_parents >= n > 0:
        raise ValueError("max_parents must be < variable count")

    arities = [v.arity for v in data.variables]
    max_arity = max(arities, default=1)
    # column-major and in the smallest integer type, so gathering candidates is cheap
    columns = data.rows.T.astype(np.min_scalar_type(max_arity - 1))
    lgamma = lgamma_table(data.row_count + max_arity + 1)
    parent_sets: list[tuple[int, ...]] = [()] * n
    for pos, var in enumerate(config.order):
        r = arities[var]
        candidates = sorted(config.order[:pos])
        parents: list[int] = []
        cfg = np.zeros(data.row_count, dtype=np.int64)  # parent configuration per row
        q = 1
        counts = np.bincount(data.rows[:, var], minlength=r).reshape(1, 1, r)
        current = float(k2_log_scores(counts, lgamma)[0])
        while len(parents) < config.max_parents and candidates:
            scores = _candidate_scores(columns, arities, var, cfg, q, candidates, lgamma)
            i = int(np.argmax(scores))  # the first maximum: lowest id wins ties
            if scores[i] > current + SCORE_EPS:
                best = candidates.pop(i)
                parents.append(best)
                cfg = cfg * arities[best] + data.rows[:, best]
                q *= arities[best]
                current = float(scores[i])
            else:
                break
        parent_sets[var] = tuple(parents)
    return Dag(variables=data.variables, parents=tuple(parent_sets))


def fit_cpts(data: DiscreteDataset, dag: Dag, smoothing: float = 1.0) -> BayesNet:
    """Smoothed frequency CPTs: (N_jk + s) / (N_j + r*s), uniform when both 0."""
    if tuple(v.name for v in dag.variables) != tuple(v.name for v in data.variables):
        raise ValueError("dag variables do not match dataset columns")
    cpts = []
    for var in dag.variables:
        stats = count_statistics(data, var.id, dag.parents[var.id])
        counts = stats.counts.astype(float)
        r = var.arity
        denom = stats.marginals.astype(float) + r * smoothing
        table = np.empty_like(counts)
        empty = denom == 0  # only possible with smoothing 0
        if np.any(~empty):
            table[~empty] = (counts[~empty] + smoothing) / denom[~empty, None]
        table[empty] = 1.0 / r
        cpts.append(Cpt(var.id, dag.parents[var.id], table))
    return BayesNet(dag=dag, cpts=tuple(cpts))

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
# Largest one-hot matrix, indicator matrix or product (in entries) that K2
# counts with a float32 matrix product. At most 2**24, so that every count,
# an integer no larger than the row count, is exact in float32.
PRODUCT_BUDGET = 1 << 20


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


def _by_arity(arities: list[int], candidates: list[int]) -> dict[int, list[int]]:
    """Positions in candidates, grouped by the candidate's arity."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(candidates):
        groups.setdefault(arities[c], []).append(i)
    return groups


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
    for a, idx in _by_arity(arities, candidates).items():
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


def _one_hot(data: DiscreteDataset, order: Sequence[int]) -> tuple[np.ndarray | None,
                                                                   np.ndarray]:
    """The float32 one-hot matrix of data for the product path, or None when
    its n * sum(a - 1) entries exceed PRODUCT_BUDGET, and each variable's
    first column in it.

    Variables take their columns in order, one per non-zero state, so the
    variables before var in the order are the prefix [:, :first[var]].
    """
    widths = [data.variables[v].arity - 1 for v in order]
    first = np.zeros(len(order), dtype=np.int64)
    first[list(order)] = np.cumsum([0] + widths)[:-1]
    if data.row_count * sum(widths) > PRODUCT_BUDGET:
        return None, first
    onehot = np.zeros((data.row_count, sum(widths)), dtype=np.float32)
    row_ids = np.arange(data.row_count)
    for v in order:
        hit = data.rows[:, v] > 0
        onehot[row_ids[hit], first[v] + data.rows[hit, v] - 1] = 1
    return onehot, first


def _product_tables(prefix: np.ndarray, first: np.ndarray, arities: list[int], var: int,
                    key: np.ndarray, q: int, candidates: list[int]):
    """Count tables of var's parents plus each candidate as the last parent,
    as one matrix product; yields (positions in candidates, tables) per
    candidate arity, tables of shape (C, q * a, r) as _candidate_scores counts.

    prefix is the one-hot matrix of the variables before var in the order
    (_one_hot); key holds cfg * r + var's state per row. With Z the (q * r, n)
    indicator of key, Z @ prefix counts N[cfg, var's state, c = s] for every
    state s >= 1 of every prefix variable c; state 0 is the rest of the
    key's total. Every product is 0 or 1 and every sum an integer no larger
    than n, so float32 counts them exactly for n <= 2**24.
    """
    n_rows = prefix.shape[0]
    r = arities[var]
    z = np.zeros((q * r, n_rows), dtype=np.float32)
    z[key, np.arange(n_rows)] = 1
    counts = (z @ prefix).astype(np.int64)
    totals = np.bincount(key, minlength=q * r)
    for a, idx in _by_arity(arities, candidates).items():
        cols = first[[candidates[i] for i in idx]][:, None] + np.arange(a - 1)
        tables = np.empty((q * r, len(idx), a), dtype=np.int64)
        tables[..., 1:] = counts[:, cols]
        tables[..., 0] = totals[:, None] - tables[..., 1:].sum(axis=2)
        # (cfg, var's state, candidate, its state) -> (candidate, cfg * a + its state, var's)
        yield idx, tables.reshape(q, r, len(idx), a).transpose(2, 0, 3, 1).reshape(
            len(idx), q * a, r)


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

    Each (variable, round) counts its candidates' tables on one of two paths,
    chosen from the input alone. The product path (_product_tables) counts
    all of them with one float32 matrix product of the key indicator Z
    (q * r by n) and the prefix of a one-hot matrix X (n by sum(a - 1)) built
    once per search; it runs when X, Z and the product each hold at most
    PRODUCT_BUDGET entries. Counts are integers no larger than n, and
    PRODUCT_BUDGET <= 2**24 bounds n, so float32 holds them exactly whatever
    order BLAS sums in. Otherwise, as for wide-arity data where a dense
    product costs more than it saves, the bincount path (_candidate_scores)
    counts candidates with offset np.bincount calls. Both give the same
    tables, so the paths agree bit for bit.
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
    onehot, first = _one_hot(data, config.order)
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
            if onehot is not None and q * r * max(data.row_count, first[var]) <= PRODUCT_BUDGET:
                scores = np.empty(len(candidates))
                for idx, tables in _product_tables(onehot[:, :first[var]], first, arities, var,
                                                   cfg * r + data.rows[:, var], q, candidates):
                    scores[idx] = k2_log_scores(tables, lgamma)
            else:
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

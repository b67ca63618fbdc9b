"""Structure learning (K2 greedy search) and CPT parameter fitting.

Scores are computed in log space with log-gamma sums; the raw factorial
form overflows long before realistic dataset sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import BayesNet, Dag, Variable, check_params

SCORE_EPS = 1e-12  # a candidate parent must beat the current score by this
ENTRY_BUDGET = 1 << 14  # array entries per K2 scoring chunk; bounds its working memory
# Largest one-hot matrix, indicator matrix or product (in entries) that K2
# counts with a float32 matrix product. At most 2**24, so that every count,
# an integer no larger than the row count, is exact in float32.
PRODUCT_BUDGET = 1 << 20


@dataclass(frozen=True)
class DiscreteDataset:
    """Fully observed discrete data: one Variable per column, int state rows.

    Integer rows keep their type, so a narrow matrix is not widened; any other
    is converted to int64, and a value that is not an integer raises ValueError."""

    variables: tuple[Variable, ...]
    rows: np.ndarray
    arities: tuple[int, ...] = field(init=False, repr=False, compare=False)  # by column

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "arities", tuple(v.arity for v in self.variables))
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.variables):
            if rows.size == 0:
                rows = rows.reshape(0, len(self.variables))
            else:
                raise ValueError(
                    f"rows shape {rows.shape} does not match {len(self.variables)} columns"
                )
        if rows.dtype.kind not in "iu":
            rows = rows.astype(float)  # cast to int64 once known to be states
            whole = np.isfinite(rows) & (rows == np.trunc(rows))
            for i in np.flatnonzero(~whole.all(axis=0))[:1]:
                state = float(rows[~whole[:, i], i][0])
                raise ValueError(f"column {self.variables[i].name} holds a state {state!r} "
                                 f"that is not an integer")
        if rows.shape[0]:
            high, low = rows.max(axis=0), rows.min(axis=0)
            for i in np.flatnonzero((high >= self.arities) | (low < 0))[:1]:
                var = self.variables[i]
                if high[i] >= var.arity:
                    raise ValueError(f"column {var.name} holds a state index >= arity {var.arity}")
                raise ValueError(f"column {var.name} holds a negative state index")
        if rows.dtype.kind == "f":
            rows = rows.astype(np.int64)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def row_count(self) -> int:
        return int(self.rows.shape[0])


def count_statistics(data: DiscreteDataset, var: int, parents: Sequence[int]) -> np.ndarray:
    """Exact N_ijk counts (_count_table), an int64 (q, r) table laid out as
    var's CPT under parents; configurations never seen in the data count 0."""
    parents = tuple(parents)
    for c in (var, *parents):
        if not 0 <= c < len(data.variables):
            raise ValueError(f"unknown column id {c}")
    if var in parents:
        raise ValueError("variable cannot be its own parent")
    return _count_table(data.rows.T, data.arities, (*parents, var))


def _count_table(columns: np.ndarray, arities: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """The (q, r) table counting the last of cols under the others, from data
    given column by column: np.bincount of each row's code over cols in the
    C order Dag.cpt_shape states, the last column varying fastest."""
    code = columns[cols[0]].astype(np.int64)
    for c in cols[1:]:
        code *= arities[c]
        np.add(code, columns[c], out=code, casting="unsafe")  # a uint64 column too
    counts = np.bincount(code, minlength=math.prod(arities[c] for c in cols))
    return counts.reshape(-1, arities[cols[-1]])


def lgamma_table(size: int) -> np.ndarray:
    """math.lgamma(i) for i in 0..size-1; entry 0, a pole, holds 0.0 and is never read."""
    table = np.zeros(size)
    table[1:] = list(map(math.lgamma, range(1, size)))
    return table


def k2_log_scores(counts: np.ndarray, lgamma: np.ndarray) -> np.ndarray:
    """K2 local log scores of G count tables, given as counts of shape (G, Q, r).

    lgamma must cover 0..N + r for the largest table total N. Per
    configuration j the terms are lgamma(r) - lgamma(N_j + r), then
    lgamma(N_jk + 1) for each state k, added one at a time in row-major
    order; pairwise summation, as np.sum does along a contiguous axis, would
    change the last bits and could flip K2 ties. The terms are laid out one
    row per term and one column per table, so that np.add.reduce over the
    rows adds them one row at a time for all tables (np.add.accumulate, when
    there is one table and the rows would be the contiguous axis). Empty
    configurations and counts of 0 or 1 give exact 0.0 terms, so every score
    equals the plain per-term loop bit for bit. Configurations are taken in
    chunks of about ENTRY_BUDGET terms, the running sum carried between them.
    """
    g, q, r = counts.shape
    step = max(1, ENTRY_BUDGET // (g * (r + 1)))
    total = np.zeros(g)
    for start in range(0, q, step):
        block = np.ascontiguousarray(counts[:, start:start + step].transpose(1, 2, 0))
        # terms in summation order along the first axis, the tables along the last
        terms = np.empty((len(block) * (r + 1) + 1, g))
        terms[0] = total
        body = terms[1:].reshape(len(block), r + 1, g)
        body[:, 0] = lgamma[r] - lgamma[block.sum(axis=1) + r]
        body[:, 1:] = lgamma[block + 1]
        total = np.add.reduce(terms, axis=0) if g > 1 else np.add.accumulate(terms)[-1]
    return total


def k2_local_log_score(counts: np.ndarray) -> float:
    """Natural log of the local marginal-likelihood score of a (q, r) count
    table, as count_statistics gives.

    Per configuration j: lgamma(r) - lgamma(N_j + r) + sum_k lgamma(N_jk + 1).
    Zero-count configurations contribute exactly 0.
    """
    lgamma = lgamma_table(int(counts.sum()) + counts.shape[1] + 1)
    return float(k2_log_scores(counts[None], lgamma)[0])


def _one_hot(columns: np.ndarray, arities: Sequence[int],
             order: Sequence[int]) -> tuple[np.ndarray | None, np.ndarray]:
    """The float32 one-hot matrix of the data, given column by column, for
    the product path, or None when its n * (1 + sum(a - 1)) entries exceed
    PRODUCT_BUDGET; and each variable's first column in it.

    Column 0 is all ones; then variables take their columns in order, one
    per non-zero state, so column 0 and the variables before var in the
    order are the prefix [:, :first[var]].
    """
    widths = [arities[v] - 1 for v in order]
    first = np.zeros(len(order), dtype=np.int64)
    first[list(order)] = np.cumsum([1] + widths)[:-1]
    if columns.shape[1] * (1 + sum(widths)) > PRODUCT_BUDGET:
        return None, first
    onehot = np.zeros((1 + sum(widths), columns.shape[1]), dtype=np.float32)
    onehot[0] = 1
    for s in range(1, max(arities, default=1)):
        has = [v for v in range(len(arities)) if arities[v] > s]
        onehot[first[has] + s - 1] = columns[has] == s
    return onehot.T, first


def _candidate_pairs(pos: np.ndarray, var: np.ndarray,
                     parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, candidate) pairs of a round: owner indexes var, and each
    variable's candidates, the variables before it in the order (pos holds
    each variable's position) that are not yet its parents, come in ascending
    id."""
    mask = pos < pos[var, None]
    mask[np.arange(len(var))[:, None], parents] = False
    return np.nonzero(mask)


def _product_tables(columns: np.ndarray, onehot: np.ndarray, first: np.ndarray,
                    arities: np.ndarray, var: np.ndarray, parents: np.ndarray,
                    owner: np.ndarray, cand: np.ndarray):
    """Count tables of each pair (var[owner], cand): the variable under its
    parents (the matching row of parents) plus the candidate as the last
    parent, for every variable of var from one float32 matrix product.
    Yields (positions in the pairs, tables) per candidate arity a, in chunks
    of about ENTRY_BUDGET scored terms; tables have shape (C, q * a, r), as
    count_statistics counts them.

    var lists variables in order position, all of one arity r and with
    parents of the same arities, so q parent configurations each. Each
    variable owns q * r rows of the stacked indicator Z, the indicator of
    each data row's (parent configuration, state); with X the one-hot matrix
    (_one_hot), Z @ X counts N[cfg, state, c = s] for every state s >= 1 of
    every column c, and its column 0 counts the Z row's total, so state 0 is
    the rest. Only the columns up to var's last variable are multiplied.
    Every product is 0 or 1 and every sum an integer no larger than n, so
    float32 counts them exactly, in any order, for n <= 2**24.
    """
    r = int(arities[var[0]])
    q = int(np.prod(arities[parents[0]]))
    levels = np.arange(q * r, dtype=np.min_scalar_type(q * r))  # also holds every arity
    keys = np.zeros((len(var), onehot.shape[0]), dtype=levels.dtype)
    for p in (*parents.T, var):
        keys *= arities[p, None].astype(levels.dtype)
        keys += columns[p]
    z = np.empty((len(var) * q * r, onehot.shape[0]), dtype=np.float32)
    np.equal(keys[:, None], levels[:, None], out=z.reshape(len(var), q * r, -1),
             casting="unsafe")
    del keys
    counts = z @ onehot[:, :first[var[-1]]]
    del z
    cand_arity = arities[cand]
    for a in set(cand_arity.tolist()):
        sel = np.flatnonzero(cand_arity == a)
        step = max(1, ENTRY_BUDGET // (q * a * (r + 1)))
        for start in range(0, len(sel), step):
            part = sel[start:start + step]
            rows = owner[part, None] * (q * r) + np.arange(q * r)
            cols = first[cand[part], None] + np.arange(a - 1)
            tables = np.empty((len(part), q * r, a), dtype=np.int64)
            tables[..., 1:] = counts[rows[:, :, None], cols[:, None, :]]
            tables[..., 0] = counts[rows, 0] - tables[..., 1:].sum(axis=2)
            # (pair, cfg, var's state, its state) -> (pair, cfg * a + its state, var's)
            yield part, tables.reshape(len(part), q, r, a).transpose(0, 1, 3, 2).reshape(
                len(part), q * a, r)


def _pair_tables(columns: np.ndarray, arities: Sequence[int], var: np.ndarray,
                 parents: np.ndarray, owner: np.ndarray, cand: np.ndarray):
    """The tables _product_tables yields, one pair at a time, each counted by
    _count_table over the variable's parents, the candidate and the variable."""
    for i, (o, c) in enumerate(zip(owner.tolist(), cand.tolist())):
        yield [i], _count_table(columns, arities, (*parents[o].tolist(), c, int(var[o])))[None]


def _product_chunks(searching: list[int], parents: list[list[int]], q: list[int],
                    arities: Sequence[int], onehot: np.ndarray) -> list[list[int]]:
    """searching, in order position, cut into runs of variables of one arity
    with parents of the same arities. A run's stacked indicator Z holds no
    more entries than the one-hot matrix, unless its one variable needs more,
    so the product path's working memory stays within twice that matrix."""
    kinds: dict[tuple[int, ...], list[list[int]]] = {}
    for v in searching:
        runs = kinds.setdefault((arities[v], *(arities[p] for p in parents[v])), [[]])
        if runs[-1] and (len(runs[-1]) + 1) * q[v] * arities[v] * len(onehot) > onehot.size:
            runs.append([])
        runs[-1].append(v)
    return [run for runs in kinds.values() for run in runs]


def k2_search(data: DiscreteDataset, order: Sequence[int], max_parents: int) -> Dag:
    """Greedy parent selection along a fixed variable ordering.

    For each variable, repeatedly add the single earlier-order candidate that
    most increases the local log score; stop when no candidate strictly
    increases it or the variable holds min(max_parents, earlier variables)
    parents. Among candidates whose scores are bit-equal the lowest
    variable id wins. Scores that are equal only mathematically are not
    ties: a binary column and its complement give the same count table with
    rows swapped, summed in another order, so the last bit of rounding picks
    between them, whichever id is lower.

    Every score is summed sequentially in row-major order (k2_log_scores) on
    count_statistics's table for the same parents, so it is bit-identical to
    k2_local_log_score on it, and so are the ties and the learned structure.

    Each variable's search depends only on its own parents, so the search runs
    in rounds: round k scores the k-th parent of every variable still
    searching. A round is one loop over runs of variables: _candidate_pairs
    lists a run's (variable, candidate) pairs, a counter yields their count
    tables as count_statistics counts them, k2_log_scores scores them, and
    each variable takes its first maximum in id order. The product counter
    (_product_tables) counts a run with one float32 matrix product of the
    stacked key indicators Z (q * r rows by n each) and a one-hot matrix X
    (n by 1 + sum(a - 1)) built once per search. A variable takes it when X,
    its own part of Z and its part of the product each hold at most
    PRODUCT_BUDGET entries; runs are cut so that their Z holds no more than X
    (_product_chunks). Counts are integers no larger than n, which
    PRODUCT_BUDGET <= 2**24 bounds, so float32 holds them exactly in any BLAS
    order. Every other variable is a run of one on the pair counter
    (_pair_tables), which counts each of its pairs as count_statistics does.
    """
    n = len(data.variables)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the dataset column ids")
    check_params(max_parents=max_parents)

    arities = np.array(data.arities, dtype=np.int64)
    max_arity = max(data.arities, default=1)
    n_rows = data.row_count
    # column-major and in the smallest integer type, so gathering candidates is cheap
    columns = data.rows.T.astype(np.min_scalar_type(max_arity - 1))
    onehot, first = _one_hot(columns, data.arities, order)
    lgamma = lgamma_table(n_rows + max_arity + 1)
    pos = np.empty(n, dtype=np.int64)
    pos[list(order)] = np.arange(n)
    current = np.empty(n)  # each variable's score under its parents so far
    for a in set(data.arities):
        same = np.flatnonzero(arities == a)
        counts = np.array([_count_table(columns, data.arities, [v]) for v in same])
        current[same] = k2_log_scores(counts, lgamma)
    parents: list[list[int]] = [[] for _ in range(n)]
    q = [1] * n  # parent configurations of each variable
    searching = list(order[1:]) if max_parents else []
    while searching:
        fits = {v for v in searching if onehot is not None
                and q[v] * data.arities[v] * max(n_rows, int(first[v])) <= PRODUCT_BUDGET}
        runs = _product_chunks([v for v in searching if v in fits], parents, q, data.arities,
                               onehot) + [[v] for v in searching if v not in fits]
        best: dict[int, tuple[int, float]] = {}
        for run in runs:
            var = np.array(run)
            held = np.array([parents[v] for v in run], dtype=np.int64)
            owner, cand = _candidate_pairs(pos, var, held)
            if run[0] in fits:
                tables = _product_tables(columns, onehot, first, arities, var, held, owner, cand)
            else:
                tables = _pair_tables(columns, data.arities, var, held, owner, cand)
            scores = np.empty(len(owner))
            for part, table in tables:
                scores[part] = k2_log_scores(table, lgamma)
                del table  # so that the next table is counted without this one
            # the first maximum of each variable: lowest id wins ties
            starts = np.searchsorted(owner, np.arange(len(run)))
            top = np.maximum.reduceat(scores, starts)
            hits = np.flatnonzero(scores == top[owner])
            winners = cand[hits[np.searchsorted(hits, starts)]]
            best.update(zip(run, zip(winners.tolist(), top.tolist())))
        still = []
        for v in searching:
            c, score = best[v]
            if score > current[v] + SCORE_EPS:
                parents[v].append(c)
                q[v] *= data.arities[c]
                current[v] = score
                if len(parents[v]) < min(max_parents, pos[v]):
                    still.append(v)
        searching = still
    return Dag(variables=data.variables, parents=tuple(tuple(p) for p in parents))


def fit_cpts(data: DiscreteDataset, dag: Dag, smoothing: float) -> BayesNet:
    """Smoothed frequency CPTs: (N_jk + s) / (N_j + r*s), uniform when both 0."""
    check_params(smoothing=smoothing)
    if tuple(v.name for v in dag.variables) != tuple(v.name for v in data.variables):
        raise ValueError("dag variables do not match dataset columns")
    cpts = []
    for var in dag.variables:
        counts = count_statistics(data, var.id, dag.parents[var.id])
        r = var.arity
        denom = counts.sum(axis=1).astype(float) + r * smoothing
        counts = counts.astype(float)
        table = np.empty_like(counts)
        empty = denom == 0  # only possible with smoothing 0
        if np.any(~empty):
            table[~empty] = (counts[~empty] + smoothing) / denom[~empty, None]
        table[empty] = 1.0 / r
        cpts.append(table)
    return BayesNet(dag, cpts)

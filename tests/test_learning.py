from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas import learning
from hidpas.core import Variable, validate_network
from hidpas.learning import (
    ENTRY_BUDGET,
    PRODUCT_BUDGET,
    SCORE_EPS,
    DiscreteDataset,
    count_statistics,
    fit_cpts,
    k2_local_log_score,
    k2_log_scores,
    k2_search,
    lgamma_table,
)
from hidpas.oracles import k2_score_by_factorials

BIN = ("0", "1")


def dataset(columns: list[str], rows) -> DiscreteDataset:
    variables = tuple(Variable(i, name, BIN) for i, name in enumerate(columns))
    return DiscreteDataset(variables, np.asarray(rows, dtype=np.int64))


@pytest.fixture
def px_data() -> DiscreteDataset:
    return dataset(["P", "X"], [[0, 0], [0, 0], [1, 1]])


def test_count_statistics_hand_counts(px_data):
    counts = count_statistics(px_data, 1, (0,))
    assert counts.tolist() == [[2, 0], [0, 1]]
    assert counts.sum(axis=1).tolist() == [2, 1]


def test_count_statistics_no_parents_is_histogram(px_data):
    assert count_statistics(px_data, 1, ()).tolist() == [[2, 1]]


@pytest.mark.parametrize("dtype, top", [
    pytest.param(np.uint8, 2, id="uint8"), pytest.param(np.int16, 2, id="int16"),
    pytest.param(np.uint64, 2, id="uint64"), pytest.param(np.uint8, 255, id="uint8-256-states")])
def test_count_statistics_reads_any_integer_rows(dtype, top):
    # a dataset keeps its integer type; uint64 does not add to int64 codes in
    # place; uint8 holds 256 states, and top is v2's last one
    rows = [[0, 1, top], [1, 0, top], [1, 0, top], [0, 1, 0]]
    variables = tuple(Variable(i, f"v{i}", ("0", "1", "2")) for i in range(2)) + (
        Variable(2, "v2", tuple(map(str, range(top + 1)))),)
    data = DiscreteDataset(variables, np.array(rows, dtype=dtype))
    assert data.rows.dtype == dtype
    table = count_statistics(data, 2, (0, 1))
    assert table.shape == (9, top + 1) and not table[:, 2:top].any()
    assert table[:, [0, 1, top]].tolist() == [
        [0, 0, 0], [1, 0, 1], [0, 0, 0], [0, 0, 2], [0, 0, 0], [0, 0, 0],
        [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert k2_search(data, (0, 1, 2), 2).parents == reference_k2_search(data, (0, 1, 2), 2)


@pytest.mark.parametrize("rows, message", [
    ([[0.7, 1.0], [1.9, 0.2]], "column P holds a state 0.7 that is not an integer"),
    ([[0.0, 1.0], [1.0, 0.2]], "column X holds a state 0.2 that is not an integer"),
    ([[0.0, 1.0], [np.nan, 0.0]], "column P holds a state nan that is not an integer"),
    ([[0.0, np.inf]], "column X holds a state inf that is not an integer"),
    ([[0, 2]], "column X holds a state index >= arity 2"),
    ([[1e30, 0.0]], "column P holds a state index >= arity 2"),
    ([[-1, 0]], "column P holds a negative state index"),
])
def test_a_dataset_rejects_a_state_that_is_no_state_index(rows, message):
    variables = (Variable(0, "P", ("0", "1")), Variable(1, "X", ("0", "1")))
    with pytest.raises(ValueError, match=message):
        DiscreteDataset(variables, np.array(rows))


def test_a_dataset_converts_integral_floats_and_bools():
    variables = (Variable(0, "P", ("0", "1")), Variable(1, "X", ("0", "1")))
    for rows in ([[1.0, 0.0], [0.0, -0.0]], [[True, False], [False, False]]):
        data = DiscreteDataset(variables, np.array(rows))
        assert data.rows.dtype == np.int64 and data.rows.tolist() == [[1, 0], [0, 0]]


def test_count_statistics_empty_dataset():
    empty = dataset(["P", "X"], np.zeros((0, 2)))
    assert count_statistics(empty, 1, (0,)).tolist() == [[0, 0], [0, 0]]


def test_count_statistics_rejects_var_in_parents(px_data):
    with pytest.raises(ValueError):
        count_statistics(px_data, 1, (1,))
    with pytest.raises(ValueError):
        count_statistics(px_data, 5, ())


def test_count_marginals_sum_to_row_count(px_data):
    counts = count_statistics(px_data, 0, (1,))
    assert int(counts.sum(axis=1).sum()) == px_data.row_count


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_count_totals_property(n_rows, seed):
    rng = np.random.default_rng(seed)
    cols = ["a", "b", "c"]
    data = dataset(cols, rng.integers(0, 2, size=(n_rows, 3)))
    for var in range(3):
        for parents in ((), tuple(p for p in range(3) if p != var)):
            counts = count_statistics(data, var, parents)
            assert int(counts.sum(axis=1).sum()) == n_rows
            assert np.all(counts >= 0)


def test_score_no_parents_matches_hand_value(px_data):
    # three binary observations [0,0,1]: score 1/12
    got = k2_local_log_score(count_statistics(px_data, 1, ()))
    assert got == pytest.approx(math.log(1 / 12), abs=1e-12)


def test_score_with_parent_matches_hand_value(px_data):
    # per-configuration factorials give 1/3 * 1/2 = 1/6
    got = k2_local_log_score(count_statistics(px_data, 1, (0,)))
    assert got == pytest.approx(math.log(1 / 6), abs=1e-12)


def test_score_empty_dataset_is_zero():
    empty = dataset(["P", "X"], np.zeros((0, 2)))
    assert k2_local_log_score(count_statistics(empty, 1, (0,))) == 0.0


def test_score_is_nonpositive_on_data(px_data):
    for parents in ((), (0,)):
        assert k2_local_log_score(count_statistics(px_data, 1, parents)) <= 0.0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.booleans())
def test_log_score_matches_factorial_evaluation(xs, with_parent):
    """Log-gamma form equals exact factorial evaluation for N <= 12."""
    rng = np.random.default_rng(len(xs))
    ps = rng.integers(0, 2, size=len(xs))
    data = dataset(["P", "X"], np.stack([ps, np.array(xs)], axis=1))
    counts = count_statistics(data, 1, (0,) if with_parent else ())
    got = k2_local_log_score(counts)
    expected = k2_score_by_factorials(counts)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_k2_search_adds_informative_edge(px_data):
    dag = k2_search(px_data, (0, 1), 1)
    assert dag.parents == ((), (0,))


def test_k2_search_empty_data_yields_no_edges():
    empty = dataset(["a", "b", "c"], np.zeros((0, 3)))
    dag = k2_search(empty, (0, 1, 2), 2)
    assert all(p == () for p in dag.parents)


def test_k2_search_zero_budget_yields_no_edges(px_data):
    dag = k2_search(px_data, (0, 1), 0)
    assert all(p == () for p in dag.parents)


def test_k2_search_respects_order():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, 200)
    b = (a ^ (rng.random(200) < 0.05)).astype(int)
    data = dataset(["A", "B"], np.stack([a, b], axis=1))
    dag = k2_search(data, (1, 0), 1)
    # B precedes A in the order, so only A may gain a parent
    assert dag.parents[1] == ()


def test_k2_search_duplicate_column_tie_not_added():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2, 100)
    data = dataset(["A", "A2", "X"], np.stack([a, a.copy(), a ^ 1], axis=1))
    dag = k2_search(data, (0, 1, 2), 2)
    # once A is a parent of X, its duplicate leaves counts unchanged and ties
    assert dag.parents[2] == (0,)


def test_k2_search_invalid_order_rejected(px_data):
    with pytest.raises(ValueError):
        k2_search(px_data, (0, 0), 1)


def test_k2_search_budget_beyond_the_variable_count_is_the_full_budget():
    # each variable's cap is min(max_parents, its earlier variables)
    rng = np.random.default_rng(9)
    data = mixed_dataset(rng, 200, [2, 3, 2], copies=1)
    n = len(data.variables)
    order = tuple(int(i) for i in rng.permutation(n))
    full = k2_search(data, order, n - 1).parents
    assert max(map(len, full)) >= 2
    for max_parents in (n, n + 5):
        assert k2_search(data, order, max_parents).parents == full
    with pytest.raises(ValueError, match="max_parents must be >= 0"):
        k2_search(data, order, -1)  # would act as a budget of 1


def test_fit_cpts_rejects_negative_smoothing(px_data):
    dag = k2_search(px_data, (0, 1), 1)
    with pytest.raises(ValueError, match="smoothing must be >= 0"):
        fit_cpts(px_data, dag, smoothing=-0.5)


def test_fit_cpts_frequencies_without_smoothing(px_data):
    dag = k2_search(px_data, (1, 0), 0)
    net = fit_cpts(px_data, dag, smoothing=0.0)
    np.testing.assert_allclose(net.cpts[1], [[2 / 3, 1 / 3]])


def test_fit_cpts_add_one_smoothing(px_data):
    dag = k2_search(px_data, (1, 0), 0)
    net = fit_cpts(px_data, dag, smoothing=1.0)
    np.testing.assert_allclose(net.cpts[1], [[0.6, 0.4]])


def test_fit_cpts_unseen_configuration_uniform():
    data = dataset(["P", "X"], [[0, 0], [0, 1]])  # P=1 never observed
    variables = data.variables
    from hidpas.core import Dag

    dag = Dag(variables, ((), (0,)))
    net = fit_cpts(data, dag, smoothing=1.0)
    np.testing.assert_allclose(net.cpts[1][1], [0.5, 0.5])
    net0 = fit_cpts(data, dag, smoothing=0.0)
    np.testing.assert_allclose(net0.cpts[1][1], [0.5, 0.5])


def test_fit_cpts_output_validates(px_data, chain5_net):
    dag = k2_search(px_data, (0, 1), 1)
    assert validate_network(fit_cpts(px_data, dag, smoothing=1.0)) == []


def test_fit_cpts_rows_sum_to_one(px_data):
    dag = k2_search(px_data, (0, 1), 1)
    net = fit_cpts(px_data, dag, smoothing=0.5)
    for table in net.cpts:
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)


# -- vectorized scoring against the per-term loop -----------------------------

def reference_score(counts: np.ndarray) -> float:
    """The per-configuration, per-state loop the kernel must match bit for bit."""
    r = counts.shape[1]
    score = 0.0
    lg_r = math.lgamma(r)
    for j in range(counts.shape[0]):
        n_j = int(counts[j].sum())
        if n_j == 0:
            continue
        score += lg_r - math.lgamma(n_j + r)
        for n_jk in counts[j]:
            if n_jk > 1:
                score += math.lgamma(int(n_jk) + 1)
    return score


def reference_k2_search(data: DiscreteDataset, order, max_parents: int) -> tuple:
    """Greedy K2 scoring one count_statistics table per candidate."""
    parent_sets: list[tuple[int, ...]] = [()] * len(data.variables)
    for pos, var in enumerate(order):
        candidates = set(order[:pos])
        parents: list[int] = []
        current = reference_score(count_statistics(data, var, parents))
        while len(parents) < max_parents and candidates:
            scored = [
                (reference_score(count_statistics(data, var, parents + [c])), c)
                for c in sorted(candidates)
            ]
            best_score = max(s for s, _ in scored)
            best = min(c for s, c in scored if s == best_score)
            if best_score > current + SCORE_EPS:
                parents.append(best)
                candidates.discard(best)
                current = best_score
            else:
                break
        parent_sets[var] = tuple(parents)
    return tuple(parent_sets)


def random_counts(rng, g: int, q: int, r: int) -> np.ndarray:
    """Mostly 0s and 1s, some larger counts, and whole empty configurations."""
    counts = rng.choice([0, 0, 0, 1, 1, 2, 3, 17, 250], size=(g, q, r))
    counts[:, rng.random(q) < 0.3] = 0
    return counts


def kernel_scores(counts: np.ndarray) -> list[float]:
    lgamma = lgamma_table(int(counts.sum(axis=(1, 2)).max(initial=0)) + counts.shape[2] + 1)
    return k2_log_scores(counts, lgamma).tolist()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 40),
       st.sampled_from([1, 2, 3, 7, 150]), st.sampled_from([ENTRY_BUDGET, 1, 7, 100]))
def test_kernel_equals_reference_loop(seed, g, q, r, budget):
    counts = random_counts(np.random.default_rng(seed), g, q, r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "ENTRY_BUDGET", budget)
        got = kernel_scores(counts)
    assert got == [reference_score(c) for c in counts]


def test_kernel_carries_sum_across_chunks_of_a_large_table():
    rng = np.random.default_rng(11)
    counts = np.zeros((1, 2000, 20), dtype=np.int64)
    counts[0, rng.choice(2000, 120, replace=False)] = random_counts(rng, 1, 120, 20)[0]
    assert counts.shape[1] * (counts.shape[2] + 1) > ENTRY_BUDGET
    assert kernel_scores(counts) == [reference_score(counts[0])]


def test_local_score_is_the_kernel(px_data):
    for parents in ((), (0,)):
        counts = count_statistics(px_data, 1, parents)
        assert k2_local_log_score(counts) == reference_score(counts)


# -- batched search against a search over count_statistics --------------------

def mixed_dataset(rng, n_rows: int, arities: list[int], copies: int) -> DiscreteDataset:
    """Random columns, then `copies` duplicate or complementary columns."""
    cols = [rng.integers(0, a, n_rows) for a in arities]
    arities = list(arities)
    for _ in range(copies):
        src = int(rng.integers(0, len(arities)))
        flip = rng.random() < 0.5
        cols.append(arities[src] - 1 - cols[src] if flip else cols[src].copy())
        arities.append(arities[src])
    # a noisy child of the first columns, so that searches add parents
    child = (sum(cols[: min(3, len(cols))]) + (rng.random(n_rows) < 0.2)) % 3
    cols.append(child)
    arities.append(3)
    variables = tuple(Variable(i, f"v{i}", tuple(str(s) for s in range(a)))
                      for i, a in enumerate(arities))
    rows = np.stack(cols, axis=1) if n_rows else np.zeros((0, len(cols)), dtype=np.int64)
    return DiscreteDataset(variables, rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 120),
       st.lists(st.integers(2, 5), min_size=1, max_size=4), st.integers(0, 2),
       st.integers(0, 3), st.sampled_from([ENTRY_BUDGET, 1, 40]),
       st.sampled_from([0, 1 << 24]))
def test_k2_search_equals_reference_search(seed, n_rows, arities, copies, max_parents,
                                           budget, product_budget):
    # PRODUCT_BUDGET 0 counts on the bincount path (but for empty data), 2**24
    # on the product path
    rng = np.random.default_rng(seed)
    data = mixed_dataset(rng, n_rows, arities, copies)
    order = tuple(int(i) for i in rng.permutation(len(data.variables)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "ENTRY_BUDGET", budget)
        mp.setattr(learning, "PRODUCT_BUDGET", product_budget)
        got = k2_search(data, order, max_parents).parents
    assert got == reference_k2_search(data, order, max_parents)


def test_k2_search_equals_reference_on_chunked_candidates():
    # 3000 rows and 15 columns, more than the property tests draw
    rng = np.random.default_rng(21)
    data = mixed_dataset(rng, 3000, [2, 2, 3, 2, 4, 2, 2, 5, 2, 2], copies=4)
    assert data.row_count * 4 < ENTRY_BUDGET < data.row_count * 12
    order = tuple(range(len(data.variables)))
    assert k2_search(data, order, 3).parents == reference_k2_search(data, order, 3)


def test_k2_search_ties_go_to_lowest_id():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 2, 200)
    x = np.where(rng.random(200) < 0.9, a, 1 - a)
    # A2 copies A: their tables and scores are identical, so A (lower id) wins;
    # notA's table is A's with rows swapped, summed in another order
    data = dataset(["notA", "A2", "A", "X"], np.stack([1 - a, a, a.copy(), x], axis=1))
    x_given = [reference_score(count_statistics(data, 3, (c,))) for c in range(3)]
    assert x_given[1] == x_given[2]
    for order in ((2, 1, 0, 3), (2, 1, 3, 0)):
        dag = k2_search(data, order, 1)
        assert dag.parents == reference_k2_search(data, order, 1)
        if order[-1] == 0:  # notA comes after X: A2 and A tie
            assert dag.parents[3] == (1,)
        else:
            assert dag.parents[3] == ((0,) if x_given[0] > x_given[1] else (1,))


# -- the product counting path ---------------------------------------------------

def counting_paths(mp: pytest.MonkeyPatch) -> dict[str, int]:
    """Counts the (variable, round) searches each counting path scores
    ("product", "pair"), and the matrix products the product path makes
    ("products", one per run of variables)."""
    calls = {"product": 0, "pair": 0, "products": 0}
    product_tables, pair_tables = learning._product_tables, learning._pair_tables

    def products(columns, onehot, first, arities, var, *rest):
        calls["product"] += len(var)
        calls["products"] += 1
        return product_tables(columns, onehot, first, arities, var, *rest)

    def pairs(columns, arities, var, *rest):
        calls["pair"] += len(var)
        return pair_tables(columns, arities, var, *rest)

    mp.setattr(learning, "_product_tables", products)
    mp.setattr(learning, "_pair_tables", pairs)
    return calls


def search_inputs(data: DiscreteDataset, order: tuple[int, ...]):
    """columns, arities, onehot, first and positions as k2_search builds them."""
    arity = [v.arity for v in data.variables]
    columns = data.rows.T.astype(np.min_scalar_type(max(arity) - 1))
    onehot, first = learning._one_hot(columns, arity, order)
    pos = np.empty(len(order), dtype=np.int64)
    pos[list(order)] = np.arange(len(order))
    return columns, arity, onehot, first, pos


def pair_tables(columns, onehot, first, arities, *pairs):
    """_pair_tables called as _product_tables is."""
    return learning._pair_tables(columns, arities, *pairs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 150),
       st.lists(st.integers(2, 5), min_size=2, max_size=5), st.integers(0, 2),
       st.integers(0, 2), st.sampled_from([ENTRY_BUDGET, 1, 7]),
       st.sampled_from([learning._product_tables, pair_tables]))
def test_product_tables_equal_count_statistics(seed, n_rows, arities, copies, k, budget,
                                               counter):
    # every variable with k random earlier parents; runs as the product path
    # cuts them, and each counter yields count_statistics's table per pair
    rng = np.random.default_rng(seed)
    data = mixed_dataset(rng, n_rows, arities, copies)
    order = tuple(int(i) for i in rng.permutation(len(data.variables)))
    columns, arity, onehot, first, pos = search_inputs(data, order)
    searching = list(order[k + 1:])
    parents = [[] for _ in order]
    for v in searching:
        earlier = list(order[:pos[v]])
        parents[v] = [int(p) for p in rng.choice(earlier, size=k, replace=False)]
    q = [int(np.prod([arity[p] for p in parents[v]])) for v in range(len(order))]
    runs = learning._product_chunks(searching, parents, q, arity, onehot)
    assert sorted(v for run in runs for v in run) == sorted(searching)
    seen = []
    for run in runs:
        assert [pos[v] for v in run] == sorted(pos[v] for v in run)
        assert len({(arity[v], *(arity[p] for p in parents[v])) for v in run}) == 1
        assert len(run) == 1 or len(run) * q[run[0]] * arity[run[0]] * n_rows <= onehot.size
        var = np.array(run)
        held = np.array([parents[v] for v in run], dtype=np.int64)
        owner, cand = learning._candidate_pairs(pos, var, held)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learning, "ENTRY_BUDGET", budget)
            for part, tables in counter(columns, onehot, first, np.array(arity), var,
                                        held, owner, cand):
                for i, table in zip(part, tables):
                    v, c = run[owner[i]], int(cand[i])
                    assert pos[c] < pos[v] and c not in parents[v]
                    expected = count_statistics(data, v, parents[v] + [c])
                    assert table.tolist() == expected.tolist()
                    seen.append((v, c))
    expected_pairs = [(v, c) for v in searching for c in range(len(order))
                      if pos[c] < pos[v] and c not in parents[v]]
    assert sorted(seen) == sorted(expected_pairs)


def test_product_budget_edge_picks_the_path():
    # a variable takes the product path when X (n by 1 + sum(a - 1)), its own
    # q * r rows of Z and of the product fit the budget: at the largest of them
    # every search takes it, one entry under it some search counts by pairs
    assert PRODUCT_BUDGET <= 2 ** 24  # float32 counts stay exact
    rng = np.random.default_rng(4)
    data = mixed_dataset(rng, 300, [2, 3, 2, 4, 2, 5], copies=3)
    order = tuple(int(i) for i in rng.permutation(len(data.variables)))
    _, arity, onehot, first, _ = search_inputs(data, order)
    sizes = []
    tables = learning._product_tables

    def sized(columns, onehot, first, arities, var, parents, *rest):
        for v, held in zip(var, parents):
            q = int(np.prod([arity[p] for p in held]))
            sizes.append(q * arity[v] * max(data.row_count, int(first[v])))
        return tables(columns, onehot, first, arities, var, parents, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "PRODUCT_BUDGET", 1 << 24)
        mp.setattr(learning, "_product_tables", sized)
        k2_search(data, order, 3)
    expected = reference_k2_search(data, order, 3)
    assert max(map(len, expected)) == 3  # rounds with q > 1
    assert max(sizes) > onehot.size  # so one entry under it keeps X
    for budget, only in ((max(sizes), "product"), (max(sizes) - 1, None)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learning, "PRODUCT_BUDGET", budget)
            calls = counting_paths(mp)
            assert k2_search(data, order, 3).parents == expected
        assert calls["product"] > 0
        assert calls["pair"] == 0 if only else calls["pair"] > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 120),
       st.lists(st.integers(2, 5), min_size=2, max_size=6), st.integers(0, 3),
       st.integers(1, 3), st.sampled_from([ENTRY_BUDGET, 1, 40]),
       st.sampled_from([300, 2000, 12000]))
def test_lockstep_rounds_split_across_variables(seed, n_rows, arities, copies, max_parents,
                                                budget, product_budget):
    # budgets between the paths' extremes: in one round some variables count
    # by product and some by pairs, and products cover runs of variables
    rng = np.random.default_rng(seed)
    data = mixed_dataset(rng, n_rows, arities, copies)
    order = tuple(int(i) for i in rng.permutation(len(data.variables)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "ENTRY_BUDGET", budget)
        mp.setattr(learning, "PRODUCT_BUDGET", product_budget)
        got = k2_search(data, order, max_parents).parents
    assert got == reference_k2_search(data, order, max_parents)


def test_lockstep_mixes_paths_and_runs_in_one_search():
    # the smallest budget that keeps X: a round stacks several variables per
    # product, while a wide variable's last search counts by pairs
    rng = np.random.default_rng(23)
    data = mixed_dataset(rng, 150, [5, 4, 5, 3, 5, 2, 2, 2], copies=4)
    order = tuple(int(i) for i in rng.permutation(len(data.variables)))
    onehot = search_inputs(data, order)[2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "PRODUCT_BUDGET", onehot.size)
        mp.setattr(learning, "ENTRY_BUDGET", 64)
        calls = counting_paths(mp)
        got = k2_search(data, order, 3).parents
    assert got == reference_k2_search(data, order, 3)
    assert calls["pair"] > 0 and calls["product"] > calls["products"] > 2


def test_k2_search_on_150_binary_columns():
    # the plan network's shape: wide, all binary, each column a noisy copy
    # of one or two earlier ones
    rng = np.random.default_rng(12)
    n_rows, n_cols = 400, 150
    cols = [rng.integers(0, 2, n_rows)]
    for i in range(1, n_cols):
        a, b = rng.integers(0, i, size=2)
        noise = rng.random(n_rows) < 0.1
        cols.append((cols[a] | cols[b]) ^ noise if i % 3 else cols[a] ^ noise)
    data = dataset([f"c{i}" for i in range(n_cols)], np.stack(cols, axis=1))
    order = tuple(int(i) for i in rng.permutation(n_cols))
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_paths(mp)
        got = k2_search(data, order, 2).parents
    # every search of both rounds on the product path, in a handful of products
    assert calls["pair"] == 0 and calls["product"] > n_cols
    assert calls["products"] <= 8
    assert got == reference_k2_search(data, order, 2)

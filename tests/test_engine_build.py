"""Engine construction is bit-identical to the straightforward algorithms.

The whole-table transform kernel is checked against the per-row transform,
the incremental min-fill triangulation against a full rescan at every step
followed by a second elimination for its clusters, and the indexed spanning
tree against one over all cluster pairs. A golden record pins the order,
tree and transformed tables of three nets.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas.core import BayesNet, Dag, Variable
from hidpas.jtree import (
    SUM_PRODUCT,
    MAX_MIN,
    build_tree,
    build_tree_for_net,
    initialize_potentials,
    moralize,
    net_factors,
    triangulate,
)
from hidpas.oracles import random_net
from hidpas.possibility import (
    NORM_TOL,
    ZERO_GUARD,
    HybridPropagator,
    prob_to_poss,
    transformed_factors,
)
from hidpas.prediction import (
    aggregate_alerts,
    build_transactions,
    load_alert_log,
    train_alert_classifier,
    train_plan_model,
)

from conftest import data_path


# -- references: the per-row and full-rescan forms ---------------------------------

def reference_prob_to_poss(p: Sequence[float]) -> np.ndarray:
    """The transform one row at a time, with fsum tails and an exact
    Fraction floor."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty probability vector")
    if np.any(arr < 0):
        raise ValueError("probabilities must be >= 0")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")

    values = np.where(arr < ZERO_GUARD, 0.0, arr)
    out = np.zeros_like(values)
    top = values.max()
    if top == 0.0:
        raise ValueError("distribution has no mass above the zero guard")

    levels = sorted(set(values.tolist()), reverse=True)
    level_poss: dict[float, float] = {}
    for lev in levels:
        if lev == 0.0:
            level_poss[lev] = 0.0
        elif lev == top:
            level_poss[lev] = 1.0
        else:
            tail = math.fsum(v for v in values.tolist() if v <= lev)
            level_poss[lev] = min(1.0, tail)
    if len(levels) > 1 and np.count_nonzero(values == top) == 1:
        second = levels[1]
        floor = 1.0 - top
        if Fraction(floor) < 1 - Fraction(top):
            floor = math.nextafter(floor, math.inf)
        level_poss[second] = min(1.0, max(level_poss[second], floor))
    for i, v in enumerate(values.tolist()):
        out[i] = level_poss[v]
    return out


def reference_choose_order(graph: dict[int, frozenset[int]]) -> list[int]:
    """Min-fill with every remaining node rescored at every step."""
    adj = {n: set(nbrs) for n, nbrs in graph.items()}
    out: list[int] = []
    remaining = set(graph)
    while remaining:
        best_node, best_fill = -1, None
        for n in sorted(remaining):
            nbrs = [m for m in adj[n] if m in remaining]
            fill = sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:] if b not in adj[a])
            if best_fill is None or fill < best_fill:
                best_node, best_fill = n, fill
        nbrs = [m for m in adj[best_node] if m in remaining]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        remaining.discard(best_node)
        out.append(best_node)
    return out


def reference_elimination_clusters(graph: dict[int, frozenset[int]],
                                   order: list[int]) -> list[frozenset[int]]:
    """A second elimination in a given order: each node's {node} | neighbours,
    its neighbours then connected pairwise; clusters inside an earlier one
    are dropped."""
    adj = {n: set(nbrs) for n, nbrs in graph.items()}
    clusters: list[frozenset[int]] = []
    for x in order:
        nbrs = adj.pop(x)
        cluster = frozenset(nbrs | {x})
        for a in nbrs:
            adj[a].discard(x)
            adj[a].update(nbrs)
            adj[a].discard(a)
        if not any(cluster <= earlier for earlier in clusters):
            clusters.append(cluster)
    return clusters


def reference_triangulate(graph: dict[int, frozenset[int]]
                          ) -> tuple[list[int], list[frozenset[int]]]:
    """The full-rescan order, then its clusters from a second elimination."""
    order = reference_choose_order(graph)
    return order, reference_elimination_clusters(graph, order)


def reference_tree_edges(clusters) -> tuple:
    """Kruskal over every cluster pair with a nonempty separator."""
    scopes = [tuple(sorted(c)) for c in clusters]
    candidates = sorted(
        (-len(sep), i, j, sep)
        for i in range(len(scopes)) for j in range(i + 1, len(scopes))
        if (sep := tuple(sorted(set(scopes[i]) & set(scopes[j])))))
    parent = list(range(len(scopes)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = []
    for _, i, j, sep in candidates:
        if find(i) != find(j):
            parent[find(i)] = find(j)
            edges.append((i, j, sep))
    return tuple(edges)


def outcome(fn, *args):
    """The result, or the message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -- the transform kernel ---------------------------------------------------------

# entries at, around and below the zero guard, ties, and exact zeros
SPECIAL = [0.0, 1e-13, 9.9e-13, ZERO_GUARD, math.nextafter(ZERO_GUARD, 0.0), 2e-12,
           0.125, 0.25, 0.5]


@st.composite
def rows(draw, states=None):
    """A probability row: ties, exact zeros and sub-guard entries among
    random ones, one state up to 12, its total nudged within (and now and
    then just past) NORM_TOL of 1, and now and then a negative entry."""
    n = states if states is not None else draw(st.integers(1, 12))
    raw = draw(st.lists(st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(1e-4, 1.0)),
                        min_size=n, max_size=n))
    row = np.array(raw) / math.fsum(raw)
    for k in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        row[k] = draw(st.sampled_from(SPECIAL))
    nudge = draw(st.one_of(st.just(0.0), st.floats(-0.99 * NORM_TOL, 0.99 * NORM_TOL),
                           st.sampled_from([-1.01 * NORM_TOL, 1.01 * NORM_TOL])))
    row = row * (1.0 + nudge)
    if draw(st.integers(0, 19)) == 0:
        row[draw(st.integers(0, n - 1))] = -draw(st.sampled_from([1e-300, 1e-3]))
    return row


@settings(max_examples=500, deadline=None)
@given(rows())
def test_kernel_row_is_bit_identical_to_the_per_row_transform(row):
    got, want = outcome(prob_to_poss, row), outcome(reference_prob_to_poss, row)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert same_bits(got, want), (row.tolist(), got, want)


@pytest.mark.parametrize("row", [
    [0.6, 0.4 - 5e-10],  # a unique top summing low: the floor lifts the second level
    [1.0 - 5e-13, 5e-13],  # the second level is a guarded zero, lifted to the floor
    [0.3, 0.3, 0.4 - 4e-10],  # tied second level
    [0.5, 0.5 - 1e-10],
    [1.0],
    [1.0 + 9e-10],
    [0.2, 0.2, 0.2, 0.2, 0.2],
    [0.1, 0.0, 0.9, 0.0],
    [1e-300, 1.0],
    [1 / 3, 1 / 3, 1 / 3],
    [0.7, 0.1, 0.1, 0.1],
    [0.1] * 10,
])
def test_kernel_edge_rows(row):
    assert same_bits(prob_to_poss(row), reference_prob_to_poss(row))


def test_a_nan_row_is_rejected():
    # fsum of a row holding NaN is NaN, which is not within NORM_TOL of 1
    with pytest.raises(ValueError, match="sum to nan"):
        prob_to_poss([0.5, float("nan"), 0.5])


def star_net(arities: Sequence[int], tables: Sequence[np.ndarray]) -> BayesNet:
    """Variable 0 a root, every other variable its child."""
    variables = tuple(Variable(i, f"v{i}", tuple(f"s{k}" for k in range(a)))
                      for i, a in enumerate(arities))
    parents = tuple(() if i == 0 else (0,) for i in range(len(arities)))
    return BayesNet(Dag(variables, parents), tables)


@st.composite
def star_nets(draw):
    """Up to six variables of arity 1-4, so rows of one arity from several
    CPTs share one kernel call; some rows are bad."""
    arities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    tables = [np.array([draw(rows(a)) for _ in range(1 if i == 0 else arities[0])])
              for i, a in enumerate(arities)]
    return star_net(arities, tables)


def reference_factors(net: BayesNet) -> list[np.ndarray]:
    return [np.vstack([reference_prob_to_poss(row) for row in table]) for table in net.cpts]


@settings(max_examples=150, deadline=None)
@given(star_nets())
def test_whole_net_transform_is_bit_identical_and_raises_on_the_first_bad_row(net):
    got, want = outcome(transformed_factors, net), outcome(reference_factors, net)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for factor, rows_, var in zip(got, want, net.dag.variables):
        assert same_bits(factor.table.reshape(-1, var.arity), rows_)


@pytest.mark.parametrize("bad_first", [0, 1])
def test_error_parity_follows_variable_order_not_arity_groups(bad_first):
    """The first bad row in variable order raises, even when a later
    variable's arity group is transformed first."""
    good3, good2 = np.array([[0.2, 0.3, 0.5]] * 2), np.array([[0.4, 0.6]] * 2)
    negative3 = np.array([[0.2, 0.3, 0.5], [0.5, 0.6, -0.1]])
    short2 = np.array([[0.4, 0.6], [0.4, 0.5]])
    tables = [np.array([[0.5, 0.5]]), good3, good2, good3]
    tables[1 + 2 * bad_first] = negative3
    tables[2] = short2
    net = star_net([2, 3, 2, 3], tables)
    want = outcome(reference_factors, net)
    assert outcome(transformed_factors, net) == want
    assert want == ("ValueError: probabilities must be >= 0" if bad_first == 0 else
                    "ValueError: probabilities sum to 0.9, not 1")


def test_rows_summing_at_the_tolerance_edge_are_judged_exactly():
    """Totals a few ulps either side of 1 +- NORM_TOL: the whole-net path
    accepts and rejects exactly the rows the per-row check does."""
    edge = []
    for sign in (1.0, -1.0):
        for k in range(-4, 5):
            second = 0.5 + sign * NORM_TOL + k * 2.0 ** -53
            edge.append([0.25, 0.25, second])
            edge.append([second, 0.125, 0.125, 0.125, 0.125])
    verdicts = set()
    for row in edge:
        want = outcome(reference_prob_to_poss, row)
        verdicts.add(isinstance(want, str))
        net = star_net([len(row)], [np.array([row])])
        got = outcome(transformed_factors, net)
        if isinstance(want, str):
            assert got == want == outcome(prob_to_poss, row)
        else:
            assert same_bits(got[0].table.reshape(1, -1), want[np.newaxis])
    assert verdicts == {True, False}


def test_many_seeded_rows_in_one_call_per_arity_are_bit_identical():
    """Thousands of rows with ties, zeros, sub-guard entries and nudged
    totals, one star net per arity, so each arity is one kernel call."""
    rng = np.random.default_rng(12)
    tiny = np.array([x for x in SPECIAL if x < 1e-11])  # swapped in, they keep the total
    for arity in range(1, 13):
        table = rng.choice([1.0, 2.0], size=(400, arity)) * rng.random((400, arity)) ** 4
        table[rng.random(table.shape) < 0.3] = 1.0  # ties
        table /= table.sum(axis=1, keepdims=True)
        swap = rng.random(table.shape) < 0.15
        table[swap] = rng.choice(tiny, size=int(swap.sum()))
        table[np.arange(400), table.argmax(axis=1)] += 1.0 - table.sum(axis=1)
        table *= 1.0 + rng.uniform(-0.99, 0.99, size=(400, 1)) * NORM_TOL
        net = star_net([400, arity], [np.full((1, 400), 1 / 400), table])
        want = reference_factors(net)[1]
        assert same_bits(transformed_factors(net)[1].table.reshape(want.shape), want)


def test_bench_sized_tables_are_bit_identical():
    """Many rows of wide arity in one call, as in an alert classifier."""
    rng = np.random.default_rng(11)
    tables = [rng.random((1, 150))]
    for _ in range(3):
        t = rng.random((150, 150)) ** 6
        t[rng.random(t.shape) < 0.3] = 0.0
        t[:, 0] += 1e-3
        tables.append(t / t.sum(axis=1, keepdims=True))
    tables[0] /= tables[0].sum()
    net = star_net([150] * 4, tables)
    for factor, want in zip(transformed_factors(net), reference_factors(net)):
        assert same_bits(factor.table.reshape(want.shape), want)


# -- ordering and tree -------------------------------------------------------------

def random_graph(rng: np.random.Generator) -> dict[int, frozenset[int]]:
    n = int(rng.integers(1, 40))
    density = rng.random() * 0.4
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                adj[a].add(b)
                adj[b].add(a)
    return {v: frozenset(s) for v, s in adj.items()}


def test_min_fill_equals_the_full_rescan_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(300):
        g = random_graph(rng)
        assert triangulate(g) == reference_triangulate(g)


def test_min_fill_equals_the_full_rescan_on_random_moral_graphs():
    rng = np.random.default_rng(4)
    for _ in range(100):
        net = random_net(rng, max_vars=60, max_arity=2, max_parents=int(rng.integers(1, 5)))
        g = moralize(net.dag)
        assert triangulate(g) == reference_triangulate(g)


def test_spanning_tree_equals_kruskal_over_all_pairs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        g = random_graph(rng)
        clusters = triangulate(g)[1]
        assert build_tree(clusters).edges == reference_tree_edges(clusters)


def test_both_semirings_share_one_plan():
    engine = HybridPropagator(random_net(np.random.default_rng(6), max_vars=8))
    assert engine._poss.plan is engine._prob.plan
    assert (engine._prob.semiring, engine._poss.semiring) == (SUM_PRODUCT, MAX_MIN)


def test_a_tree_over_other_arities_lends_no_plan():
    binary = star_net([2, 2], [np.full((1, 2), 0.5), np.full((2, 2), 0.5)])
    ternary = star_net([3, 3], [np.full((1, 3), 1 / 3), np.full((3, 3), 1 / 3)])
    tree = initialize_potentials(build_tree_for_net(binary), net_factors(binary))
    again = initialize_potentials(tree, net_factors(ternary), MAX_MIN)
    assert again.plan is not tree.plan and again.plan.arity.tolist() == [3, 3]


# -- golden record ------------------------------------------------------------------

def golden_nets() -> dict[str, BayesNet]:
    hypers = aggregate_alerts(load_alert_log(data_path("scenario", "alert_history.csv")))
    return {
        "scenario-plan": train_plan_model(build_transactions(hypers, dt=60.0)).net,
        "scenario-classifier": train_alert_classifier(hypers).net,
        "random-150": random_net(np.random.default_rng(292), max_vars=150,
                                 max_arity=3, max_parents=3),
    }


def test_engine_construction_matches_the_golden_record():
    """Order, tree and transformed tables recorded from the per-row,
    full-rescan, all-pairs engine; any change to one bit fails here."""
    with open(data_path("engine_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    nets = golden_nets()
    assert len(nets["random-150"].dag.variables) == 150
    for name, net in nets.items():
        record = golden[name]
        tree = build_tree_for_net(net)
        digest = hashlib.sha256()
        for factor in transformed_factors(net):
            digest.update(factor.table.tobytes())
        assert triangulate(moralize(net.dag))[0] == record["order"], name
        assert [list(c) for c in tree.clusters] == record["clusters"], name
        assert [[i, j, list(sep)] for i, j, sep in tree.edges] == record["edges"], name
        assert digest.hexdigest() == record["transform_sha256"], name

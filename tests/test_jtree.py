from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas.core import BayesNet, Cpt, Dag, Variable
from hidpas.jtree import (
    MAX_MIN,
    SUM_PRODUCT,
    Potential,
    build_tree,
    build_tree_for_net,
    choose_order,
    elimination_clusters,
    evidence_matrix,
    format_tree,
    has_running_intersection,
    initialize_potentials,
    marginal_from_cluster,
    moralize,
    net_factors,
    propagate,
    query_marginal,
)
from hidpas.oracles import enumerate_marginal, forest_net, random_evidence, random_net
from hidpas.possibility import HybridPropagator, ImpossibleEvidenceError, transformed_factors


def calibrate(jt, evidence=None, targets=None):
    """One evidence set calibrated as a batch of one."""
    return propagate(jt, evidence_matrix(jt, [evidence]), targets)


def graph(nodes, edges) -> dict:
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return {n: frozenset(s) for n, s in adj.items()}


# -- moralization --------------------------------------------------------------

def test_moralize_marries_co_parents(collider_net):
    g = moralize(collider_net.dag)
    assert g[0] == frozenset({1, 2})
    assert g[1] == frozenset({0, 2})


def test_moralize_chain_adds_nothing(chain5_net):
    g = moralize(chain5_net.dag)
    edges = {frozenset((a, b)) for a in g for b in g[a]}
    assert edges == {frozenset((i, i + 1)) for i in range(4)}


def test_moralize_edgeless():
    from hidpas.core import Dag, Variable

    dag = Dag((Variable(0, "a", ("0", "1")), Variable(1, "b", ("0", "1"))), ((), ()))
    g = moralize(dag)
    assert g == {0: frozenset(), 1: frozenset()}


# -- ordering -------------------------------------------------------------------

def test_min_fill_complete_graph_is_id_order():
    g = graph([0, 1, 2, 3], [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert choose_order(g) == [0, 1, 2, 3]


def test_min_fill_star_eliminates_leaves_first():
    g = graph([0, 1, 2, 3], [(3, 0), (3, 1), (3, 2)])  # 3 is the center
    assert choose_order(g) == [0, 1, 2, 3]
    # center with the lowest id: still not eliminated while it has 2+ neighbors
    g2 = graph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    order = choose_order(g2)
    assert order[:2] == [1, 2]  # leaves carry 0 fill, the center 3


# -- elimination clusters --------------------------------------------------------

def test_elimination_triangle_single_cluster():
    g = graph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
    clusters = elimination_clusters(g, ["A", "B", "C"])
    assert clusters == [frozenset({"A", "B", "C"})]


def test_elimination_chain_two_clusters():
    g = graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    clusters = elimination_clusters(g, ["A", "C", "B"])
    assert clusters == [frozenset({"A", "B"}), frozenset({"B", "C"})]


def test_elimination_single_node():
    g = graph(["X"], [])
    assert elimination_clusters(g, ["X"]) == [frozenset({"X"})]


def test_elimination_rejects_bad_order():
    g = graph([0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        elimination_clusters(g, [0, 0])


def test_elimination_adds_fill_edges_for_four_cycle():
    # 0-1-2-3-0 without a chord: eliminating 0 must connect 1 and 3
    g = graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    clusters = elimination_clusters(g, [0, 1, 2, 3])
    assert frozenset({0, 1, 3}) in clusters
    assert frozenset({1, 2, 3}) in clusters


# -- spanning tree ----------------------------------------------------------------

def test_build_tree_two_clusters():
    jt = build_tree([frozenset({"A", "B"}), frozenset({"B", "C"})])
    assert jt.edges == ((0, 1, ("B",)),)


def test_build_tree_chain_prefers_heavy_separators():
    jt = build_tree([
        frozenset({"A", "B", "C"}),
        frozenset({"B", "C", "D"}),
        frozenset({"C", "D", "E"}),
    ])
    seps = {tuple(sorted(e[2])) for e in jt.edges}
    assert seps == {("B", "C"), ("C", "D")}


def test_build_tree_single_cluster_no_edges():
    jt = build_tree([frozenset({"A", "B"})])
    assert jt.edges == ()


def test_running_intersection_on_random_nets():
    rng = np.random.default_rng(3)
    for _ in range(40):
        net = random_net(rng)
        jt = build_tree_for_net(net)
        assert has_running_intersection(jt)
        n_clusters = len(jt.clusters)
        assert len(jt.edges) <= n_clusters - 1


def test_every_family_is_covered():
    rng = np.random.default_rng(4)
    for _ in range(30):
        net = random_net(rng)
        jt = build_tree_for_net(net)
        for child, parents in enumerate(net.dag.parents):
            family = set(parents) | {child}
            assert any(family <= set(c) for c in jt.clusters)


def test_format_tree_dump(chain5_net):
    jt = build_tree_for_net(chain5_net)
    names = {v.id: v.name for v in chain5_net.dag.variables}
    dump = format_tree(jt, names)
    assert "cluster {" in dump and "-- sep {" in dump


# -- potentials and propagation ----------------------------------------------------

def test_initialize_single_cluster_is_joint(two_node_net):
    jt = build_tree_for_net(two_node_net)
    init = initialize_potentials(jt, net_factors(two_node_net), SUM_PRODUCT)
    [table] = init.cluster_tables
    np.testing.assert_allclose(table, [[0.4 * 0.8, 0.4 * 0.2], [0.6 * 0.1, 0.6 * 0.9]])


def test_initialize_factorless_cluster_is_ones():
    jt = build_tree([frozenset({0}), frozenset({1})])
    init = initialize_potentials(
        jt, [Potential((0,), np.array([0.5, 0.5])), Potential((1,), np.array([1.0, 1.0]))],
        SUM_PRODUCT,
    )
    np.testing.assert_allclose(init.cluster_tables[1], [1.0, 1.0])


def test_initialize_maxmin_min_combines():
    jt = build_tree([frozenset({0, 1})])
    fa = Potential((0,), np.array([1.0, 0.4]))
    fb = Potential((0, 1), np.array([[1.0, 0.3], [0.7, 1.0]]))
    init = initialize_potentials(jt, [fa, fb], MAX_MIN)
    np.testing.assert_allclose(init.cluster_tables[0], [[1.0, 0.3], [0.4, 0.4]])


def test_initialize_rejects_unplaceable_factor():
    jt = build_tree([frozenset({0}), frozenset({1})])
    with pytest.raises(RuntimeError):
        initialize_potentials(jt, [Potential((0, 1), np.ones((2, 2)))], SUM_PRODUCT)


def test_propagate_prior_marginal(two_node_net):
    jt = initialize_potentials(build_tree_for_net(two_node_net),
                               net_factors(two_node_net), SUM_PRODUCT)
    cal = calibrate(jt, {})
    np.testing.assert_allclose(query_marginal(cal, 1)[0], [0.38, 0.62], atol=1e-12)
    np.testing.assert_allclose(query_marginal(cal, 0)[0], [0.4, 0.6], atol=1e-12)


def test_propagate_posterior_matches_bayes_rule(two_node_net):
    jt = initialize_potentials(build_tree_for_net(two_node_net),
                               net_factors(two_node_net), SUM_PRODUCT)
    cal = calibrate(jt, {1: 1})
    np.testing.assert_allclose(query_marginal(cal, 0)[0], [0.08 / 0.62, 0.54 / 0.62],
                               atol=1e-12)


def test_propagate_maxmin_hand_example(two_node_net):
    fa = Potential((0,), np.array([1.0, 0.4]))
    fb = Potential((0, 1), np.array([[1.0, 0.3], [0.7, 1.0]]))
    jt = initialize_potentials(build_tree_for_net(two_node_net), [fa, fb], MAX_MIN)
    cal = calibrate(jt, {})
    np.testing.assert_allclose(query_marginal(cal, 1)[0], [1.0, 0.4], atol=1e-15)


def test_query_on_evidence_variable_is_degenerate(two_node_net):
    jt = initialize_potentials(build_tree_for_net(two_node_net),
                               net_factors(two_node_net), SUM_PRODUCT)
    cal = calibrate(jt, {0: 1})
    np.testing.assert_allclose(query_marginal(cal, 0)[0], [0.0, 1.0], atol=1e-15)


def test_query_unknown_variable_rejected(two_node_net):
    jt = initialize_potentials(build_tree_for_net(two_node_net),
                               net_factors(two_node_net), SUM_PRODUCT)
    cal = calibrate(jt, {})
    with pytest.raises(ValueError):
        query_marginal(cal, 17)


def test_impossible_evidence_raises():
    from hidpas.core import BayesNet, Cpt, Dag, Variable

    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    net = BayesNet(Dag((a, b), ((), (0,))), (
        Cpt(0, (), np.array([[1.0, 0.0]])),
        Cpt(1, (0,), np.array([[1.0, 0.0], [0.5, 0.5]])),
    ))
    jt = initialize_potentials(build_tree_for_net(net), net_factors(net), SUM_PRODUCT)
    assert not calibrate(jt, {1: 1}).possible[0]


def test_calibration_consistency_across_clusters():
    rng = np.random.default_rng(11)
    for _ in range(25):
        net = random_net(rng)
        ev = random_evidence(rng, net)
        for semiring, factors in ((SUM_PRODUCT, net_factors(net)),
                                  (MAX_MIN, transformed_factors(net))):
            jt = initialize_potentials(build_tree_for_net(net), factors, semiring)
            cal = calibrate(jt, ev)
            if not cal.possible[0]:
                continue
            for var in range(len(net.dag.variables)):
                holders = cal.containing_clusters(var)
                if len(holders) < 2:
                    continue
                base = marginal_from_cluster(cal, holders[0], var)
                for h in holders[1:]:
                    np.testing.assert_allclose(
                        marginal_from_cluster(cal, h, var), base, atol=1e-9)


def test_maxmin_evidence_monotonicity():
    """More evidence never raises any unnormalized possibility."""
    rng = np.random.default_rng(13)
    for _ in range(25):
        net = random_net(rng)
        factors = transformed_factors(net)
        structure = build_tree_for_net(net)
        init = initialize_potentials(structure, factors, MAX_MIN)
        ev = random_evidence(rng, net)
        if not ev:
            continue
        partial = dict(list(ev.items())[:-1])
        more = calibrate(init, ev)
        less = calibrate(init, partial)
        if not (more.possible[0] and less.possible[0]):
            continue
        for var in range(len(net.dag.variables)):
            pi_more = query_marginal(more, var, normalize=False)[0]
            pi_less = query_marginal(less, var, normalize=False)[0]
            assert np.all(pi_more <= pi_less + 1e-12)


def test_oracle_equivalence_spot_checks():
    rng = np.random.default_rng(17)
    for _ in range(30):
        net = random_net(rng)
        ev = random_evidence(rng, net)
        arities = [v.arity for v in net.dag.variables]
        for semiring, factors, tol in (
            (SUM_PRODUCT, net_factors(net), 1e-9),
            (MAX_MIN, transformed_factors(net), 1e-12),
        ):
            jt = initialize_potentials(build_tree_for_net(net), factors, semiring)
            cal = calibrate(jt, ev)
            if not cal.possible[0]:
                cal = None
            for var in range(len(arities)):
                expected = enumerate_marginal(factors, arities,
                                              ev, var, semiring)
                if cal is None or expected is None:
                    assert (cal is None) == (expected is None)
                    continue
                np.testing.assert_allclose(query_marginal(cal, var)[0], expected, atol=tol)


# -- batched calibration ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_batched_calibration_equals_single_queries(seed, rows):
    """Every row of one batched calibration is bit-identical to calibrating
    its evidence alone, impossible rows included, in both semirings."""
    rng = np.random.default_rng(seed)
    net = forest_net(rng)
    evidence = [random_evidence(rng, net) for _ in range(rows)]
    for semiring, factors in ((SUM_PRODUCT, net_factors(net)),
                              (MAX_MIN, transformed_factors(net))):
        jt = initialize_potentials(build_tree_for_net(net), factors, semiring)
        batch = propagate(jt, evidence_matrix(jt, evidence))
        assert batch.possible.shape == (rows,)
        for row, ev in enumerate(evidence):
            alone = calibrate(jt, ev)  # a batch of one
            if not alone.possible[0]:
                assert not batch.possible[row]
                continue
            assert batch.possible[row]
            for got, want in zip(batch.cluster_tables, alone.cluster_tables):
                assert np.array_equal(got[min(row, len(got) - 1)], want[0])
            for var in range(len(net.dag.variables)):
                assert np.array_equal(query_marginal(batch, var)[row],
                                      query_marginal(alone, var)[0])

    targets = list(range(len(net.dag.variables)))
    for ev, got in zip(evidence, HybridPropagator(net).query_batch(evidence, targets)):
        try:
            alone = HybridPropagator(net).query(ev, targets)  # a fresh engine: no memo
        except ImpossibleEvidenceError:
            alone = None
        assert got == alone


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_pruned_calibration_reads_out_as_the_full_one(seed, rows):
    """For every target subset, a calibration pruned to the targets' read-out
    clusters reads out bit-identical to the full calibration, in both
    semirings, impossible rows included; the clusters it skipped are None."""
    rng = np.random.default_rng(seed)
    net = forest_net(rng)
    n = len(net.dag.variables)
    evidence = [random_evidence(rng, net) for _ in range(rows)]
    for semiring, factors in ((SUM_PRODUCT, net_factors(net)),
                              (MAX_MIN, transformed_factors(net))):
        jt = initialize_potentials(build_tree_for_net(net), factors, semiring)
        observed = evidence_matrix(jt, evidence)
        full = propagate(jt, observed)
        for subset in range(1, 2 ** n):
            targets = [v for v in range(n) if subset >> v & 1]
            pruned = propagate(jt, observed, targets)
            assert np.array_equal(pruned.possible, full.possible)
            for var in targets:
                assert np.array_equal(query_marginal(pruned, var), query_marginal(full, var))
            for c, table in enumerate(pruned.cluster_tables):
                if table is None:
                    with pytest.raises(ValueError, match="uncalibrated"):
                        marginal_from_cluster(pruned, c, jt.clusters[c][0])
                else:
                    assert np.array_equal(table, full.cluster_tables[c])


def test_pruned_calibration_skips_distribute_at_the_root(chain5_net):
    """A calibration whose targets are all homed at a root runs the collect
    messages only and leaves every other table None; one target homed off
    the root runs the full calibration and keeps every table."""
    for semiring, factors in ((SUM_PRODUCT, net_factors(chain5_net)),
                              (MAX_MIN, transformed_factors(chain5_net))):
        jt = initialize_potentials(build_tree_for_net(chain5_net), factors, semiring)
        plan = jt.plan
        assert len(jt.edges) == 3 and plan.roots == {0}
        assert len(plan.collect) == len(plan.distribute) == 3
        assert ([(m.source, m.target) for m in plan.collect]
                == [(m.target, m.source) for m in reversed(plan.distribute)])
        observed = evidence_matrix(jt, [{4: 1}, {}])
        full = propagate(jt, observed)
        at_root = [v for v in jt.clusters[0] if plan.home[v] == 0]
        off_root = [v for v in range(5) if plan.home[v] != 0]
        assert at_root and off_root

        collected = propagate(jt, observed, at_root)
        assert collected.separator_tables == (None,) * 3
        assert all(t is None for t in collected.cluster_tables[1:])
        assert np.array_equal(collected.cluster_tables[0], full.cluster_tables[0])
        for var in at_root:
            assert np.array_equal(query_marginal(collected, var), query_marginal(full, var))

        calibrated = propagate(jt, observed, at_root + off_root[:1])
        for got, want in zip(calibrated.cluster_tables + calibrated.separator_tables,
                             full.cluster_tables + full.separator_tables):
            assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="absent from the tree"):
        calibrate(jt, {}, [7])


def test_batched_propagate_checks_evidence_range(two_node_net):
    jt = initialize_potentials(build_tree_for_net(two_node_net),
                               net_factors(two_node_net), SUM_PRODUCT)
    with pytest.raises(ValueError, match="out of range for variable 1"):
        propagate(jt, np.array([[0, -1], [1, 2]]))
    with pytest.raises(ValueError, match="out of range"):
        calibrate(jt, {0: -1})
    with pytest.raises(ValueError, match="absent from the tree"):
        calibrate(jt, {5: 0})
    with pytest.raises(ValueError, match="shape"):
        propagate(jt, np.array([[0, 0, 0]]))
    with pytest.raises(ValueError, match="integer"):
        propagate(jt, np.array([[0.0, 1.0]]))


def test_only_an_uncalibrated_tree_propagates_and_only_a_calibrated_one_reads(two_node_net):
    jt = initialize_potentials(build_tree_for_net(two_node_net),
                               net_factors(two_node_net), SUM_PRODUCT)
    with pytest.raises(ValueError, match="not calibrated"):
        query_marginal(jt, 0)
    with pytest.raises(ValueError, match="uncalibrated"):
        marginal_from_cluster(jt, 0, jt.clusters[0][0])
    with pytest.raises(ValueError, match="evidence_matrix"):
        propagate(jt, {0: 1})
    cal = calibrate(jt, {0: 1})
    with pytest.raises(ValueError, match="already calibrated"):
        propagate(cal, evidence_matrix(jt, [{}]))
    with pytest.raises(ValueError, match="already calibrated"):
        calibrate(calibrate(jt, {}, [1]), {}, [0])


def two_roots(pa, pb) -> BayesNet:
    """Two unconnected binary roots: a forest of two one-cluster trees."""
    variables = (Variable(0, "A", ("0", "1")), Variable(1, "B", ("0", "1")))
    return BayesNet(Dag(variables, ((), ())), (Cpt(0, (), np.array([pa])),
                                               Cpt(1, (), np.array([pb]))))


def test_maxmin_forest_cap_matches_oracle():
    """Evidence A=1 has possibility 0.1, which caps B's component: B's
    normalized possibility is flat, not the [1, 0.3] of B alone."""
    net = two_roots([0.9, 0.1], [0.7, 0.3])
    factors = transformed_factors(net)
    jt = initialize_potentials(build_tree_for_net(net), factors, MAX_MIN)
    assert len(jt.clusters) == 2 and not jt.edges
    got = query_marginal(calibrate(jt, {0: 1}), 1)[0]
    expected = enumerate_marginal(factors, [2, 2], {0: 1}, 1, MAX_MIN)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-12)
    uncapped = query_marginal(calibrate(jt, {}), 1)[0]
    np.testing.assert_allclose(uncapped, [1.0, 0.3], atol=1e-12)


@pytest.mark.parametrize("mode", ["max-product", "sum_product", "MAX_MIN"])
def test_oracle_rejects_an_unknown_mode(two_node_net, mode):
    """The reference computes only the two semirings it names; any other mode raises."""
    with pytest.raises(ValueError, match="unknown mode"):
        enumerate_marginal(net_factors(two_node_net), [2, 2], {}, 1, mode)


def test_forest_oracle_both_semirings():
    rng = np.random.default_rng(23)
    capped = 0
    for _ in range(40):
        net = forest_net(rng)
        ev = random_evidence(rng, net)
        arities = [v.arity for v in net.dag.variables]
        for semiring, factors, tol in ((SUM_PRODUCT, net_factors(net), 1e-9),
                                       (MAX_MIN, transformed_factors(net), 1e-12)):
            jt = initialize_potentials(build_tree_for_net(net), factors, semiring)
            cal = calibrate(jt, ev)
            if not cal.possible[0]:
                cal = None
            for var in range(len(arities)):
                expected = enumerate_marginal(factors, arities, ev, var, semiring)
                if cal is None or expected is None:
                    assert (cal is None) == (expected is None)
                    continue
                got = query_marginal(cal, var)[0]
                np.testing.assert_allclose(got, expected, atol=tol)
                component = {c: k for k, (clusters, _) in enumerate(jt.plan.components)
                             for c in clusters}
                if semiring == MAX_MIN and component[jt.plan.home[var]] not in {
                        component[jt.plan.home[v]] for v in ev}:
                    capped += int(not np.allclose(
                        got, query_marginal(calibrate(jt, {}), var)[0]))
    assert capped > 0  # evidence in one component moved another's marginal

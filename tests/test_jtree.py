from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas.core import BayesNet, Dag, Variable
from hidpas.jtree import (
    MAX_MIN,
    SUM_PRODUCT,
    JunctionTree,
    Potential,
    build_tree,
    build_tree_for_net,
    evidence_matrix,
    format_tree,
    initialize_potentials,
    marginal_from_cluster,
    moralize,
    net_factors,
    propagate,
    query_marginal,
    triangulate,
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


# -- triangulation: the min-fill order and its elimination clusters ---------------

def test_min_fill_complete_graph_is_id_order():
    g = graph([0, 1, 2, 3], [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert triangulate(g) == ([0, 1, 2, 3], [frozenset(range(4))])


def test_min_fill_star_eliminates_leaves_first():
    g = graph([0, 1, 2, 3], [(3, 0), (3, 1), (3, 2)])  # 3 is the center
    assert triangulate(g)[0] == [0, 1, 2, 3]
    # center with the lowest id: still not eliminated while it has 2+ neighbors
    g2 = graph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    order, clusters = triangulate(g2)
    assert order[:2] == [1, 2]  # leaves carry 0 fill, the center 3
    assert clusters == [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})]


def test_elimination_triangle_single_cluster():
    g = graph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
    assert triangulate(g) == (["A", "B", "C"], [frozenset({"A", "B", "C"})])


def test_elimination_chain_two_clusters():
    g = graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    order, clusters = triangulate(g)
    assert order == ["A", "B", "C"]
    assert clusters == [frozenset({"A", "B"}), frozenset({"B", "C"})]


def test_elimination_single_node():
    g = graph(["X"], [])
    assert triangulate(g) == (["X"], [frozenset({"X"})])


def test_elimination_adds_fill_edges_for_four_cycle():
    # 0-1-2-3-0 without a chord: eliminating 0 must connect 1 and 3
    g = graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    order, clusters = triangulate(g)
    assert order == [0, 1, 2, 3]
    assert clusters == [frozenset({0, 1, 3}), frozenset({1, 2, 3})]


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


def has_running_intersection(jt: JunctionTree) -> bool:
    """For every variable, the clusters containing it form a connected subtree."""
    adj: dict[int, set[int]] = {i: set() for i in range(len(jt.clusters))}
    for i, j, _ in jt.edges:
        adj[i].add(j)
        adj[j].add(i)
    holders: dict = {}
    for i, scope in enumerate(jt.clusters):
        for v in scope:
            holders.setdefault(v, []).append(i)
    for held in holders.values():
        seen = {held[0]}
        stack = [held[0]]
        while stack:
            for v in adj[stack.pop()]:
                if v in held and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(held):
            return False
    return True


def test_running_intersection_fails_on_a_split_variable():
    """A's two clusters are joined only through {B,C}, which lacks A; with A
    in the middle cluster the property holds."""
    jt = JunctionTree(clusters=(("A", "B"), ("B", "C"), ("A", "C")),
                      edges=((0, 1, ("B",)), (1, 2, ("C",))))
    assert not has_running_intersection(jt)
    joined = JunctionTree(clusters=(("A", "B"), ("A", "B", "C"), ("A", "C")),
                          edges=((0, 1, ("A", "B")), (1, 2, ("A", "C"))))
    assert has_running_intersection(joined)


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
    from hidpas.core import BayesNet, Dag, Variable

    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    net = BayesNet(Dag((a, b), ((), (0,))), (
        np.array([[1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.5, 0.5]]),
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
                holders = [c for c, _ in cal.plan.holders[var]]
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
            pi_more, pi_less = (_unnormalized_max_min(cal, var) for cal in (more, less))
            assert np.all(pi_more <= pi_less + 1e-12)


def _unnormalized_max_min(cal, var):
    """The max-min marginal of var in the first row of a calibrated tree,
    read off its home cluster without renormalizing."""
    cluster = cal.plan.home[var]
    scope = cal.clusters[cluster]
    table = cal.cluster_tables[cluster][0]
    return np.maximum.reduce(table, axis=tuple(i for i, v in enumerate(scope) if v != var))


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

    targets = tuple(range(len(net.dag.variables)))
    engine = HybridPropagator(net)
    for ev, got in zip(evidence, engine.solve(evidence_matrix(engine._prob, evidence), targets)):
        try:
            alone = HybridPropagator(net).query(ev, targets)
        except ImpossibleEvidenceError:
            alone = None
        assert got == alone


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_pruned_calibration_reads_out_as_the_full_one(seed, rows):
    """For every target subset, a calibration pruned to the targets' read-out
    clusters reads out bit-identical to the full calibration, in both
    semirings, impossible rows included. It holds tables for exactly the
    roots and the clusters on their paths to the targets' read-out clusters;
    the clusters it skipped are None."""
    rng = np.random.default_rng(seed)
    net = forest_net(rng)
    n = len(net.dag.variables)
    evidence = [random_evidence(rng, net) for _ in range(rows)]
    for semiring, factors in ((SUM_PRODUCT, net_factors(net)),
                              (MAX_MIN, transformed_factors(net))):
        jt = initialize_potentials(build_tree_for_net(net), factors, semiring)
        observed = evidence_matrix(jt, evidence)
        full = propagate(jt, observed)
        plan = jt.plan
        for subset in range(1, 2 ** n):
            targets = [v for v in range(n) if subset >> v & 1]
            pruned = propagate(jt, observed, targets)
            paths = set()
            for c in [plan.home[v] for v in targets] + [cs[0] for cs in plan.components]:
                while c >= 0:
                    paths.add(c)
                    c = plan.parent[c]
            assert {c for c, t in enumerate(pruned.cluster_tables) if t is not None} == paths
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
    the root adds the distribute messages on the root's path to its home,
    and only the clusters on that path hold tables."""
    for semiring, factors in ((SUM_PRODUCT, net_factors(chain5_net)),
                              (MAX_MIN, transformed_factors(chain5_net))):
        jt = initialize_potentials(build_tree_for_net(chain5_net), factors, semiring)
        plan = jt.plan
        assert len(jt.edges) == 3 and plan.parent == (-1, 0, 1, 2)
        assert len(plan.collect) == len(plan.distribute) == 3
        assert ([(m.source, m.target) for m in plan.collect]
                == [(m.target, m.source) for m in reversed(plan.distribute)])
        observed = evidence_matrix(jt, [{4: 1}, {}])
        full = propagate(jt, observed)
        at_root = [v for v in jt.clusters[0] if plan.home[v] == 0]
        off_root = [v for v in range(5) if plan.home[v] != 0]
        assert at_root and off_root

        collected = propagate(jt, observed, at_root)
        assert all(t is None for t in collected.cluster_tables[1:])
        assert np.array_equal(collected.cluster_tables[0], full.cluster_tables[0])
        for var in at_root:
            assert np.array_equal(query_marginal(collected, var), query_marginal(full, var))

        calibrated = propagate(jt, observed, at_root + off_root[:1])
        assert plan.home[off_root[0]] == 1
        assert len(calibrated.cluster_tables) == len(full.cluster_tables) == 4
        assert calibrated.cluster_tables[2:] == (None, None)
        for got, want in zip(calibrated.cluster_tables[:2], full.cluster_tables):
            assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="absent from the tree"):
        calibrate(jt, {}, [7])


def test_distribute_replays_collect_in_reverse_on_a_forest():
    """On forests of several multi-cluster components, the distribute
    schedule is the whole collect schedule reversed with source and target
    swapped (so the last component distributes first), the components
    partition the clusters, each led by its root, and each collect message
    runs from a cluster to its parent."""
    rng = np.random.default_rng(5)
    forests = 0
    while forests < 5:
        net = forest_net(rng)
        jt = build_tree_for_net(net)
        plan = initialize_potentials(jt, net_factors(net)).plan
        if sum(len(clusters) > 1 for clusters in plan.components) < 2:
            continue
        forests += 1
        assert ([(m.target, m.source) for m in plan.distribute]
                == [(m.source, m.target) for m in reversed(plan.collect)])
        assert sorted(c for clusters in plan.components for c in clusters) == list(
            range(len(jt.clusters)))
        assert [c for c, up in enumerate(plan.parent) if up < 0] == [
            clusters[0] for clusters in plan.components]
        assert {m.source: m.target for m in plan.collect} == {
            c: up for c, up in enumerate(plan.parent) if up >= 0}
        assert plan.distribute[0].source in [c for c in plan.components if len(c) > 1][-1]


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
    engine = HybridPropagator(two_node_net)
    with pytest.raises(ValueError, match="variable 1.0 is not an integer"):
        engine.query({1.0: 0}, [0])
    with pytest.raises(ValueError, match="variable 1.0 is not an integer"):
        engine.query({0: 0}, [1.0])


def test_read_outs_check_the_variable_as_propagate_does(two_node_net):
    """A variable id must be an int or a numpy integer the tree holds, in
    `propagate` and in both read-outs alike."""
    jt = initialize_potentials(build_tree_for_net(two_node_net),
                               net_factors(two_node_net), SUM_PRODUCT)
    cal = calibrate(jt, {0: 1})
    home = cal.plan.home[1]
    for bad in (1.0, np.float64(1.0), "1"):
        message = re.escape(f"variable {bad!r} is not an integer")
        with pytest.raises(ValueError, match=message):
            calibrate(jt, {}, [bad])
        with pytest.raises(ValueError, match=message):
            query_marginal(cal, bad)
        with pytest.raises(ValueError, match=message):
            marginal_from_cluster(cal, home, bad)
    for read in (lambda var: query_marginal(cal, var),
                 lambda var: marginal_from_cluster(cal, home, var)):
        with pytest.raises(ValueError, match="variable 5 is absent from the tree"):
            read(5)
        assert np.array_equal(read(np.int64(1)), read(1))


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
    return BayesNet(Dag(variables, ((), ())), (np.array([pa]), np.array([pb])))


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
                component = {c: k for k, clusters in enumerate(jt.plan.components)
                             for c in clusters}
                if semiring == MAX_MIN and component[jt.plan.home[var]] not in {
                        component[jt.plan.home[v]] for v in ev}:
                    capped += int(not np.allclose(
                        got, query_marginal(calibrate(jt, {}), var)[0]))
    assert capped > 0  # evidence in one component moved another's marginal

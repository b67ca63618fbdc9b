from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas.core import BayesNet, Dag, Variable
from hidpas import possibility
from hidpas.oracles import (
    direct_power_transform,
    enumerate_marginal,
    forest_net,
    random_evidence,
    random_net,
)
from hidpas.jtree import evidence_matrix
from hidpas.possibility import (
    ClassifierModel,
    HybridMarginal,
    ImpossibleEvidenceError,
    HybridPropagator,
    Memo,
    necessity,
    prob_to_poss,
    select_state,
    transformed_factors,
)
from hidpas.prediction import OCCURRENCE, PRESENT, PlanModel, predict_attacks

from conftest import counting


def positive_distributions(max_n: int = 10):
    """Normalized vectors with entries either 0 or comfortably above the
    zero guard (values inside (0, 1e-12) are zeroed by design)."""
    return (
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=max_n)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


# -- prob_to_poss ---------------------------------------------------------------

def test_transform_hand_example():
    np.testing.assert_array_equal(prob_to_poss([0.5, 0.3, 0.2]), [1.0, 0.5, 0.2])


def test_transform_uniform_gives_total_ignorance():
    np.testing.assert_array_equal(prob_to_poss([0.5, 0.5]), [1.0, 1.0])


def test_transform_preserves_certainty():
    np.testing.assert_array_equal(prob_to_poss([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_transform_unsorted_input_mapped_back():
    np.testing.assert_array_equal(prob_to_poss([0.2, 0.5, 0.3]), [0.2, 1.0, 0.5])


def test_transform_rejects_bad_input():
    with pytest.raises(ValueError):
        prob_to_poss([0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValueError):
        prob_to_poss([1.2, -0.2])


def test_transform_matches_power_formula_on_decreasing_input():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_allclose(prob_to_poss(p), direct_power_transform(p), atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(positive_distributions())
def test_transform_order_preservation_and_ties(p):
    pi = prob_to_poss(p)
    assert pi.max() == 1.0
    for i in range(len(p)):
        for j in range(len(p)):
            if p[i] > p[j]:
                assert pi[i] >= pi[j]
            if p[i] == p[j]:
                assert pi[i] == pi[j]


@settings(max_examples=300, deadline=None)
@given(positive_distributions())
def test_transform_sandwich_exact(p):
    pi = prob_to_poss(p)
    n = necessity(pi)
    assert np.all(n <= p) and np.all(p <= pi)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_transform_tail_sum_identity(seed):
    rng = np.random.default_rng(seed)
    from hidpas.oracles import random_decreasing_distribution

    p = random_decreasing_distribution(rng)
    pi = prob_to_poss(p)
    tails = np.array([math.fsum(p[i:].tolist()) for i in range(p.size)])
    tails[0] = 1.0
    np.testing.assert_allclose(pi, tails, atol=1e-12)


def test_transform_zero_states_stay_zero():
    pi = prob_to_poss([0.7, 0.3, 0.0])
    assert pi[2] == 0.0
    np.testing.assert_allclose(pi, [1.0, 0.3, 0.0])


# -- necessity -------------------------------------------------------------------

def test_necessity_hand_example():
    np.testing.assert_allclose(necessity([1.0, 0.5, 0.2]), [0.5, 0.0, 0.0])


def test_necessity_ignorance_is_vacuous():
    np.testing.assert_array_equal(necessity([1.0, 1.0]), [0.0, 0.0])


def test_necessity_certainty():
    np.testing.assert_array_equal(necessity([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_necessity_at_most_one_positive():
    rng = np.random.default_rng(2)
    for _ in range(200):
        pi = rng.random(5)
        pi[rng.integers(0, 5)] = 1.0
        assert int(np.sum(necessity(pi) > 0)) <= 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda states: st.lists(
    st.lists(st.sampled_from([0.0, 0.2, 1 / 3, 0.5, 0.7, 1.0]) | st.floats(0, 1),
             min_size=states, max_size=states),
    min_size=1, max_size=5)))
def test_necessity_rows_equal_the_reference_loop(rows):
    """One row or many, ties included: 1 - max of the other states, floored
    at 0, bit for bit."""
    def reference(row):
        return [max(0.0, 1.0 - max(row[:i] + row[i + 1:])) if len(row) > 1 else 1.0
                for i in range(len(row))]

    batched = necessity(np.array(rows))
    for row, got in zip(rows, batched):
        assert got.tolist() == reference(row) == necessity(row).tolist()


# -- state selection ---------------------------------------------------------------

def test_select_state_prefers_informative_then_lowest_index():
    # state 1 is the most probable but uninformative (gap 0.8 > tau)
    hm = HybridMarginal(0, (0.0, 0.0, 0.0), (0.3, 0.4, 0.3), (1.0, 0.8, 0.2))
    assert select_state(hm, 0.5) == (2, False)
    tied = HybridMarginal(0, (0.0, 0.0), (0.5, 0.5), (1.0, 1.0))
    assert select_state(tied, 1.0) == (0, False)
    assert select_state(tied, 0.5) == (0, True)  # nothing informative: plain argmax
    skewed = HybridMarginal(0, (0.0, 0.0), (0.4, 0.6), (1.0, 1.0))
    assert select_state(skewed, 0.5) == (1, True)


# -- informativeness ---------------------------------------------------------------

def test_marginal_informative_cases():
    # state 0 carries the (N, P, Pi) triple; state 1 completes a valid marginal
    assert HybridMarginal(0, (0.5, 0.0), (0.62, 0.38), (0.62, 1.0)).informative(0, 0.5)
    assert not HybridMarginal(0, (0.2, 0.0), (0.5, 0.5), (0.9, 1.0)).informative(0, 0.5)
    assert HybridMarginal(0, (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)).informative(0, 0.0)


# -- hybrid propagation --------------------------------------------------------------

def test_hybrid_two_node_matches_both_oracles(two_node_net):
    hm = HybridPropagator(two_node_net).query({}, [1])[1]
    np.testing.assert_allclose(hm.probability, [0.38, 0.62], atol=1e-12)
    arities = [v.arity for v in two_node_net.dag.variables]
    expected_pi = enumerate_marginal(transformed_factors(two_node_net), arities,
                                     {}, 1, "max-min")
    np.testing.assert_allclose(hm.possibility, expected_pi, atol=1e-15)
    np.testing.assert_allclose(hm.necessity, necessity(np.asarray(expected_pi)),
                               atol=1e-15)


def test_hybrid_deterministic_net_degenerates():
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    net = BayesNet(Dag((a, b), ((), (0,))), (
        np.array([[0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
    ))
    result = HybridPropagator(net).query({0: 1}, [1])[1]
    assert result.triple(1) == (1.0, 1.0, 1.0)
    assert result.triple(0) == (0.0, 0.0, 0.0)


def test_hybrid_single_root_composes_transform():
    c = Variable(0, "C", ("x", "y", "z"))
    net = BayesNet(Dag((c,), ((),)), (np.array([[0.5, 0.3, 0.2]]),))
    hm = HybridPropagator(net).query({}, [0])[0]
    assert hm.necessity == (0.5, 0.0, 0.0)
    assert hm.probability == (0.5, 0.3, 0.2)
    assert hm.possibility == (1.0, 0.5, 0.2)
    assert hm.sandwich_violation() == 0.0


def test_hybrid_impossible_evidence_raises(two_node_net):
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    net = BayesNet(Dag((a, b), ((), (0,))), (
        np.array([[1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.5, 0.5]]),
    ))
    with pytest.raises(ImpossibleEvidenceError):
        HybridPropagator(net).query({1: 1}, [1])


def test_hybrid_probability_component_bit_identical_to_plain():
    from hidpas.jtree import (SUM_PRODUCT, build_tree_for_net, evidence_matrix,
                              initialize_potentials, net_factors, propagate,
                              query_marginal)

    rng = np.random.default_rng(23)
    for _ in range(20):
        net = random_net(rng)
        ev = random_evidence(rng, net)
        try:
            marginals = HybridPropagator(net).query(ev, list(range(len(net.dag.variables))))
        except ImpossibleEvidenceError:
            continue
        jt = initialize_potentials(build_tree_for_net(net), net_factors(net),
                                   SUM_PRODUCT)
        cal = propagate(jt, evidence_matrix(jt, [ev]))
        for var, hm in marginals.items():
            plain = query_marginal(cal, var)[0]
            assert tuple(plain) == hm.probability  # bit-identical


def test_hybrid_sandwich_violations_reported_not_asserted():
    """Measure how often the interval brackets the propagated probability."""
    rng = np.random.default_rng(29)
    cases = violations = 0
    worst = 0.0
    for _ in range(40):
        net = random_net(rng)
        ev = random_evidence(rng, net)
        try:
            marginals = HybridPropagator(net).query(ev, list(range(len(net.dag.variables))))
        except ImpossibleEvidenceError:
            continue
        for hm in marginals.values():
            cases += 1
            breach = hm.sandwich_violation()
            if breach > 1e-12:
                violations += 1
                worst = max(worst, breach)
    print(f"\npost-propagation interval breaches: {violations}/{cases} "
          f"(worst {worst:.4f})")
    assert cases > 0


def occurrence_net(net: BayesNet) -> BayesNet:
    """A binary net with its variables' states renamed OCCURRENCE, as a plan
    model's are."""
    variables = tuple(Variable(v.id, v.name, OCCURRENCE) for v in net.dag.variables)
    return BayesNet(Dag(variables, net.dag.parents), net.cpts)


def test_post_propagation_breaches_are_logged_at_debug_level(caplog):
    """predict_attacks logs each target whose interval misses its
    probability, for a forecast its memo answers as well as one it
    calibrates, at DEBUG level only."""
    rng = np.random.default_rng(29)
    cases = [(net, random_evidence(rng, net)) for net in (random_net(rng) for _ in range(40))]
    forecasts = []
    for _ in range(40):
        plan = PlanModel(occurrence_net(random_net(rng, max_arity=2)), 0.5)
        n = len(plan.hyper_names)
        forecasts.append((plan, sorted(rng.choice(n, size=int(rng.integers(0, n // 2 + 1)),
                                                  replace=False).tolist())))
    expected = []
    with caplog.at_level("DEBUG", logger="hidpas.possibility"):
        for plan, observed in forecasts:
            targets = [v for v in range(len(plan.hyper_names)) if v not in observed]
            marginals = plan.engine.query({v: PRESENT for v in observed}, targets)
            for _ in range(2):
                predict_attacks(plan, observed)
                for var, hm in marginals.items():
                    if (breach := hm.sandwich_violation()) > 0:
                        expected.append(f"post-propagation interval breach {breach:.3g} "
                                        f"on variable {var}")
    assert expected
    assert [r.getMessage() for r in caplog.records] == expected
    caplog.clear()
    with caplog.at_level("INFO", logger="hidpas.possibility"):
        for plan, observed in forecasts:
            predict_attacks(plan, observed)
            predict_attacks(replace(plan), observed)
    assert caplog.records == []

    # classify logs its class variable's breach for every row it decides, a
    # row its memo answers as well as one it calibrates
    caplog.clear()
    expected = []
    with caplog.at_level("DEBUG", logger="hidpas.possibility"):
        for net, ev in cases:
            model = ClassifierModel(net, len(net.dag.variables) - 1, 0.5)
            observed = evidence_matrix(model.engine._prob, [ev, ev])
            for _ in range(2):
                for result in model.classify(observed, [(), ()], logging.getLogger("test")):
                    if (breach := result.marginal.sandwich_violation()) > 0:
                        expected.append(f"post-propagation interval breach {breach:.3g} "
                                        f"on variable {model.class_var}")
    assert len(expected) > 4
    assert [r.getMessage() for r in caplog.records if r.name == "hidpas.possibility"] == expected


def test_hybrid_propagator_is_reusable(two_node_net):
    engine = HybridPropagator(two_node_net)
    first = engine.query({}, [1])[1]
    second = engine.query({0: 1}, [1])[1]
    third = engine.query({}, [1])[1]
    assert first == third  # engine state is not consumed by queries
    np.testing.assert_allclose(second.probability, [0.1, 0.9], atol=1e-12)


def test_hybrid_marginal_type_invariants_enforced():
    with pytest.raises(ValueError):
        HybridMarginal(0, (0.9, 0.0), (0.5, 0.5), (0.5, 1.0))  # N > Pi
    with pytest.raises(ValueError):
        HybridMarginal(0, (0.0, 0.0), (0.7, 0.7), (1.0, 1.0))  # P sums to 1.4


# -- the engine and the models' memos ---------------------------------------------

def recall(memo: Memo, engine: HybridPropagator, rows, targets) -> list:
    """The memo's answers for evidence dicts, solved by the engine: the path
    a model's memo takes."""
    targets = tuple(targets)
    return memo.recall(evidence_matrix(engine._prob, rows), targets,
                       lambda rows: engine.solve(rows, targets))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=5), min_size=1, max_size=4))
def test_memoized_queries_equal_fresh_ones(seed, forest, calls):
    """Rows drawn from a small pool repeat within and across calls, over
    varying target lists; every answer a memo recalls over `solve` equals a
    fresh engine queried on that row alone, and every None an
    ImpossibleEvidenceError."""
    rng = np.random.default_rng(seed)
    net = forest_net(rng) if forest else random_net(rng, max_vars=6)
    n = len(net.dag.variables)
    pool = [random_evidence(rng, net) for _ in range(4)]
    target_lists = [list(range(n)), [n - 1], [0, n - 1]]
    engine, memo = HybridPropagator(net), Memo()
    for k, picks in enumerate(calls):
        targets = target_lists[k % len(target_lists)]
        for i, got in zip(picks, recall(memo, engine, [pool[i] for i in picks], targets)):
            try:
                alone = HybridPropagator(net).query(pool[i], targets)
            except ImpossibleEvidenceError:
                alone = None
            assert got == alone


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=4), min_size=1, max_size=6))
def test_the_engine_keeps_no_state(seed, calls):
    """After any sequence of `query` (a call of one row) and `solve` calls,
    the engine holds the attributes it was built with, and every answer
    equals a fresh engine's."""
    rng = np.random.default_rng(seed)
    net = forest_net(rng)
    pool = [random_evidence(rng, net) for _ in range(4)]
    targets = tuple(sorted(set(rng.integers(0, len(net.dag.variables), size=3).tolist())))
    engine = HybridPropagator(net)
    built = dict(vars(engine))

    def answer(by: HybridPropagator, rows: list) -> list:
        if len(rows) > 1:
            return by.solve(evidence_matrix(by._prob, rows), targets)
        try:
            return [by.query(rows[0], targets)]
        except ImpossibleEvidenceError:
            return [None]

    for picks in calls:
        rows = [pool[i] for i in picks]
        assert answer(engine, rows) == answer(HybridPropagator(net), rows)
    assert vars(engine).keys() == built.keys()
    assert all(vars(engine)[name] is value for name, value in built.items())


def test_memo_evicts_the_oldest_entry_past_its_cap(two_node_net, monkeypatch):
    calibrations = counting(monkeypatch, possibility, "propagate")
    monkeypatch.setattr(possibility, "MEMO_MARGINALS", 3)
    engine, memo = HybridPropagator(two_node_net), Memo()
    a, b, c, d = {}, {0: 0}, {0: 1}, {1: 0}

    def calls(rows):
        before = len(calibrations)
        recall(memo, engine, rows, [1])
        return len(calibrations) - before

    assert calls([a, b, c, a]) == 2  # one calibration per semiring, duplicates once
    assert calls([c, b, a]) == 0  # at the cap nothing is evicted
    assert calls([d]) == 2  # one past the cap: a, the oldest, goes
    assert calls([b, c, d]) == 0
    assert calls([a]) == 2


def test_memo_hits_do_not_share_the_callers_dict(two_node_net):
    """Each `query` builds its own dict, so a caller's changes reach no other
    caller; a forecast its memo answers equals the one it calibrated."""
    engine = HybridPropagator(two_node_net)
    first = engine.query({0: 1}, [1])
    expected = dict(first)
    first[1] = None
    first[7] = "changed"
    assert engine.query({0: 1}, [1]) == expected
    plan = PlanModel(occurrence_net(two_node_net), 0.5)
    report = predict_attacks(plan, [0])
    assert report.rows[0].probability == expected[1].probability[PRESENT]
    assert predict_attacks(plan, [0]) == report and len(plan.forecasts) == 1


def test_memo_still_checks_every_row(two_node_net):
    engine, memo = HybridPropagator(two_node_net), Memo()
    engine.query({0: 1}, [1])
    with pytest.raises(ValueError):
        engine.query({0: 2}, [1])
    recall(memo, engine, [{0: 0}, {0: 1}], [1])
    with pytest.raises(ValueError, match="out of range for variable 1"):
        recall(memo, engine, [{0: 0}, {1: 2}, {0: 1}], [1])
    with pytest.raises(ValueError, match="absent from the tree"):
        recall(memo, engine, [{0: 0}], [5])


def test_solve_checks_a_matrix_of_no_rows_as_it_checks_one_row(two_node_net):
    """An empty batch raises what a batch of one raises, and answers [] when
    its targets are good."""
    engine = HybridPropagator(two_node_net)
    for rows in ([], [{}]):
        with pytest.raises(ValueError, match="variable 1.0 is not an integer"):
            engine.solve(evidence_matrix(engine._prob, rows), (1.0, 7))
        with pytest.raises(ValueError, match="variable 7 is absent from the tree"):
            engine.solve(evidence_matrix(engine._prob, rows), (0, 7))
    for rows in (0, 1):
        with pytest.raises(ValueError, match=r"evidence_matrix of shape \(rows, 2\)"):
            engine.solve(np.zeros((rows, 5), np.intp), (0,))
    assert engine.solve(evidence_matrix(engine._prob, []), (0, 1)) == []


def test_a_non_integer_evidence_state_is_rejected(two_node_net):
    """A float state is refused, not truncated into the state matrix; a
    numpy integer is read as the int it holds."""
    engine = HybridPropagator(two_node_net)
    for bad in (1.7, 1.0, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="for variable 0 is not an integer"):
            engine.query({0: bad}, [1])
        with pytest.raises(ValueError, match="for variable 0 is not an integer"):
            recall(Memo(), engine, [{0: 0}, {0: bad}], [1])
    assert engine.query({0: np.int64(1)}, [1]) == HybridPropagator(two_node_net).query({0: 1}, [1])


def deterministic_root_net() -> BayesNet:
    """A is always 0 and B given A=0 always 0, so A=1 or B=1 is impossible."""
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    return BayesNet(Dag((a, b), ((), (0,))), (
        np.array([[1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.5, 0.5]]),
    ))


@pytest.mark.parametrize("rows_per_call", [1, 2, 3, 4, 9, 20])
def test_query_batch_calibrates_within_the_entry_budget(monkeypatch, rows_per_call):
    """A budget of k rows' table entries makes a memo over `solve` calibrate
    N distinct unseen rows in ceil(N / k) calls per semiring; duplicates
    count once, and every row, impossible ones included, equals a fresh
    engine's single query."""
    net = deterministic_root_net()
    distinct = [{}, {0: 0}, {0: 1}, {1: 0}, {1: 1}, {0: 0, 1: 0},
                {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: 1}]
    rows = distinct + distinct[::2]
    engine = HybridPropagator(net)
    calls = counting(monkeypatch, possibility, "propagate")
    monkeypatch.setattr(possibility, "ENTRY_BUDGET", rows_per_call * engine._prob.plan.entries)
    got = recall(Memo(), engine, rows, [0, 1])
    chunks = math.ceil(len(distinct) / rows_per_call)
    assert Counter(jt.semiring for jt in calls) == {"sum-product": chunks, "max-min": chunks}
    assert [g is None for g in got[:len(distinct)]] == [
        False, False, True, False, True, False, True, True, True]
    monkeypatch.undo()
    for row, answer in zip(rows, got):
        try:
            alone = HybridPropagator(net).query(row, [0, 1])
        except ImpossibleEvidenceError:
            alone = None
        assert answer == alone


def test_a_budget_below_one_row_still_calibrates_one_row_at_a_time(monkeypatch):
    engine = HybridPropagator(deterministic_root_net())
    calls = counting(monkeypatch, possibility, "propagate")
    monkeypatch.setattr(possibility, "ENTRY_BUDGET", 1)
    engine.solve(evidence_matrix(engine._prob, [{}, {0: 0}, {1: 0}]), (1,))
    assert len(calls) == 2 * 3

from __future__ import annotations

import logging
from itertools import product

import numpy as np
import pytest

from hidpas.agents import load_sim_config
from hidpas.core import (
    BayesNet,
    Cpt,
    Dag,
    DataError,
    Variable,
    bad_row,
    csv_records,
    joint_probability,
    parent_configurations,
    validate_network,
)
from hidpas.detection import load_stream
from hidpas.features import load_kdd
from hidpas.model_io import load_classifier, load_detector, load_plan
from hidpas.possibility import HybridPropagator
from hidpas.prediction import load_alert_log


def test_valid_two_node_net_has_empty_report(two_node_net):
    assert validate_network(two_node_net) == []


def test_two_cycle_reports_one_cycle_violation():
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    dag = Dag((a, b), ((1,), (0,)))  # A <- B and B <- A
    net = BayesNet(dag, (
        Cpt(0, (1,), np.array([[0.5, 0.5], [0.5, 0.5]])),
        Cpt(1, (0,), np.array([[0.5, 0.5], [0.5, 0.5]])),
    ))
    cycles = [v for v in validate_network(net) if v.kind == "cycle"]
    assert len(cycles) == 1


def test_cycle_names_cycle_and_downstream_variables():
    # 1 <-> 2 is the cycle; 3 hangs below it; 0 and 4 peel off
    vs = tuple(Variable(i, f"V{i}", ("0", "1")) for i in range(5))
    parents = ((), (0, 2), (1,), (2,), (0,))
    dag = Dag(vs, parents)
    flat = np.full((1, 2), 0.5)
    net = BayesNet(dag, tuple(
        Cpt(i, ps, np.repeat(flat, 2 ** len(ps), axis=0)) for i, ps in enumerate(parents)))
    assert dag.topological_order() is None
    assert [str(v) for v in validate_network(net)] == [
        "[cycle] directed cycle through variables [1, 2, 3]"]


def test_bad_row_sum_is_reported_with_row():
    a = Variable(0, "A", ("0", "1"))
    net = BayesNet(Dag((a,), ((),)), (Cpt(0, (), np.array([[0.5, 0.6]])),))
    report = validate_network(net)
    assert len(report) == 1
    assert report[0].kind == "row-sum"
    assert report[0].variable == 0
    assert "()" in report[0].message


def test_validation_catches_shape_and_reference_problems():
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1", "2"))
    dag = Dag((a, b), ((), (0, 7)))
    net = BayesNet(dag, (
        Cpt(0, (), np.array([[0.5, 0.5]])),
        Cpt(1, (0, 7), np.ones((1, 3)) / 3),
    ))
    kinds = {v.kind for v in validate_network(net)}
    assert "unknown-parent" in kinds


def test_arity_below_two_is_reported():
    a = Variable(0, "A", ("only",))
    net = BayesNet(Dag((a,), ((),)), (Cpt(0, (), np.array([[1.0]])),))
    assert any(v.kind == "arity" for v in validate_network(net))


def test_parent_configurations_root_variable(two_node_net):
    assert parent_configurations(two_node_net, 0) == [()]


def test_parent_configurations_single_binary_parent(two_node_net):
    assert parent_configurations(two_node_net, 1) == [(0,), (1,)]


def test_parent_configurations_row_major_last_parent_fastest():
    p1 = Variable(0, "P1", ("0", "1"))
    p2 = Variable(1, "P2", ("0", "1", "2"))
    x = Variable(2, "X", ("0", "1"))
    dag = Dag((p1, p2, x), ((), (), (0, 1)))
    net = BayesNet(dag, (
        Cpt(0, (), np.array([[0.5, 0.5]])),
        Cpt(1, (), np.ones((1, 3)) / 3),
        Cpt(2, (0, 1), np.ones((6, 2)) / 2),
    ))
    assert parent_configurations(net, 2) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_parent_configurations_is_deterministic(chain5_net):
    first = parent_configurations(chain5_net, 3)
    second = parent_configurations(chain5_net, 3)
    assert first == second


def test_parent_configurations_unknown_variable(two_node_net):
    with pytest.raises(ValueError):
        parent_configurations(two_node_net, 9)


def test_joint_probability_hand_value(two_node_net):
    assert joint_probability(two_node_net, {0: 1, 1: 1}) == pytest.approx(0.54, abs=1e-12)


def test_joint_probability_zero_entry_annihilates():
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    net = BayesNet(Dag((a, b), ((), (0,))), (
        Cpt(0, (), np.array([[1.0, 0.0]])),
        Cpt(1, (0,), np.array([[0.5, 0.5], [0.5, 0.5]])),
    ))
    assert joint_probability(net, {0: 1, 1: 0}) == 0.0


def test_joint_probability_single_root():
    a = Variable(0, "A", ("0", "1"))
    net = BayesNet(Dag((a,), ((),)), (Cpt(0, (), np.array([[0.3, 0.7]])),))
    assert joint_probability(net, {0: 1}) == pytest.approx(0.7)


def test_joint_probability_requires_full_assignment(two_node_net):
    with pytest.raises(ValueError):
        joint_probability(two_node_net, {0: 1})


def test_joint_sums_to_one_on_small_nets(two_node_net, collider_net, chain5_net):
    for net in (two_node_net, collider_net, chain5_net):
        arities = [v.arity for v in net.dag.variables]
        total = sum(
            joint_probability(net, dict(enumerate(assign)))
            for assign in product(*(range(r) for r in arities))
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_validated_net_supports_joint_without_index_errors(chain5_net):
    assert validate_network(chain5_net) == []
    arities = [v.arity for v in chain5_net.dag.variables]
    for assign in product(*(range(r) for r in arities)):
        joint_probability(chain5_net, dict(enumerate(assign)))


def test_evidence_checks_state_range(two_node_net):
    # Evidence is range-checked where it meets a network: in the engine.
    engine = HybridPropagator(two_node_net)
    engine.query({0: 1}, [1])
    with pytest.raises(ValueError, match="out of range"):
        engine.query({0: 2}, [1])


# -- input files ------------------------------------------------------------------

def test_csv_records_name_the_line_each_record_starts_on(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(b'a,b\n\n \t\n"x\ny",z\r\nc,d\n,\n')
    assert list(csv_records(str(path))) == [
        (1, ["a", "b"]), (4, ["x\ny", "z"]), (6, ["c", "d"]), (7, ["", ""])]


def test_bad_row_raises_or_logs_on_the_given_logger(caplog):
    with pytest.raises(DataError, match=r"^f\.csv:3: too short$"):
        bad_row("f.csv", 3, "too short", "abort", logging.getLogger("hidpas.x"))
    with caplog.at_level("WARNING", logger="hidpas.x"):
        bad_row("f.csv", 3, "too short", "skip", logging.getLogger("hidpas.x"))
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("hidpas.x", "f.csv:3: skipped row (too short)")]


@pytest.mark.parametrize("load", [load_kdd, load_stream, load_alert_log, load_detector,
                                  load_classifier, load_plan, load_sim_config],
                         ids=lambda load: load.__name__)
def test_a_missing_input_file_is_a_data_error_naming_it(tmp_path, load):
    path = str(tmp_path / "absent.csv")
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value) == f"{path}: file not found"

from __future__ import annotations

import logging
from itertools import product

import numpy as np
import pytest

from hidpas.agents import load_sim_config
from hidpas.core import (
    BayesNet,
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
from hidpas.features import load_kdd, read_matrix
from hidpas.learning import DiscreteDataset, count_statistics
from hidpas.model_io import load_classifier, load_detector, load_plan
from hidpas.possibility import HybridPropagator
from hidpas.prediction import load_alert_log


def test_valid_two_node_net_has_empty_report(two_node_net):
    assert validate_network(two_node_net) == []


def test_a_net_freezes_its_tables_and_counts_are_int64_tables():
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1", "2"))
    ints = np.array([[1, 0, 0], [0, 1, 1]])  # writable
    net = BayesNet(Dag((a, b), ((), (0,))), [[[0.25, 0.75]], ints])
    assert isinstance(net.cpts, tuple) and len(net.cpts) == 2
    for table in net.cpts:
        assert table.dtype == np.float64 and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5
    assert net.cpts[0].tolist() == [[0.25, 0.75]]
    assert net.cpts[1].tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
    assert ints.flags.writeable  # converted, so the caller's array is left as it was
    data = DiscreteDataset((a, b), [[0, 0], [1, 1], [1, 2], [1, 2]])
    table = count_statistics(data, 1, (0,))
    assert table.dtype == np.int64 and table.shape == (2, 3)
    assert table.tolist() == [[1, 0, 0], [0, 1, 2]]


def test_two_cycle_reports_one_cycle_violation():
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    dag = Dag((a, b), ((1,), (0,)))  # A <- B and B <- A
    net = BayesNet(dag, (
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
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
        np.repeat(flat, 2 ** len(ps), axis=0) for ps in parents))
    assert dag._kahn() == ([0, 4], [1, 2, 3])
    assert [str(v) for v in validate_network(net)] == [
        "[cycle] directed cycle through variables [1, 2, 3]"]


def test_bad_row_sum_is_reported_with_row():
    a = Variable(0, "A", ("0", "1"))
    net = BayesNet(Dag((a,), ((),)), (np.array([[0.5, 0.6]]),))
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
        np.array([[0.5, 0.5]]),
        np.ones((1, 3)) / 3,
    ))
    kinds = {v.kind for v in validate_network(net)}
    assert "unknown-parent" in kinds
    # a variable whose id is not its position is reported, and its table read by position
    misnumbered = BayesNet(Dag((Variable(5, "A", ("0", "1")), b), ((), ())), net.cpts)
    assert [str(v) for v in validate_network(misnumbered)] == [
        "[id] var 0: variable at position 0 has id 5"]


def test_a_missing_cpt_is_reported():
    a, b = Variable(0, "A", ("0", "1")), Variable(1, "B", ("0", "1"))
    net = BayesNet(Dag((a, b), ((), ())), (np.array([[0.5, 0.5]]),))
    assert [str(v) for v in validate_network(net)] == ["[missing-cpt] 1 CPTs for 2 variables"]


def test_arity_below_two_is_reported():
    a = Variable(0, "A", ("only",))
    net = BayesNet(Dag((a,), ((),)), (np.array([[1.0]]),))
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
        np.array([[0.5, 0.5]]),
        np.ones((1, 3)) / 3,
        np.ones((6, 2)) / 2,
    ))
    assert parent_configurations(net, 2) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    assert dag.cpt_shape(2) == (2, 3, 2) and dag.cpt_shape(0) == (2,)
    table = np.ones((6, 2)) / 2
    table[4] = [0.25, 0.5]  # the row of P1 = 1, P2 = 1
    bad = BayesNet(dag, net.cpts[:2] + (table,))
    assert [v.message for v in validate_network(bad)] == ["row (1, 1) sums to 0.75, not 1"]
    assert joint_probability(bad, {0: 1, 1: 1, 2: 1}) == pytest.approx(0.5 / 6)


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
        np.array([[1.0, 0.0]]),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
    ))
    assert joint_probability(net, {0: 1, 1: 0}) == 0.0


def test_joint_probability_single_root():
    a = Variable(0, "A", ("0", "1"))
    net = BayesNet(Dag((a,), ((),)), (np.array([[0.3, 0.7]]),))
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


@pytest.mark.parametrize("load", [load_kdd, load_stream, load_alert_log, load_detector,
                                  load_classifier, load_plan, load_sim_config],
                         ids=lambda load: load.__name__)
def test_a_file_that_is_not_utf8_is_a_data_error_naming_its_line(tmp_path, load):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                     b"1,ids1,a,b,c,d,scan\n2,ids1,a,b,c,d,sc\xff\xfe\n")
    with pytest.raises(DataError) as err:
        load(str(path))
    assert str(err.value) == f"{path}:3: not UTF-8 text (invalid start byte)"


def test_csv_records_and_read_matrix_name_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(b"1,a\n" * 5000 + b"2,\xc3\n")  # past the reader's first chunk
    with pytest.raises(DataError, match=rf"^{path}:5001: not UTF-8 text"):
        list(csv_records(str(path)))
    with pytest.raises(DataError, match=rf"^{path}:5001: not UTF-8 text"):
        read_matrix(str(path), ("numeric", "categorical"))

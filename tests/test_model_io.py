from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas.core import validate_network
from hidpas.features import DataError
from hidpas.model_io import (
    FORMAT_HEADER,
    format_network,
    load_network,
    parse_network,
    save_network,
)


def test_header_and_sections_present(two_node_net):
    text = format_network(two_node_net, timestamp=False)
    lines = text.splitlines()
    assert lines[0] == FORMAT_HEADER
    assert "VARIABLES" in lines and "EDGES" in lines
    assert any(ln.startswith("CPT ") for ln in lines)


def test_round_trip_preserves_structure_and_tables(two_node_net, chain5_net, collider_net):
    for net in (two_node_net, chain5_net, collider_net):
        text = format_network(net, timestamp=False)
        back, extras = parse_network(text)
        assert extras == {}
        assert [v.name for v in back.dag.variables] == [v.name for v in net.dag.variables]
        assert back.dag.parents == net.dag.parents
        for a, b in zip(back.cpts, net.cpts):
            np.testing.assert_allclose(a.table, b.table, atol=1e-11)
        assert validate_network(back) == []


def test_round_trip_via_file(two_node_net, tmp_path):
    path = tmp_path / "net.bn"
    save_network(two_node_net, str(path))
    back = load_network(str(path))
    assert back.dag.parents == two_node_net.dag.parents


def test_comments_and_blank_lines_ignored(two_node_net, tmp_path):
    text = format_network(two_node_net, timestamp=False)
    noisy = "\n".join(
        [text.splitlines()[0], "# a comment", ""] + text.splitlines()[1:]
    )
    back, _ = parse_network(noisy)
    assert back.dag.parents == two_node_net.dag.parents


def test_timestamp_line_is_a_comment(two_node_net):
    text = format_network(two_node_net, timestamp=True)
    assert text.splitlines()[1].startswith("# generated ")
    parse_network(text)  # still loads


def test_missing_header_rejected():
    with pytest.raises(DataError, match="header"):
        parse_network("VARIABLES\n0 a x,y\n")


def test_bad_lines_rejected():
    base = FORMAT_HEADER + "\n"
    with pytest.raises(DataError):
        parse_network(base + "VARIABLES\nnot-an-id name x,y\n")
    with pytest.raises(DataError):
        parse_network(base + "VARIABLES\n0 a x,y\nEDGES\n0 => 1\n")


def test_names_with_spaces_rejected_on_save(two_node_net):
    from dataclasses import replace

    from hidpas.core import BayesNet, Variable

    bad_var = Variable(0, "has space", ("x", "y"))
    net = BayesNet(
        replace(two_node_net.dag, variables=(bad_var, two_node_net.dag.variables[1])),
        two_node_net.cpts,
    )
    with pytest.raises(ValueError):
        format_network(net, timestamp=False)


def test_probabilities_printed_at_12_digits(two_node_net):
    text = format_network(two_node_net, timestamp=False)
    assert "0.4 0.6" in text


def test_detector_model_round_trip(tmp_path):
    from hidpas.detection import DetectorConfig, train_detector
    from hidpas.features import load_kdd
    from hidpas.model_io import load_detector, save_detector

    from conftest import data_path

    table = load_kdd(data_path("scenario", "detector_train.csv"))
    model = train_detector(table, DetectorConfig(top_k=4))
    path = tmp_path / "det.bn"
    save_detector(model, str(path), timestamp=False)
    back = load_detector(str(path))
    assert back.features == model.features
    assert back.class_var == model.class_var
    assert back.tau == model.tau
    assert back.rules.means.keys() == model.rules.means.keys()
    for k, v in model.rules.means.items():
        assert back.rules.means[k] == v  # repr round-trip is exact
    assert back.net.dag.parents == model.net.dag.parents


def test_loading_wrong_kind_fails(tmp_path, two_node_net):
    from hidpas.model_io import load_detector, load_plan

    path = tmp_path / "plain.bn"
    save_network(two_node_net, str(path))
    with pytest.raises(DataError, match="DETECTOR"):
        load_detector(str(path))
    with pytest.raises(DataError, match="PLAN"):
        load_plan(str(path))


def test_missing_file_names_path():
    with pytest.raises(DataError, match="/no/such/model.bn"):
        load_network("/no/such/model.bn")


def test_format_parse_fixed_point_on_random_nets():
    """Reparsing a saved net and saving again is byte-stable: 12 significant
    digits round-trip through float parsing unchanged."""
    import numpy as np

    from hidpas.oracles import random_net

    rng = np.random.default_rng(31)
    for _ in range(25):
        net = random_net(rng)
        once = format_network(net, timestamp=False)
        back, _ = parse_network(once)
        twice = format_network(back, timestamp=False)
        assert once == twice


CYCLIC_PLAN = FORMAT_HEADER + """
VARIABLES
0 a absent,present
1 b absent,present
EDGES
0 -> 1
1 -> 0
CPT 0
(0) : 0.5 0.5
(1) : 0.5 0.5
CPT 1
(0) : 0.5 0.5
(1) : 0.5 0.5
PLAN
tau 0.5
hyper 0 a
hyper 1 b
"""


def test_cyclic_plan_file_rejected_with_path(tmp_path):
    from hidpas.model_io import load_plan

    path = tmp_path / "cyclic.bn"
    path.write_text(CYCLIC_PLAN, encoding="utf-8")
    with pytest.raises(DataError, match=r"cyclic\.bn: invalid network: \[cycle\]"):
        load_plan(str(path))


def test_wrong_shaped_cpt_rejected_with_path(tmp_path, two_node_net):
    text = format_network(two_node_net, timestamp=False)
    # B has one parent of arity 2, so its CPT needs two rows; drop one
    short = "\n".join(ln for ln in text.splitlines() if not ln.startswith("(1) :")) + "\n"
    path = tmp_path / "short.bn"
    path.write_text(short, encoding="utf-8")
    with pytest.raises(DataError, match=r"short\.bn: invalid network: \[cpt-shape\] var 1"):
        load_network(str(path))


def test_unnormalized_cpt_row_rejected():
    text = FORMAT_HEADER + "\nVARIABLES\n0 a x,y\nCPT 0\n() : 0.5 0.6\n"
    with pytest.raises(DataError, match=r"<string>: invalid network: \[row-sum\] var 0: row \(\)"):
        parse_network(text)


def test_edge_to_unknown_variable_rejected_with_path_and_line(tmp_path):
    path = tmp_path / "dangling.bn"
    path.write_text(FORMAT_HEADER + "\nVARIABLES\n0 a x,y\nEDGES\n0 -> 7\nCPT 0\n() : 0.5 0.5\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=r"dangling\.bn: edge names an unknown variable: '0 -> 7'"):
        load_network(str(path))
    with pytest.raises(DataError, match=r"<string>: edge names an unknown variable: '7 -> 0'"):
        parse_network(FORMAT_HEADER + "\nVARIABLES\n0 a x,y\nEDGES\n7 -> 0\nCPT 0\n() : 0.5 0.5\n")


@pytest.mark.parametrize("edge, cpt, bad", [
    ("0 -> x", "CPT 1", r"bad edge line '0 -> x'"),
    ("a -> 1", "CPT 1", r"bad edge line 'a -> 1'"),
    ("0 -> 1", "CPT one", r"bad CPT header 'CPT one'"),
    ("0 -> 1", "CPT 1.0", r"bad CPT header 'CPT 1\.0'"),
])
def test_non_integer_ids_rejected_with_path_and_line(tmp_path, edge, cpt, bad):
    text = (FORMAT_HEADER + "\nVARIABLES\n0 a x,y\n1 b x,y\nEDGES\n" + edge
            + "\nCPT 0\n() : 0.5 0.5\n" + cpt + "\n(0) : 0.5 0.5\n(1) : 0.5 0.5\n")
    path = tmp_path / "ids.bn"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=r"ids\.bn: " + bad):
        load_network(str(path))


TWO_VARS = FORMAT_HEADER + "\nVARIABLES\n0 a x,y\n1 b x,y\nEDGES\n0 -> 1\nCPT 0\n() : 0.5 0.5\n"


@pytest.mark.parametrize("cpt_1, bad", [
    ("(0) : 0.5\n(1) : 0.5 0.5", r"CPT 1 line '\(0\) : 0\.5' has 1 values for 2 states"),
    ("(0) : 0.5 0.5\n(1) : 0.5 0.5\nCPT 2\n() : 0.5 0.5", r"CPT section for unknown variable 2"),
    ("(x,2) : 0.5 0.5\n(1) : 0.5 0.5", r"CPT 1 row labelled '\(x,2\)' where '\(0\)' belongs"),
    ("(1) : 0.2 0.8\n(0) : 0.5 0.5", r"CPT 1 row labelled '\(1\)' where '\(0\)' belongs"),
    ("(0) : 0.50 0.5\n(1) : 0.5 0.5", r"bad CPT line '\(0\) : 0\.50 0\.5'"),
    ("(0) : nan 0.5\n(1) : 0.5 0.5", r"invalid network: \[range\] var 1"),
    ("(0) : 0.5 0.5\n(1) : 0.5 0.5\nCPT 1\n(0) : 0.5 0.5", r"duplicate section 'CPT 1'"),
])
def test_malformed_cpt_rejected_with_path(tmp_path, cpt_1, bad):
    path = tmp_path / "cpt.bn"
    path.write_text(TWO_VARS + "CPT 1\n" + cpt_1 + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"cpt\.bn: " + bad):
        load_network(str(path))


MUTATION_CHARS = "0123456789 ,.:()->#+_esvxEDGSCPT"


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_model_file_mutations_raise_data_error_or_round_trip(seed, data):
    """A formatted net parses and formats back to the same text. After one
    line is deleted, truncated, duplicated or has one character replaced,
    the file raises DataError or loads a net that formats back to the file
    as the reader sees it: lines stripped, blanks and comments dropped."""
    from hidpas.oracles import random_net

    text = format_network(random_net(np.random.default_rng(seed)), timestamp=False)
    assert format_network(parse_network(text)[0], timestamp=False) == text
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = data.draw(st.sampled_from(["delete", "truncate", "duplicate", "edit"]))
    if kind == "delete":
        new = []
    elif kind == "truncate":
        new = [line[:data.draw(st.integers(0, len(line) - 1))]]
    elif kind == "duplicate":
        new = [line, line]
    else:
        j = data.draw(st.integers(0, len(line) - 1))
        ch = data.draw(st.sampled_from(MUTATION_CHARS).filter(lambda c: c != line[j]))
        new = [line[:j] + ch + line[j + 1:]]
    mutated = "\n".join(lines[:i] + new + lines[i + 1:]) + "\n"
    try:
        net, _ = parse_network(mutated)
    except DataError:
        return
    seen = [ln.strip() for ln in mutated.splitlines()]
    seen = [ln for ln in seen if ln and not ln.startswith("#")]
    saved = format_network(net, timestamp=False).splitlines()
    if not any(net.dag.parents) and "EDGES" not in seen:
        saved.remove("EDGES")  # a net without edges may leave out its empty EDGES section
    assert saved == seen

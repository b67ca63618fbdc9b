from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas import model_io
from hidpas.core import BayesNet, Dag, Variable, parent_configurations, validate_network
from hidpas.features import DataError
from hidpas.model_io import (
    FORMAT_HEADER,
    _write,
    format_network,
    load_plan,
    parse_network,
)
from hidpas.possibility import TRANSFORM_BUDGET


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
            np.testing.assert_allclose(a, b, atol=1e-11)
        assert validate_network(back) == []


def test_round_trip_via_file(two_node_net, tmp_path):
    path = tmp_path / "net.bn"
    _write(str(path), format_network(two_node_net))
    back, _ = parse_network(path.read_text(encoding="utf-8"), str(path))
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
    _write(str(path), format_network(two_node_net))
    with pytest.raises(DataError, match="DETECTOR"):
        load_detector(str(path))
    with pytest.raises(DataError, match="PLAN"):
        load_plan(str(path))


def test_missing_file_names_path():
    with pytest.raises(DataError, match="/no/such/model.bn"):
        load_plan("/no/such/model.bn")


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


def per_value_cpt_lines(net: BayesNet) -> list[str]:
    """The CPT sections spelled one value at a time."""
    lines = []
    for var in net.dag.variables:
        lines.append(f"CPT {var.id}")
        for j, cfg in enumerate(parent_configurations(net, var.id)):
            row = " ".join(f"{p:.12g}" for p in net.cpts[var.id][j])
            lines.append("(" + ",".join(str(c) for c in cfg) + f") : {row}")
    return lines


def net_of(arities: list[int], parents: list[tuple[int, ...]], tables) -> BayesNet:
    variables = tuple(Variable(i, f"v{i}", tuple(f"s{k}" for k in range(a)))
                      for i, a in enumerate(arities))
    dag = Dag(variables, tuple(parents))
    return BayesNet(dag, tables)


def cpt_lines(net: BayesNet) -> list[str]:
    lines = format_network(net, timestamp=False).splitlines()
    return lines[next(i for i, ln in enumerate(lines) if ln.startswith("CPT ")):]


# repeats, signed zeros, subnormals, infinities and NaNs with other payloads
SPECIAL = np.array([0x8000000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                    0x0000000000000001], dtype=np.uint64).view(np.float64).tolist()
entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 2 / 3, 0.1, 1e-300,
                                     math.inf, -math.inf] + SPECIAL),
                    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([TRANSFORM_BUDGET, 1, 3, 17]))
def test_cpt_spelling_equals_the_per_value_spelling(data, budget):
    n = data.draw(st.integers(1, 5))
    arities = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    parents = [tuple(sorted(data.draw(st.sets(st.integers(0, i - 1), max_size=2))) if i else ())
               for i in range(n)]
    pool = data.draw(st.lists(entries, min_size=1, max_size=6))
    tables = []
    for i, a in enumerate(arities):
        q = int(np.prod([arities[p] for p in parents[i]]))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=q * a,
                                   max_size=q * a))
        tables.append(np.array([pool[k] for k in picks], dtype=np.float64).reshape(q, a))
    net = net_of(arities, parents, tables)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_io, "TRANSFORM_BUDGET", budget)
        assert cpt_lines(net) == per_value_cpt_lines(net)


def test_cpt_spelling_keeps_signed_zeros_and_nans_apart():
    # equal as floats, spelled apart: one bit pattern, one spelling
    values = [0.0, -0.0, math.nan, -math.nan] + SPECIAL
    net = net_of([len(values), 2], [(), (0,)],
                 [np.array([values]), np.array([[-0.0, 0.0]] * len(values))])
    lines = cpt_lines(net)
    assert lines == per_value_cpt_lines(net)
    assert lines[1] == "() : 0 -0 nan nan -0 nan nan 4.94065645841e-324"
    assert lines[3] == "(0) : -0 0"


def test_cpt_spelling_of_tables_past_one_block():
    # 4 parents of arity 5 and 20 states: 12,500 entries, past one block,
    # around a small table, with rows that repeat earlier blocks' values
    rng = np.random.default_rng(17)
    arities = [2, 5, 5, 5, 5, 20, 3]
    parents = [(), (), (), (), (), (1, 2, 3, 4), (0,)]
    tables = []
    for i, a in enumerate(arities):
        q = int(np.prod([arities[p] for p in parents[i]]))
        table = rng.dirichlet(np.ones(a), size=q)
        table[::7] = table[0]
        table[-1, 0] = -0.0
        tables.append(table)
    assert tables[5].size > TRANSFORM_BUDGET
    net = net_of(arities, parents, tables)
    assert cpt_lines(net) == per_value_cpt_lines(net)


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
        parse_network(path.read_text(encoding="utf-8"), str(path))


def test_unnormalized_cpt_row_rejected():
    text = FORMAT_HEADER + "\nVARIABLES\n0 a x,y\nCPT 0\n() : 0.5 0.6\n"
    with pytest.raises(DataError, match=r"<string>: invalid network: \[row-sum\] var 0: row \(\)"):
        parse_network(text)


def test_edge_to_unknown_variable_rejected_with_path_and_line(tmp_path):
    path = tmp_path / "dangling.bn"
    path.write_text(FORMAT_HEADER + "\nVARIABLES\n0 a x,y\nEDGES\n0 -> 7\nCPT 0\n() : 0.5 0.5\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=r"dangling\.bn: edge names an unknown variable: '0 -> 7'"):
        parse_network(path.read_text(encoding="utf-8"), str(path))
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
        parse_network(path.read_text(encoding="utf-8"), str(path))


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
        parse_network(path.read_text(encoding="utf-8"), str(path))


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


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """A detector, alert classifier and plan trained on the scenario, as text."""
    from hidpas.detection import DetectorConfig, train_detector
    from hidpas.features import load_kdd
    from hidpas.model_io import format_classifier, format_detector, format_plan
    from hidpas.prediction import (aggregate_alerts, build_transactions, load_alert_log,
                                   train_alert_classifier, train_plan_model)

    from conftest import data_path

    detector = train_detector(load_kdd(data_path("scenario", "detector_train.csv")),
                              DetectorConfig(top_k=4))
    hypers = aggregate_alerts(load_alert_log(data_path("scenario", "alert_history.csv")))
    return {
        "detector": format_detector(detector, timestamp=False),
        "classifier": format_classifier(train_alert_classifier(hypers), timestamp=False),
        "plan": format_plan(train_plan_model(build_transactions(hypers, dt=60.0)),
                            timestamp=False),
    }


@pytest.mark.parametrize("kind, prefix, new, bad", [
    ("plan", "tau ", "tau abc", r"bad PLAN line 'tau abc'"),
    ("plan", "tau ", "tau nan", r"bad PLAN line 'tau nan': 'nan' is not finite"),
    ("plan", "tau ", None, r"PLAN needs one 'tau' line, not 0"),
    ("plan", "hyper 0 ", "hyper x portsweep", r"bad PLAN line 'hyper x portsweep': bad id"),
    ("plan", "hyper 1 ", None, r"PLAN needs one hyper line per variable, ids 0\.\.1"),
    ("plan", "hyper 1 ", "hyper 0 portsweep", r"PLAN needs one hyper line per variable"),
    ("plan", "hyper 1 ", "hyper 1 portsweep",
     r"bad PLAN line 'hyper 1 portsweep': variable 1 is named 'teardrop'"),
    ("plan", "hyper 1 ", "hyper 2 extra", r"bad PLAN line 'hyper 2 extra': unknown variable id 2"),
    ("classifier", "class_var ", None, r"CLASSIFIER needs one 'class_var' line, not 0"),
    ("classifier", "class_var ", "class_var 9",
     r"bad CLASSIFIER line 'class_var 9': unknown variable id 9"),
    ("classifier", "tau ", "tau -inf", r"bad CLASSIFIER line 'tau -inf'"),
    ("classifier", "tau ", "tau 0.5\ntau 0.6", r"CLASSIFIER needs one 'tau' line, not 2"),
    ("classifier", "tau ", "tau 0.5\nseed 3", r"bad CLASSIFIER line 'seed 3': unknown key"),
    ("classifier", "CLASSIFIER", "PLAN", r"no CLASSIFIER section"),
    ("detector", "tau ", "tau abc", r"bad DETECTOR line 'tau abc'"),
    ("detector", "class_var ", "class_var -1", r"bad DETECTOR line 'class_var -1': bad id"),
    ("detector", "features ", "features src_bytes,nope",
     r"features 'src_bytes,nope' must list the net's variables other than class_var in "
     r"id order: 'service,flag,src_bytes,dst_bytes'"),
    ("detector", "features ", None, r"DETECTOR needs one 'features' line, not 0"),
    ("detector", "RULES", "RULES\nsrc_bytes mean", r"rules line 1: cannot parse"),
    ("detector", "src_bytes mean=", "src_bytes mean=nan",
     r"rules line \d+: cannot parse 'src_bytes mean=nan'"),
    ("detector", "src_bytes mean=", "src_bytes mean=1e400",
     r"rules line \d+: cannot parse 'src_bytes mean=1e400'"),
    ("detector", ("0 service ", "features "),
     ("0 foo domain_u,http,private", "features foo,flag,src_bytes,dst_bytes"),
     r"feature 'foo' is not a KDD feature"),
    ("detector", "class_var ", "class_var 0", r"feature 'attack_type' is not a KDD feature"),
    ("classifier", "2 dst_ip ", "2 foo 192.168.1.10,__none__",
     r"attribute fields are src_ip,src_port,dst_ip,dst_port,attack_type in id order, "
     r"not src_ip,src_port,foo,dst_port,attack_type"),
    ("classifier", "class_var ", "class_var 0",
     r"attribute fields are src_ip,src_port,dst_ip,dst_port,attack_type in id order, "
     r"not src_port,dst_ip,dst_port,attack_type,hyper_alert"),
    ("plan", "0 portsweep ", "0 portsweep present,absent",
     r"hyper-alert 'portsweep' has states present,absent, not absent,present"),
])
def test_model_sections_validated_on_load(tmp_path, saved_models, kind, prefix, new, bad):
    """Each row replaces the first line starting with a prefix by a new line
    (or drops it); a row of several prefixes makes several replacements."""
    from hidpas.model_io import load_classifier, load_detector, load_plan

    lines = saved_models[kind].splitlines()
    edits = zip(prefix, new) if isinstance(prefix, tuple) else [(prefix, new)]
    for prefix, new in edits:
        i = next(k for k, ln in enumerate(lines) if ln.startswith(prefix))
        lines[i:i + 1] = [new] if new else []
    path = tmp_path / f"{kind}.bn"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    load = {"detector": load_detector, "classifier": load_classifier, "plan": load_plan}[kind]
    with pytest.raises(DataError, match=re.escape(f"{path}: ") + bad):
        load(str(path))


@pytest.mark.parametrize("features", [
    "flag,src_bytes,dst_bytes",  # omits service
    "service,flag,src_bytes,dst_bytes,attack_type",  # adds the class variable
    "service,flag,src_bytes,dst_bytes,duration",  # adds a feature the net lacks
    "flag,service,src_bytes,dst_bytes",  # reorders
])
def test_a_detector_features_line_that_disagrees_with_its_net_fails_to_load(
        tmp_path, saved_models, features):
    """The features line lists the net's variables other than the class, in
    id order; a detector whose line says otherwise does not load, rather than
    classify with another set of features than its file states."""
    from hidpas.model_io import load_detector

    text = re.sub(r"^features .*$", f"features {features}", saved_models["detector"],
                  flags=re.MULTILINE)
    path = tmp_path / "detector.bn"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: features {features!r}")):
        load_detector(str(path))


def test_detector_without_features_loads_back(tmp_path):
    from hidpas.detection import DetectorConfig, train_detector
    from hidpas.features import load_kdd
    from hidpas.model_io import format_detector, load_detector, save_detector

    from conftest import data_path

    model = train_detector(load_kdd(data_path("scenario", "detector_train.csv")),
                           DetectorConfig(top_k=0))
    path = tmp_path / "prior_only.bn"
    save_detector(model, str(path), timestamp=False)
    assert load_detector(str(path)).features == ()
    assert format_detector(load_detector(str(path)), timestamp=False) == path.read_text()


def test_saved_models_load_back_to_the_same_text(tmp_path, saved_models):
    from hidpas.model_io import (format_classifier, format_detector, format_plan,
                                 load_classifier, load_detector, load_plan)

    for kind, load, fmt in (("detector", load_detector, format_detector),
                            ("classifier", load_classifier, format_classifier),
                            ("plan", load_plan, format_plan)):
        path = tmp_path / f"{kind}.bn"
        path.write_text(saved_models[kind], encoding="utf-8")
        assert fmt(load(str(path)), timestamp=False) == saved_models[kind]


MUTANT_TOKENS = ("", "-1", "nan", "1e400", "->", "0,1", "99")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("detector", "classifier", "plan")),
       st.sampled_from(("drop", "copy", "token")), st.data())
def test_mutated_models_load_and_answer_or_fail_naming_the_path(
        tmp_path_factory, saved_models, kind, mutation, data):
    """A saved model with one line dropped or doubled, or one space-separated
    token replaced (by one of the file's own tokens or a hostile one), either
    loads into a model that answers or raises a DataError naming the path."""
    from hidpas.detection import detect_stream, load_stream
    from hidpas.model_io import load_classifier, load_detector, load_plan
    from hidpas.prediction import AlertRecord, classify_alert, predict_attacks

    from conftest import data_path

    text = saved_models[kind]
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    if mutation == "drop":
        del lines[i]
    elif mutation == "copy":
        lines.insert(i, lines[i])
    else:
        words = lines[i].split(" ")
        words[data.draw(st.integers(0, len(words) - 1))] = data.draw(
            st.sampled_from(sorted(set(text.split())) + list(MUTANT_TOKENS)))
        lines[i] = " ".join(words)
    path = tmp_path_factory.mktemp("mutant") / f"{kind}.bn"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    load = {"detector": load_detector, "classifier": load_classifier, "plan": load_plan}[kind]
    try:
        model = load(str(path))
    except DataError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    if kind == "detector":
        detect_stream(model, load_stream(data_path("scenario", "host_a.csv"))[:5], "host_a")
    elif kind == "classifier":
        classify_alert(model, AlertRecord(0.0, "s1", "10.0.0.5", "2001", "192.168.1.10",
                                          "445", "portsweep"))
    else:
        predict_attacks(model, [model.hyper_names[0]])

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas.cli import run_command

from conftest import DATA_DIR, SCENARIO_DIR

TRAIN = os.path.join(SCENARIO_DIR, "detector_train.csv")
HISTORY = os.path.join(SCENARIO_DIR, "alert_history.csv")
SYNTH = os.path.join(DATA_DIR, "alerts_synthetic.csv")


def test_no_arguments_is_usage_error(capsys):
    assert run_command([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_command(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run_command(["transform", "--bogus"]) == 2


def test_transform_prints_pi_and_n(capsys):
    assert run_command(["transform", "0.5", "0.3", "0.2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split(":")[1].split() == ["1", "0.5", "0.2"]
    assert out[1].split(":")[1].split() == ["0.5", "0", "0"]


def test_transform_bad_vector_is_data_error(capsys):
    assert run_command(["transform", "0.5", "0.1"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("tokens, bad", [
    (["0.5", "0.1"], "probabilities sum to 0.6, not 1"),
    (["0.5", "half"], "could not convert string to float: 'half'"),
])
def test_transform_names_a_vector_it_cannot_read(capsys, tokens, bad):
    assert run_command(["transform", *tokens]) == 1
    assert capsys.readouterr().err == f"error: bad probability vector '{' '.join(tokens)}': {bad}\n"


def test_a_fault_that_is_not_a_data_error_propagates(monkeypatch):
    """Only a DataError or impossible evidence is reported as `error: ...`;
    any other exception, such as a bare ValueError from a bug, surfaces."""
    def transform(args):
        raise ValueError("shapes (2,) and (3,) not aligned")

    monkeypatch.setattr("hidpas.cli._cmd_transform", transform)
    with pytest.raises(ValueError, match="not aligned"):
        run_command(["transform", "0.5", "0.5"])


def test_transform_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0.5 0.5\n"))
    assert run_command(["transform"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split(":")[1].split() == ["1", "1"]


def test_learn_detector_bad_order_name(tmp_path, capsys):
    rc = run_command(["learn-detector", "--data", TRAIN,
                      "--out", str(tmp_path / "m.bn"), "--top-k", "2",
                      "--order", "attack_type,not_a_column"])
    assert rc == 1
    assert "not_a_column" in capsys.readouterr().err


def test_learn_detector_rejects_a_bad_category_before_learning(tmp_path, capsys, monkeypatch):
    """An empty service cell cannot be a state label: the run stops before
    K2 with an error naming the column, and writes no model."""
    lines = Path(TRAIN).read_text(encoding="utf-8").splitlines()
    for i in (0, 5):
        fields = lines[i].split(",")
        fields[2] = ""
        lines[i] = ",".join(fields)
    data = tmp_path / "train.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def k2_search(*args):
        raise AssertionError("K2 ran")

    monkeypatch.setattr("hidpas.detection.k2_search", k2_search)
    model = tmp_path / "m.bn"
    rc = run_command(["learn-detector", "--data", str(data), "--out", str(model),
                      "--top-k", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "column 'service': value '' is not a state label" in err
    assert not model.exists()


@pytest.mark.parametrize("cell, shown", [
    ("", "''"),  # an empty cell
    (" a b ", "'a b'"),  # a space inside
    ('"a,b"', "'a,b'"),  # a quoted comma
])
def test_learn_detector_names_its_file_for_a_cell_that_is_no_state_label(tmp_path, capsys,
                                                                        cell, shown):
    lines = Path(TRAIN).read_text(encoding="utf-8").splitlines()
    fields = lines[3].split(",")
    fields[2] = cell  # service
    lines[3] = ",".join(fields)
    data = tmp_path / "train.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_command(["learn-detector", "--data", str(data), "--out", str(tmp_path / "m.bn"),
                        "--top-k", "4"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {data}: column 'service': value {shown} is not a state label; ")


@pytest.mark.parametrize("content, flags", [
    ("", []),  # an empty file
    ("1,2,3\n", ["--skip-bad-rows"]),  # every row skipped
])
def test_learn_detector_without_rows_names_its_file(tmp_path, capsys, monkeypatch, content,
                                                    flags):
    def gini_rank(*args):
        raise AssertionError("ranking ran")

    monkeypatch.setattr("hidpas.detection.gini_rank", gini_rank)
    data = tmp_path / "train.csv"
    data.write_text(content, encoding="utf-8")
    model = tmp_path / "m.bn"
    assert run_command(["learn-detector", "--data", str(data), "--out", str(model),
                        *flags]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: {data}: no connection rows to learn from\n")
    assert not model.exists()


def test_learn_plan_on_a_log_without_alerts_names_its_file(tmp_path, capsys, monkeypatch):
    def aggregate_alerts(*args, **kwargs):
        raise AssertionError("aggregation ran")

    monkeypatch.setattr("hidpas.prediction.aggregate_alerts", aggregate_alerts)
    log = tmp_path / "alerts.csv"
    log.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n",
                   encoding="utf-8")
    plan = tmp_path / "plan.bn"
    assert run_command(["learn-plan", "--alerts", str(log), "--out", str(plan)]) == 1
    assert capsys.readouterr().err == f"error: {log}: no alerts to learn from\n"
    assert not plan.exists()


def test_learn_plan_on_a_time_range_of_too_many_slots_names_its_file(tmp_path, capsys):
    log = tmp_path / "alerts.csv"
    log.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                   "1e29,ids1,a,b,c,d,scan\n105,ids1,a,b,c,d,scan\n", encoding="utf-8")
    plan = tmp_path / "plan.bn"
    assert run_command(["learn-plan", "--alerts", str(log), "--out", str(plan)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {log}: cannot slot its time range (")
    assert not plan.exists()


def test_detect_missing_model_names_path(capsys, tmp_path):
    out = tmp_path / "alerts.csv"
    rc = run_command(["detect", "--model", "/no/model.bn",
                      "--data", TRAIN, "--host", "h", "--alerts-out", str(out)])
    assert rc == 1
    assert "/no/model.bn" in capsys.readouterr().err


def test_learn_detector_and_detect_round_trip(tmp_path, capsys):
    model = tmp_path / "det.bn"
    rules = tmp_path / "rules.txt"
    rc = run_command(["learn-detector", "--data", TRAIN, "--out", str(model),
                      "--top-k", "4", "--label-granularity", "attack",
                      "--rules", str(rules), "--no-timestamp"])
    assert rc == 0
    assert model.exists() and rules.exists()
    alerts = tmp_path / "alerts.csv"
    rc = run_command(["detect", "--model", str(model),
                      "--data", os.path.join(SCENARIO_DIR, "host_c.csv"),
                      "--host", "host-c", "--alerts-out", str(alerts)])
    assert rc == 0
    lines = alerts.read_text().splitlines()
    assert len(lines) == 2  # header + one alert
    assert "portsweep" in lines[1]


def test_aggregate_reports_phase_counts(tmp_path, capsys):
    out = tmp_path / "hyper.csv"
    assert run_command(["aggregate", "--alerts", SYNTH, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "50 alerts -> 6 clusters -> 4 hyper-alerts" in stdout
    rows = out.read_text().splitlines()
    assert rows[0] == "id,name,size,earliest"
    assert len(rows) == 5


def test_learn_plan_and_predict(tmp_path, capsys):
    plan = tmp_path / "plan.bn"
    rc = run_command(["learn-plan", "--alerts", HISTORY, "--out", str(plan),
                      "--slot", "60", "--no-timestamp"])
    assert rc == 0
    rc = run_command(["predict", "--model", str(plan),
                      "--observed", "portsweep"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "observed: portsweep" in out
    assert "teardrop" in out


def test_predict_reads_a_digit_token_as_a_name_before_an_id(tmp_path, capsys):
    """Merged on dst_port, the hyper-alerts are named 445 (id 0) and 80 (id 1)."""
    plan = tmp_path / "plan.bn"
    assert run_command(["learn-plan", "--alerts", HISTORY, "--out", str(plan),
                        "--merge-key", "dst_port", "--no-timestamp"]) == 0
    capsys.readouterr()
    for token, observed in (("80", "80"), ("445", "445"), ("0", "445"), ("1", "80")):
        assert run_command(["predict", "--model", str(plan), "--observed", token]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"observed: {observed}"
    for token, error in (("2", "no hyper-alert with id 2"),
                         ("\u00b2", "no hyper-alert named '\u00b2'")):
        assert run_command(["predict", "--model", str(plan), "--observed", token]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


def test_learn_plan_classifier_with_an_empty_port(tmp_path, capsys):
    from hidpas.model_io import load_classifier
    from hidpas.prediction import AlertRecord, EMPTY_STATE, classify_alert

    log = tmp_path / "alerts.csv"
    log.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                   "1,s1,10.0.0.1,,10.0.0.9,80,scan\n"
                   "70,s1,10.0.0.1,4444,10.0.0.9,80,exploit\n", encoding="utf-8")
    plan, clf = tmp_path / "plan.bn", tmp_path / "clf.bn"
    rc = run_command(["learn-plan", "--alerts", str(log), "--out", str(plan),
                      "--classifier-out", str(clf), "--no-timestamp"])
    assert rc == 0, capsys.readouterr().err
    model = load_classifier(str(clf))
    port = model.net.variable(model.net.var_id("src_port"))
    assert port.states == ("4444", EMPTY_STATE)
    # an empty field is still left unobserved, not matched to the reserved state
    partial = AlertRecord(5.0, "s1", "10.0.0.1", "", "10.0.0.9", "80", "exploit")
    assert classify_alert(model, partial).unknown_values == ()


def test_learn_plan_merges_on_an_empty_port(tmp_path, capsys):
    from hidpas.model_io import load_plan
    from hidpas.prediction import EMPTY_STATE

    log = tmp_path / "alerts.csv"
    log.write_text("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n"
                   "1,s1,10.0.0.1,,10.0.0.9,80,scan\n"
                   "70,s1,10.0.0.1,4444,10.0.0.9,80,exploit\n", encoding="utf-8")
    plan = tmp_path / "plan.bn"
    rc = run_command(["learn-plan", "--alerts", str(log), "--out", str(plan),
                      "--merge-key", "src_port", "--no-timestamp"])
    assert rc == 0, capsys.readouterr().err
    assert load_plan(str(plan)).hyper_names == (EMPTY_STATE, "4444")


def test_predict_threshold_selection(tmp_path, capsys):
    plan = tmp_path / "plan.bn"
    run_command(["learn-plan", "--alerts", HISTORY, "--out", str(plan),
                 "--slot", "60", "--tau", "0.7", "--no-timestamp"])
    rc = run_command(["predict", "--model", str(plan), "--observed", "portsweep",
                      "--select", "threshold", "--threshold", "0.5"])
    assert rc == 0
    table = capsys.readouterr().out
    line = next(ln for ln in table.splitlines() if ln.startswith("teardrop"))
    assert line.rstrip().endswith("True")


def test_oracle_check_small_run(capsys):
    rc = run_command(["oracle-check", "--seed", "3", "--networks", "10",
                      "--transforms", "25"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 4


def test_an_oracle_suite_without_cases_has_not_passed():
    from hidpas.oracles import OracleReport

    assert not OracleReport("empty").passed
    assert OracleReport("one", cases=1).passed


def _reversed_marginal(cal, var):
    from hidpas.jtree import query_marginal

    return query_marginal(cal, var)[..., ::-1]


# Per oracle suite: the attribute that, replaced, makes the engine it checks
# answer wrongly, and the wrong answer.
WRONG_ENGINES = {
    "probabilistic-oracle": ("check_probabilistic", "hidpas.oracles.query_marginal",
                             _reversed_marginal),
    "possibilistic-oracle": ("check_possibilistic", "hidpas.oracles.query_marginal",
                             _reversed_marginal),
    "query-oracle": ("check_query_path", "hidpas.possibility.HybridPropagator._calibrate",
                     lambda self, observed, targets: [None] * len(observed)),
    "transform-oracle": ("check_transform", "hidpas.oracles.prob_to_poss",
                         lambda p: p[::-1].copy()),
}


@pytest.mark.parametrize("suite", sorted(WRONG_ENGINES))
def test_an_oracle_suite_fails_on_a_wrong_engine(monkeypatch, capsys, suite):
    from hidpas import oracles

    check, target, wrong = WRONG_ENGINES[suite]
    monkeypatch.setattr(target, wrong)
    report = getattr(oracles, check)(3, 10)
    assert report.name == suite and report.cases > 0
    assert report.failures > 0 and not report.passed
    rc = run_command(["oracle-check", "--seed", "3", "--networks", "10", "--transforms", "25"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1 and len(lines) == 4
    assert {line.split(":")[0] for line in lines if ": FAIL (" in line} == \
        {name for name, (_, replaced, _) in WRONG_ENGINES.items() if replaced == target}


def test_cli_outputs_are_deterministic(tmp_path):
    """Identical argv + inputs yield byte-identical outputs (timestamps off)."""
    outputs = []
    for tag in ("a", "b"):
        model = tmp_path / f"det_{tag}.bn"
        plan = tmp_path / f"plan_{tag}.bn"
        clf = tmp_path / f"clf_{tag}.bn"
        hyper = tmp_path / f"hyper_{tag}.csv"
        alerts = tmp_path / f"alerts_{tag}.csv"
        assert run_command(["learn-detector", "--data", TRAIN, "--out", str(model),
                            "--top-k", "4", "--label-granularity", "attack",
                            "--no-timestamp"]) == 0
        assert run_command(["detect", "--model", str(model),
                            "--data", os.path.join(SCENARIO_DIR, "host_c.csv"),
                            "--host", "h", "--alerts-out", str(alerts)]) == 0
        assert run_command(["aggregate", "--alerts", SYNTH, "--out", str(hyper)]) == 0
        assert run_command(["learn-plan", "--alerts", HISTORY, "--out", str(plan),
                            "--classifier-out", str(clf), "--slot", "60",
                            "--no-timestamp"]) == 0
        outputs.append(tuple(p.read_bytes()
                             for p in (model, plan, clf, hyper, alerts)))
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def sim_conf(tmp_path_factory):
    """A simulation config over a detector (det.bn beside it), plan and
    classifier trained on the scenario."""
    tmp = tmp_path_factory.mktemp("models")
    model, plan, clf = tmp / "det.bn", tmp / "plan.bn", tmp / "clf.bn"
    assert run_command(["learn-detector", "--data", TRAIN, "--out", str(model),
                        "--top-k", "4", "--label-granularity", "attack", "--no-timestamp"]) == 0
    assert run_command(["learn-plan", "--alerts", HISTORY, "--out", str(plan),
                        "--classifier-out", str(clf), "--slot", "60", "--no-timestamp"]) == 0
    conf = tmp / "sim.conf"
    conf.write_text(
        f"detector_model = {model}\nalert_classifier = {clf}\n"
        f"plan_model = {plan}\ntau = 0.7\n"
        f"host.host-a = {os.path.join(SCENARIO_DIR, 'host_a.csv')}\n"
        f"host.host-c = {os.path.join(SCENARIO_DIR, 'host_c.csv')}\n"
    )
    return conf


def test_simulate_cli_writes_event_log(tmp_path, capsys, sim_conf):
    conf = sim_conf
    log1 = tmp_path / "e1.ndjson"
    log2 = tmp_path / "e2.ndjson"
    assert run_command(["simulate", "--config", str(conf), "--seed", "42",
                        "--log", str(log1)]) == 0
    assert run_command(["simulate", "--config", str(conf), "--seed", "42",
                        "--log", str(log2)]) == 0
    assert log1.read_bytes() == log2.read_bytes()
    assert "1 alerts, 1 predictions" in capsys.readouterr().out


def test_learn_detector_on_a_path_it_cannot_read_names_it(tmp_path, capsys):
    not_a_dir = tmp_path / "file.csv"
    not_a_dir.write_text("x\n")
    for data in (tmp_path, not_a_dir / "train.csv"):
        rc = run_command(["learn-detector", "--data", str(data),
                          "--out", str(tmp_path / "det.bn")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {data}: cannot read (") and "Traceback" not in err


@pytest.mark.parametrize("key", ["detector_model", "host.a"])
def test_simulate_rejects_an_empty_value_with_its_line(tmp_path, capsys, key):
    conf = tmp_path / "sim.conf"
    conf.write_text(f"alert_classifier = c.bn\nplan_model = p.bn\n{key} =\n")
    rc = run_command(["simulate", "--config", str(conf)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {conf}:3: {key} has no value\n"


@pytest.mark.parametrize("argv", [
    ["learn-detector", "--data", TRAIN, "--out", "{out}", "--top-k", "2"],
    ["learn-detector", "--data", TRAIN, "--out", "{tmp}/det.bn", "--top-k", "2",
     "--rules", "{out}"],
    ["detect", "--model", "{models}/det.bn", "--data", os.path.join(SCENARIO_DIR, "host_c.csv"),
     "--host", "h", "--alerts-out", "{out}"],
    ["aggregate", "--alerts", SYNTH, "--out", "{out}"],
    ["simulate", "--config", "{models}/sim.conf", "--log", "{out}"],
], ids=["model", "rules", "alerts", "hyper-alerts", "event-log"])
@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing-parent"])
def test_an_output_path_it_cannot_write_is_named(tmp_path, capsys, sim_conf, argv, missing):
    out = tmp_path / "no" / "out" if missing else tmp_path
    fields = {"out": out, "tmp": tmp_path, "models": sim_conf.parent}
    rc = run_command([arg.format(**fields) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 1
    reason = "No such file or directory" if missing else "Is a directory"
    assert err == f"error: {out}: cannot write ({reason})\n"


# -- input fuzzing ---------------------------------------------------------------

FUZZ_CELLS = ["", " ", "a b", "a,b", '"', '"x"', "nan", "inf", "-1", "1e400", "0", "7.5",
              "tcp", "SF", "normal.", "\u00fc", "1" * 30]


@st.composite
def mutated_csv(draw, path: str) -> bytes:
    """The csv bytes of path after one to four random cell replacements,
    drops and duplications."""
    rows = [line.split(",") for line in Path(path).read_text(encoding="utf-8").splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        cell = draw(st.integers(0, len(row) - 1))
        action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if action == "replace":
            row[cell] = draw(st.sampled_from(FUZZ_CELLS))
        elif action == "drop":
            del row[cell]
        else:
            row.insert(cell, row[cell])
    return ("\n".join(",".join(row) for row in rows) + "\n").encode("utf-8")


def _run_on(data: bytes, argv: list[str], work: str) -> tuple[int, str, str]:
    path = os.path.join(work, "input.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run_command([arg.format(data=path, work=work) for arg in argv])
    return rc, err.getvalue(), path


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory) -> str:
    model = str(tmp_path_factory.mktemp("fuzz") / "det.bn")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["learn-detector", "--data", TRAIN, "--out", model]) == 0
    return model


def _input_commands(model: str) -> list[tuple[str, list[str]]]:
    """Each csv-reading command, on the file it reads; {data} is the input."""
    return [(os.path.join(SCENARIO_DIR, "host_a.csv"),
             ["detect", "--model", model, "--data", "{data}", "--host", "h",
              "--alerts-out", "{work}/alerts.csv"]),
            (TRAIN, ["learn-detector", "--data", "{data}", "--out", "{work}/det.bn"]),
            (HISTORY, ["learn-plan", "--alerts", "{data}", "--out", "{work}/plan.bn",
                       "--classifier-out", "{work}/clf.bn"]),
            (HISTORY, ["aggregate", "--alerts", "{data}", "--out", "{work}/hypers.csv"])]


@pytest.mark.parametrize("command", range(4), ids=["detect", "learn-detector", "learn-plan",
                                                     "aggregate"])
def test_an_input_that_is_not_utf8_fails_naming_its_line(fuzz_model, tmp_path, command):
    source, argv = _input_commands(fuzz_model)[command]
    rc, err, path = _run_on(Path(source).read_bytes() + b"\xff\xfe\n", argv, str(tmp_path))
    lines = Path(source).read_text(encoding="utf-8").count("\n")
    assert (rc, err) == (1, f"error: {path}:{lines + 1}: not UTF-8 text (invalid start byte)\n")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_mutated_input_runs_or_fails_naming_its_path(fuzz_model, data):
    """detect on a mutated host stream, learn-detector on a mutated training
    file, and learn-plan and aggregate on a mutated alert log each exit 0, or
    exit 1 with an error naming the input; with a byte pair that is not
    UTF-8 written anywhere in the mutated file, each exits 1 so."""
    for source, argv in _input_commands(fuzz_model):
        mutated = data.draw(mutated_csv(source))
        at = data.draw(st.integers(0, len(mutated)))
        for text in (mutated, mutated[:at] + b"\xff\xfe" + mutated[at:]):
            with tempfile.TemporaryDirectory() as work:
                rc, err, path = _run_on(text, argv, work)
            last = err.rstrip("\n").rsplit("\n", 1)[-1]  # after any warnings
            assert rc == 0 and text is mutated or (
                rc == 1 and last.startswith(f"error: {path}")), (rc, err)


SIM_VALUES = ["abc", "max", "threshold", "0", "-1", "0.25", "7", "1e400", "nan", "", "host."]
SIM_EXTRA_LINES = ["colour = red", "host = a", "hosts.a = b", "seed = 3",
                   "selection = threshold", "theta = 2"]


@st.composite
def mutated_sim_conf(draw, conf: Path) -> bytes:
    """A simulation config after one to four random line drops and
    duplications, value replacements (tokens, numbers, empty values, a bare
    `host.`, other model and stream paths) and added lines, some with unknown
    keys; one time in four with a byte pair that is not UTF-8 written into it."""
    paths = [str(p) for p in sorted(conf.parent.glob("*.bn"))] + [
        TRAIN, HISTORY, os.path.join(SCENARIO_DIR, "host_b.csv")]
    lines = conf.read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(["drop", "duplicate", "replace", "add"]))
        at = draw(st.integers(0, max(0, len(lines) - 1)))
        if action == "add" or not lines:
            lines.insert(at, draw(st.sampled_from(SIM_EXTRA_LINES)))
        elif action == "drop":
            del lines[at]
        elif action == "duplicate":
            lines.insert(at, lines[at])
        else:
            lines[at] = lines[at].partition("=")[0] + "= " + draw(
                st.sampled_from(SIM_VALUES + paths))
    text = ("\n".join(lines) + "\n").encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff\xfe" + text[at:]
    return text


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_mutated_sim_config_runs_or_fails_naming_its_path(sim_conf, data):
    """simulate on a mutated config exits 0, or exits 1 with an error naming
    the config or a file the config names."""
    text = data.draw(mutated_sim_conf(sim_conf))
    with tempfile.TemporaryDirectory() as work:
        conf = os.path.join(work, "sim.conf")
        with open(conf, "wb") as fh:
            fh.write(text)
        values = (line.partition("=")[2].strip()
                  for line in text.decode("utf-8", "replace").splitlines())
        named = [conf] + [os.path.join(work, value) for value in values if value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run_command(["simulate", "--config", conf, "--seed", "1"])
    last = err.getvalue().rstrip("\n").rsplit("\n", 1)[-1]  # after any warnings
    assert rc == 0 or rc == 1 and any(last.startswith(f"error: {path}:") for path in named), \
        (rc, err.getvalue())

"""The learn and forecast settings: one table of defaults and rules
(hidpas.core.PARAMS), read by the CLI, the simulation config, the trainers
and the model loaders, so a bad value fails before any work and a model a
trainer writes is one its loader accepts."""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hidpas.cli import run_command
from hidpas.core import PARAMS
from hidpas.detection import DetectorConfig, train_detector
from hidpas.features import load_kdd
from hidpas.model_io import load_classifier
from hidpas.prediction import (aggregate_alerts, build_transactions, classify_alert,
                               load_alert_log, predict_attacks, train_alert_classifier,
                               train_plan_model)

from conftest import SCENARIO_DIR

TRAIN = os.path.join(SCENARIO_DIR, "detector_train.csv")
HISTORY = os.path.join(SCENARIO_DIR, "alert_history.csv")
STREAM = os.path.join(SCENARIO_DIR, "host_c.csv")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# The input flag of each subcommand; the tests pass a path that does not exist
INPUT = {"learn-detector": "--data", "learn-plan": "--alerts", "aggregate": "--alerts",
         "predict": "--model", "simulate": "--config"}


def _fail(*args, **kwargs):
    raise AssertionError("data work ran before the settings were checked")


@pytest.mark.parametrize("command, option, value", [
    ("learn-detector", "--smoothing", "nan"),
    ("learn-detector", "--smoothing", "inf"),
    ("learn-detector", "--smoothing", "-1"),
    ("learn-detector", "--tau", "nan"),
    ("learn-detector", "--tau", "0_5"),  # float reads 0.5; a number is spelled as loadtxt reads it
    ("learn-detector", "--top-k", "-3"),
    ("learn-detector", "--max-parents", "-1"),
    ("learn-plan", "--smoothing", "nan"),
    ("learn-plan", "--smoothing", "-1"),
    ("learn-plan", "--tau", "inf"),
    ("learn-plan", "--span", "nan"),
    ("learn-plan", "--slot", "nan"),
    ("learn-plan", "--slot", "inf"),
    ("learn-plan", "--slot", "0"),
    ("learn-plan", "--span", "10"),  # below the default --slot of 60
    ("predict", "--threshold", "nan"),
    ("predict", "--select", "maximum"),
    ("simulate", "--seed", "1.5"),
    ("learn-detector", "--class-column", "nope"),
    ("learn-plan", "--merge-key", "foo"),
    ("aggregate", "--merge-key", "foo"),
    ("oracle-check", "--seed", "-1"),
    ("oracle-check", "--networks", "0"),
    ("oracle-check", "--networks", "-3"),
    ("oracle-check", "--transforms", "0"),
])
def test_a_bad_setting_is_a_usage_error_before_any_file_is_opened(
        tmp_path, capsys, monkeypatch, command, option, value):
    monkeypatch.setattr("hidpas.oracles.run_all", _fail)
    missing = tmp_path / "missing.csv"
    out = tmp_path / "out.bn"
    rest = {"learn-detector": ["--out", str(out)], "learn-plan": ["--out", str(out)],
            "aggregate": ["--out", str(out)],
            "predict": ["--observed", "portsweep", "--select", "threshold"],
            "simulate": [], "oracle-check": []}[command]
    given = [INPUT[command], str(missing)] if command in INPUT else []
    assert run_command([command] + given + rest + [option, value]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err, err
    assert "file not found" not in err and not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"top_k": -3}, "top_k must be >= 0"),
    ({"smoothing": -1.0}, "smoothing must be >= 0"),
    ({"smoothing": math.nan}, "smoothing must be finite"),
    ({"max_parents": -1}, "max_parents must be >= 0"),
    ({"tau": math.inf}, "tau must be finite"),
    ({"top_k": 2.5}, "top_k must be an integer"),
])
def test_detector_config_rejects_a_bad_setting_before_ranking(monkeypatch, config, message):
    monkeypatch.setattr("hidpas.detection.gini_rank", _fail)
    with pytest.raises(ValueError, match=message):
        train_detector(load_kdd(TRAIN), DetectorConfig(**config))


@pytest.mark.parametrize("trainer", [train_plan_model, train_alert_classifier])
@pytest.mark.parametrize("setting, value, message", [
    ("max_parents", -1, "max_parents must be >= 0"),
    ("smoothing", math.nan, "smoothing must be finite"),
    ("tau", math.inf, "tau must be finite"),
])
def test_plan_trainers_reject_a_bad_setting_before_k2(monkeypatch, trainer, setting, value,
                                                      message):
    hypers = aggregate_alerts(load_alert_log(HISTORY))
    data = build_transactions(hypers, dt=60.0) if trainer is train_plan_model else hypers
    monkeypatch.setattr("hidpas.prediction.k2_search", _fail)
    with pytest.raises(ValueError, match=message):
        trainer(data, **{setting: value})


def test_transactions_and_forecasts_reject_a_bad_setting():
    hypers = aggregate_alerts(load_alert_log(HISTORY))
    with pytest.raises(ValueError, match="slot must be finite"):
        build_transactions(hypers, dt=float("nan"))
    with pytest.raises(ValueError, match="span must be finite"):
        build_transactions(hypers, dt=60.0, span=float("inf"))
    with pytest.raises(ValueError, match="span must cover at least one slot"):
        build_transactions(hypers, dt=60.0, span=10.0)
    plan = train_plan_model(build_transactions(hypers, dt=60.0))
    with pytest.raises(ValueError, match="theta must be finite"):
        predict_attacks(plan, ["portsweep"], "threshold", theta=float("nan"))
    with pytest.raises(ValueError, match="selection must be one of max, threshold"):
        predict_attacks(plan, ["portsweep"], "maximum")


def test_the_readme_states_each_setting_as_the_table_does():
    """README "Key defaults": the allowed cell of each setting's row is its
    rule, and the default cell starts with its default."""
    flags = {"top_k": "--top-k", "max_parents": "--max-parents", "smoothing": "--smoothing",
             "tau": "--tau", "slot": "--slot", "span": "--span", "selection": "--select",
             "theta": "--threshold", "seed": "--seed"}
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("| knob |"):].split("\n\n")[0].splitlines()
    assert [c.strip() for c in table[0].strip("|").split("|")] == [
        "knob", "default", "allowed", "where"]
    for name, param in PARAMS.items():
        [row] = [r for r in table if f"{flags[name]}`" in r or f"{flags[name]} " in r]
        _, default, allowed, _ = (c.strip().strip("`") for c in row.strip("|").split("|"))
        assert allowed == param.rule, name
        shown = default.split()[0]
        assert (shown == "unset" if param.default is None
                else shown == str(param.default) or float(shown) == param.default), name


@pytest.mark.parametrize("command, option, name", [
    ("learn-detector", "--top-k", "top_k"), ("learn-detector", "--tau", "tau"),
    ("learn-plan", "--max-parents", "max_parents"), ("learn-plan", "--smoothing", "smoothing"),
    ("learn-plan", "--slot", "slot"), ("learn-plan", "--span", "span"),
    ("predict", "--select", "selection"), ("predict", "--threshold", "theta"),
    ("simulate", "--seed", "seed"),
])
def test_help_states_each_setting_as_the_table_does(capsys, command, option, name):
    param = PARAMS[name]
    assert run_command([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    entry = text[text.index(f"{option} ", text.index("options:")):]
    default = "" if param.default is None or command == "simulate" else f"default {param.default}; "
    assert f"({default}{param.rule})" in entry[:300], entry[:300]


# -- the property: accepted settings make models that load and answer -----------

VALID = {
    "--top-k": st.integers(0, 12),
    "--max-parents": st.integers(0, 3),
    "--smoothing": st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    "--tau": st.sampled_from([-1.0, 0.0, 0.3, 0.5, 1.0, 3.0]),
    "--slot": st.sampled_from([1.0, 30.0, 60.0, 600.0]),
}
INVALID = {
    "--top-k": ["-1", "-3", "2.5", "nan"],
    "--max-parents": ["-1", "-8", "1.5", "two"],
    "--smoothing": ["-1", "-0.5", "nan", "inf", "-inf"],
    "--tau": ["nan", "inf", "-inf", "x"],
    "--slot": ["0", "-60", "nan", "inf"],
    "--span": ["0", "-5", "nan", "inf"],
}


@st.composite
def learn_settings(draw, options: list[str]) -> tuple[dict[str, str], list[str]]:
    """Tokens for some of the options, each within its rule, then up to two
    options given a token outside it; and the options given one."""
    tokens = draw(st.fixed_dictionaries({}, optional={o: VALID[o].map(repr) for o in options}))
    bad = draw(st.lists(st.sampled_from(options), max_size=2, unique=True))
    for option in bad:
        tokens[option] = draw(st.sampled_from(INVALID[option]))
    return tokens, bad


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run_command(argv)
    return rc, err.getvalue()


def _learn(command: str, data: str, tokens: dict[str, str], bad: list[str],
           outputs: dict[str, str]) -> bool:
    """Run command on data, writing outputs (flag -> path), with the option
    tokens. Given a bad token it must exit 2 naming a bad option, with data
    a missing file and nothing written; otherwise exit 0. True if accepted."""
    event("rejected" if bad else "accepted")
    if bad:
        data = os.path.join(os.path.dirname(outputs["--out"]), "missing.csv")
    argv = [command, INPUT[command], data]
    for option, token in {**outputs, **tokens}.items():
        argv += [option, token]
    rc, err = _run(argv)
    if bad:
        assert rc == 2 and re.search(r"argument (--[a-z-]+):", err)[1] in bad, err
        assert not any(os.path.exists(path) for path in outputs.values()), err
        return False
    assert rc == 0, err
    return True


@settings(max_examples=40, deadline=None)
@given(learn_settings(["--top-k", "--max-parents", "--smoothing", "--tau"]))
def test_learn_detector_settings_it_accepts_make_a_model_detect_answers_with(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "det.bn")
        if _learn("learn-detector", TRAIN, *drawn, {"--out": model}):
            rc, err = _run(["detect", "--model", model, "--data", STREAM, "--host", "h",
                            "--alerts-out", os.path.join(tmp, "alerts.csv")])
            assert rc == 0, err


@settings(max_examples=40, deadline=None)
@given(learn_settings(["--slot", "--max-parents", "--smoothing", "--tau"]),
       st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5]), st.sampled_from(INVALID["--span"])))
def test_learn_plan_settings_it_accepts_make_models_predict_answers_with(drawn, span):
    """span is a multiple of the slot (0.5: under one slot, which the rule
    rejects) or a token outside the rule."""
    tokens, bad = drawn
    if span is not None:
        slot = float(tokens["--slot"]) if "--slot" in tokens else PARAMS["slot"].default
        if isinstance(span, str) or span < 1:
            bad = bad + ["--span"]
        tokens = {**tokens, "--span": span if isinstance(span, str) else repr(span * slot)}
    with tempfile.TemporaryDirectory() as tmp:
        plan, clf = os.path.join(tmp, "plan.bn"), os.path.join(tmp, "clf.bn")
        if _learn("learn-plan", HISTORY, tokens, bad, {"--out": plan, "--classifier-out": clf}):
            rc, err = _run(["predict", "--model", plan, "--observed", ""])
            assert rc == 0, err
            alert = load_alert_log(HISTORY)[0]
            assert classify_alert(load_classifier(clf), alert).label

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Two checks are gated on externally supplied datasets and skip cleanly when
absent: set HIDPAS_KDD_DATA to a KDD 10%-sample connection file and
HIDPAS_LLDOS_ALERTS to a converted LLDOS1.0 alert log CSV to enable them.
"""

from __future__ import annotations

import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import DATA_DIR, SCENARIO_DIR, cells, raw_table

TRAIN = os.path.join(SCENARIO_DIR, "detector_train.csv")
HISTORY = os.path.join(SCENARIO_DIR, "alert_history.csv")
SYNTH = os.path.join(DATA_DIR, "alerts_synthetic.csv")


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException as exc:
        status = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"[criterion {number}] {status}: {title}", file=sys.stderr)
        raise
    print(f"[criterion {number}] PASS: {title}", file=sys.stderr)


def test_criterion_1_probabilistic_oracle():
    from hidpas.oracles import check_probabilistic

    with criterion(1, "sum-product marginals match enumeration on 200 nets (1e-9)"):
        start = time.perf_counter()
        report = check_probabilistic(seed=1, networks=200, tol=1e-9)
        elapsed = time.perf_counter() - start
        assert report.failures == 0, report.notes[:5]
        assert report.worst <= 1e-9
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_possibilistic_oracle():
    from hidpas.oracles import check_possibilistic

    with criterion(2, "max-min marginals match enumeration on 200 nets (1e-12)"):
        start = time.perf_counter()
        report = check_possibilistic(seed=1, networks=200, tol=1e-12)
        elapsed = time.perf_counter() - start
        assert report.failures == 0, report.notes[:5]
        assert report.worst <= 1e-12
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_transformation():
    from hidpas.oracles import direct_power_transform, random_decreasing_distribution
    from hidpas.possibility import necessity, prob_to_poss

    with criterion(3, "possibility transform: power formula, tail sums, sandwich"):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = random_decreasing_distribution(rng, max_n=10)
            pi = prob_to_poss(p)
            assert pi[0] == 1.0
            tails = np.array([math.fsum(p[i:].tolist()) for i in range(p.size)])
            tails[0] = 1.0
            np.testing.assert_allclose(pi, tails, atol=1e-12)
            np.testing.assert_allclose(pi, direct_power_transform(p), atol=1e-12)
            n = necessity(pi)
            assert np.all(n <= p) and np.all(p <= pi)  # exact statewise

        # ledgered tie extension: equal probabilities share the grouped tail
        np.testing.assert_allclose(prob_to_poss([0.4, 0.4, 0.2]), [1.0, 1.0, 0.2])
        np.testing.assert_allclose(prob_to_poss([0.25, 0.25, 0.25, 0.25]),
                                   [1.0, 1.0, 1.0, 1.0])
        # ledgered zero extension: impossible states stay impossible
        np.testing.assert_allclose(prob_to_poss([0.7, 0.3, 0.0]), [1.0, 0.3, 0.0])
        np.testing.assert_allclose(prob_to_poss([1.0, 0.0]), [1.0, 0.0])


def _sample_chain(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    a = (rng.random(n_rows) < 0.5).astype(np.int64)
    b = np.where(rng.random(n_rows) < 0.9, a, 1 - a)
    c = np.where(rng.random(n_rows) < 0.9, b, 1 - b)
    return np.stack([a, b, c], axis=1)


def test_criterion_4_k2_score_and_chain_recovery():
    from hidpas.core import Variable
    from hidpas.learning import (DiscreteDataset, count_statistics, k2_local_log_score,
                                 k2_search)
    from hidpas.oracles import k2_score_by_factorials

    with criterion(4, "K2 score matches factorials; chain recovered in >= 19/20 seeds"):
        # exact-score agreement over every small dataset shape
        variables = (Variable(0, "P", ("0", "1")), Variable(1, "X", ("0", "1", "2")))
        rng = np.random.default_rng(3)
        for n in range(13):  # all sizes with exact double factorials
            for _ in range(20):
                rows = np.stack(
                    [rng.integers(0, 2, n), rng.integers(0, 3, n)], axis=1
                ) if n else np.zeros((0, 2), dtype=np.int64)
                data = DiscreteDataset(variables, rows)
                for parents in ((), (0,)):
                    counts = count_statistics(data, 1, parents)
                    got = k2_local_log_score(counts)
                    expected = k2_score_by_factorials(counts)
                    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

        chain_vars = tuple(Variable(i, name, ("0", "1"))
                           for i, name in enumerate("ABC"))
        recovered = 0
        for seed in range(20):
            rows = _sample_chain(np.random.default_rng(1000 + seed), 5000)
            data = DiscreteDataset(chain_vars, rows)
            dag = k2_search(data, (0, 1, 2), 2)
            if dag.parents == ((), (0,), (1,)):
                recovered += 1
        print(f"\nchain recovery: {recovered}/20 seeds", file=sys.stderr)
        assert recovered >= 19


def test_criterion_5_aggregation_fixture():
    from hidpas.prediction import (aggregate_alerts, load_alert_log,
                                   phase1_cluster_count)

    with criterion(5, "bundled 50-alert log aggregates to its designed partition"):
        log = load_alert_log(SYNTH)
        assert len(log) == 50
        hypers = aggregate_alerts(log)
        assert [(h.id, h.name, h.size) for h in hypers] == [
            (0, "scan", 20), (1, "exploit", 15), (2, "dos", 10), (3, "backdoor", 5),
        ]
        assert sum(h.size for h in hypers) == 50  # partition property
        assert phase1_cluster_count(log) == 6
        rows = [r for h in hypers for r in h.members.rows.tolist()]
        assert sorted(rows) == list(range(50))  # each log row in exactly one hyper-alert


def test_criterion_5b_lldos_report_if_supplied():
    from hidpas.prediction import (aggregate_alerts, load_alert_log,
                                   phase1_cluster_count)

    path = os.environ.get("HIDPAS_LLDOS_ALERTS")
    with criterion(5, "LLDOS1.0 hyper-alert counts reported next to the "
                      "published reference (not asserted)"):
        if not path:
            pytest.skip("set HIDPAS_LLDOS_ALERTS to a converted RealSecure log")
        log = load_alert_log(path)
        hypers = aggregate_alerts(log)
        reference = {"Email_Ehlo": 522, "Stream_DoS": 1}
        print(f"\nLLDOS1.0: {len(log)} alerts, {phase1_cluster_count(log)} "
              f"phase-1 clusters, {len(hypers)} hyper-alerts", file=sys.stderr)
        for h in sorted(hypers, key=lambda h: -h.size):
            ref = reference.get(h.name)
            suffix = f" (reference {ref})" if ref is not None else ""
            print(f"  {h.name}: {h.size}{suffix}", file=sys.stderr)


def test_criterion_6_end_to_end_simulation(tmp_path):
    from hidpas.agents import SimulationConfig, run_simulation
    from hidpas.cli import run_command
    from hidpas.jtree import net_factors
    from hidpas.model_io import load_plan
    from hidpas.oracles import enumerate_marginal

    with criterion(6, "3-host scenario: one alert, successor lift >= 2x prior, "
                      "oracle-verified"):
        start = time.perf_counter()
        det = tmp_path / "det.bn"
        plan_path = tmp_path / "plan.bn"
        clf = tmp_path / "clf.bn"
        assert run_command(["learn-detector", "--data", TRAIN, "--out", str(det),
                            "--top-k", "4", "--label-granularity", "attack",
                            "--no-timestamp"]) == 0
        assert run_command(["learn-plan", "--alerts", HISTORY, "--out",
                            str(plan_path), "--classifier-out", str(clf),
                            "--slot", "60", "--no-timestamp"]) == 0
        config = SimulationConfig(
            hosts={
                "host-a": os.path.join(SCENARIO_DIR, "host_a.csv"),
                "host-b": os.path.join(SCENARIO_DIR, "host_b.csv"),
                "host-c": os.path.join(SCENARIO_DIR, "host_c.csv"),
            },
            detector_model=str(det),
            alert_classifier=str(clf),
            plan_model=str(plan_path),
            tau=0.7,
            seed=42,
        )
        result = run_simulation(config)
        alerts = [m for m in result.event_log if m.kind == "alert"]
        predictions = [m for m in result.event_log if m.kind == "prediction"]
        assert len(alerts) == 1
        assert alerts[0].payload.attack_type == "portsweep"
        assert len(predictions) == 1

        report = predictions[0].payload
        conditional = next(r.probability for r in report.rows
                           if r.hyper_name == "teardrop")

        plan = load_plan(str(plan_path))
        arities = [v.arity for v in plan.net.dag.variables]
        factors = net_factors(plan.net)
        pid = plan.hyper_names.index("portsweep")
        tid = plan.hyper_names.index("teardrop")
        oracle_prior = enumerate_marginal(factors, arities, {}, tid, "sum-product")
        oracle_cond = enumerate_marginal(factors, arities, {pid: 1}, tid,
                                         "sum-product")
        assert conditional == pytest.approx(oracle_cond[1], abs=1e-9)
        assert conditional >= 2.0 * oracle_prior[1]
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_7_cli_determinism(tmp_path, capsys):
    from hidpas.cli import run_command

    with criterion(7, "identical argv + inputs + seed give byte-identical outputs"):
        host_c = os.path.join(SCENARIO_DIR, "host_c.csv")
        snapshots = []
        for tag in ("x", "y"):
            base = tmp_path / tag
            base.mkdir()
            det, plan, clf = (base / "det.bn", base / "plan.bn", base / "clf.bn")
            hyper, alerts = base / "hyper.csv", base / "alerts.csv"
            log = base / "events.ndjson"
            assert run_command(["learn-detector", "--data", TRAIN, "--out",
                                str(det), "--top-k", "4",
                                "--label-granularity", "attack",
                                "--no-timestamp"]) == 0
            assert run_command(["detect", "--model", str(det), "--data", host_c,
                                "--host", "h", "--alerts-out", str(alerts)]) == 0
            assert run_command(["aggregate", "--alerts", SYNTH, "--out",
                                str(hyper)]) == 0
            assert run_command(["learn-plan", "--alerts", HISTORY, "--out",
                                str(plan), "--classifier-out", str(clf),
                                "--slot", "60", "--no-timestamp"]) == 0
            capsys.readouterr()
            assert run_command(["predict", "--model", str(plan), "--observed",
                                "portsweep"]) == 0
            predict_out = capsys.readouterr().out
            conf = base / "sim.conf"
            conf.write_text(
                f"detector_model = {det}\nalert_classifier = {clf}\n"
                f"plan_model = {plan}\ntau = 0.7\n"
                f"host.host-a = {os.path.join(SCENARIO_DIR, 'host_a.csv')}\n"
                f"host.host-c = {host_c}\n"
            )
            assert run_command(["simulate", "--config", str(conf), "--seed", "42",
                                "--log", str(log)]) == 0
            capsys.readouterr()
            assert run_command(["transform", "0.41", "0.33", "0.26"]) == 0
            transform_out = capsys.readouterr().out
            assert run_command(["oracle-check", "--seed", "5", "--networks", "5",
                                "--transforms", "20"]) == 0
            oracle_out = capsys.readouterr().out
            snapshots.append((
                det.read_bytes(), plan.read_bytes(), clf.read_bytes(),
                hyper.read_bytes(), alerts.read_bytes(), log.read_bytes(),
                predict_out, transform_out, oracle_out,
            ))
        assert snapshots[0] == snapshots[1]


def test_criterion_8_kdd_sample_accuracy_if_supplied():
    path = os.environ.get("HIDPAS_KDD_DATA")
    with criterion(8, "KDD sample: normal and DOS accuracy above 95% "
                      "(substitute for full published runs)"):
        if not path:
            pytest.skip("set HIDPAS_KDD_DATA to a KDD 10%-sample file")
        import numpy as np

        from hidpas.detection import (ConnectionRecord, DetectorConfig,
                                      classify_connection, train_detector)
        from hidpas.features import apply_label_granularity, load_kdd

        start = time.perf_counter()
        table = apply_label_granularity(load_kdd(path, on_bad="skip"), "category")
        rng = np.random.default_rng(0)
        held_out = rng.random(table.row_count) < 0.2
        columns = [cells(table, name) for name in table.names]
        train_table = raw_table(table.names, table.kinds, [c[~held_out] for c in columns])
        model = train_detector(train_table, DetectorConfig(top_k=9))

        eval_idx = np.flatnonzero(held_out)
        if len(eval_idx) > 20000:
            eval_idx = rng.choice(eval_idx, size=20000, replace=False)
        labels = cells(table, "attack_type")
        correct = {"normal": 0, "dos": 0}
        total = {"normal": 0, "dos": 0}
        for i in eval_idx:
            truth = labels[i]
            if truth not in total:
                continue
            record = ConnectionRecord(tuple(c[i] for c in columns[:41]))
            total[truth] += 1
            if classify_connection(model, record).label == truth:
                correct[truth] += 1
        elapsed = time.perf_counter() - start
        for cls in ("normal", "dos"):
            accuracy = correct[cls] / max(1, total[cls])
            print(f"\n{cls}: {correct[cls]}/{total[cls]} = {accuracy:.4f}",
                  file=sys.stderr)
            assert accuracy > 0.95
        assert elapsed < 300.0, f"took {elapsed:.1f}s"

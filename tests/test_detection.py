from __future__ import annotations

import csv
import logging
import math
import os
import random
import tempfile
from pathlib import Path
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas import detection, features, possibility
from hidpas.core import finite_float
from hidpas.detection import (
    ALERT_CSV_HEADER,
    ConnectionRecord,
    ConnectionStream,
    DetectionAlert,
    DetectorConfig,
    DetectorModel,
    classify_connection,
    classify_connections,
    detect_stream,
    load_stream,
    train_detector,
    write_alerts_csv,
)
from hidpas.features import (
    KDD_FEATURES,
    NONE_STATE,
    NUMERIC,
    DataError,
    RawTable,
    build_rules,
    load_kdd,
    parse_connection_fields,
)

from hidpas.model_io import format_detector, load_detector, save_detector

from conftest import cells, counting, data_path, raw_table, shown


def toy_table(n_per_class: int = 12) -> RawTable:
    """attack_type is a deterministic function of protocol_type."""
    names = [n for n, _ in KDD_FEATURES] + ["attack_type"]
    kinds = [k for _, k in KDD_FEATURES] + ["categorical"]
    defaults = {"categorical": "c0", "numeric": 0.0}
    columns = []
    protos = ["tcp"] * n_per_class + ["udp"] * n_per_class
    labels = ["normal"] * n_per_class + ["dos"] * n_per_class
    for name, kind in zip(names, kinds):
        if name == "protocol_type":
            columns.append(np.array(protos, dtype=object))
        elif name == "attack_type":
            columns.append(np.array(labels, dtype=object))
        elif kind == "numeric":
            columns.append(np.zeros(2 * n_per_class))
        else:
            columns.append(np.array([defaults["categorical"]] * 2 * n_per_class,
                                    dtype=object))
    return raw_table(tuple(names), tuple(kinds), tuple(columns))


def record_from_table(table: RawTable, row: int, **meta) -> ConnectionRecord:
    values = tuple(cells(table, name)[row] for name in table.names[:41])
    return ConnectionRecord(values, **meta)


def reference_evidence(model, record: ConnectionRecord) -> dict[int, int]:
    """The evidence a detector asserts for a record, read off the model's
    net and rules: every variable but the class, a numeric feature at or
    above its mean in state 1, a category by its state label if it has one."""
    kinds, evidence = dict(KDD_FEATURES), {}
    for var in model.net.dag.variables:
        if var.id == model.class_var:
            continue
        raw = record.value(var.name)
        if kinds[var.name] == NUMERIC:
            evidence[var.id] = int(float(raw) >= model.rules.means[var.name])
        elif str(raw) in var.states:
            evidence[var.id] = var.states.index(str(raw))
    return evidence


@pytest.fixture(scope="module")
def deterministic_model():
    table = toy_table()
    return train_detector(table, DetectorConfig(top_k=2, smoothing=0.0)), table


@pytest.fixture(scope="module")
def scenario_model():
    table = load_kdd(data_path("scenario", "detector_train.csv"))
    return train_detector(table, DetectorConfig(top_k=4))


def test_deterministic_class_forces_edge_and_perfect_training_fit(deterministic_model):
    model, table = deterministic_model
    proto = model.net.var_id("protocol_type")
    cls = model.class_var
    linked = (proto in model.net.dag.parents[cls]
              or cls in model.net.dag.parents[proto])
    assert linked
    for row in range(table.row_count):
        result = classify_connection(model, record_from_table(table, row))
        assert result.label == cells(table, "attack_type")[row]
        assert result.triple[1] == pytest.approx(1.0)
        assert result.marginal.gap(result.state) == pytest.approx(0.0)


def test_single_class_table_degenerates():
    table = toy_table()
    labels = np.array(["normal"] * table.row_count, dtype=object)
    columns = [labels if name == "attack_type" else cells(table, name) for name in table.names]
    single = raw_table(table.names, table.kinds, columns)
    model = train_detector(single, DetectorConfig(top_k=2))
    assert model.net.variable(model.class_var).states == ("normal", NONE_STATE)
    result = classify_connection(model, record_from_table(single, 0))
    assert result.label == "normal"
    n = single.row_count  # Laplace smoothing over the two states
    assert result.triple[1] == pytest.approx((n + 1) / (n + 2))


@pytest.mark.parametrize("single_class", [False, True])
def test_constant_columns_save_load_and_classify(tmp_path, single_class):
    """Every categorical constant (and the class too, if single_class): each
    selected variable still has two states, so the saved detector loads and
    classifies every row as the trained one does, up to the file's rounding."""
    table = toy_table()
    constant = {"protocol_type"} | ({"attack_type"} if single_class else set())
    columns = [cells(table, name) for name in table.names]
    columns = [np.full(table.row_count, col[0], dtype=object) if name in constant else col
               for name, col in zip(table.names, columns)]
    table = raw_table(table.names, table.kinds, columns)
    model = train_detector(table, DetectorConfig(top_k=3))
    assert "protocol_type" in model.features
    path = str(tmp_path / "det.bn")
    save_detector(model, path)
    loaded = load_detector(path)
    records = [record_from_table(table, row) for row in range(table.row_count)]
    for got, want in zip(classify_connections(loaded, records),
                         classify_connections(model, records)):
        assert (got.label, got.low_confidence) == (want.label, want.low_confidence)
        assert got.marginal.probability == pytest.approx(want.marginal.probability, abs=1e-9)


def test_model_has_top_k_plus_class_variables(scenario_model):
    assert len(scenario_model.net.dag.variables) == 5  # 4 features + class


def test_an_order_naming_each_selected_column_but_once_fails_before_k2(scenario_model,
                                                                       monkeypatch):
    table = load_kdd(data_path("scenario", "detector_train.csv"))
    names = [v.name for v in scenario_model.net.variables]  # the 4 features and the class
    monkeypatch.setattr("hidpas.detection.k2_search", lambda *args: pytest.fail("K2 ran"))
    features = [n for n in names if n != "attack_type"]
    for order, fault in ((["attack_type"], f"misses {features}"),
                         (names + ["attack_type"], "repeats ['attack_type']"),
                         (names + ["nope", "nope"], "names unknown columns ['nope', 'nope']")):
        with pytest.raises(ValueError) as err:
            train_detector(table, DetectorConfig(top_k=4, order=tuple(order)))
        assert str(err.value) == (f"order {fault}: each of the selected columns "
                                  f"{sorted(names)} must appear once")


def test_a_valid_order_is_the_order_k2_searches(scenario_model):
    """The class, then the features in id order, is the default order, so it
    gives the default model; under the reversed order every learned parent
    precedes its child in that order."""
    table = load_kdd(data_path("scenario", "detector_train.csv"))
    order = ("attack_type",) + scenario_model.features
    same = train_detector(table, DetectorConfig(top_k=4, order=order))
    assert format_detector(same, timestamp=False) == format_detector(scenario_model,
                                                                     timestamp=False)
    net = train_detector(table, DetectorConfig(top_k=4, order=order[::-1])).net
    place = {name: i for i, name in enumerate(order[::-1])}
    edges = [(net.variables[p].name, var.name)
             for var, parents in zip(net.variables, net.dag.parents) for p in parents]
    assert edges and all(place[parent] < place[child] for parent, child in edges)


def test_classification_probabilities_sum_to_one(scenario_model):
    records = load_stream(data_path("scenario", "host_c.csv"))
    for record in records:
        result = classify_connection(scenario_model, record)
        assert math.fsum(result.marginal.probability) == pytest.approx(1.0, abs=1e-9)


def test_unseen_category_flows_through_unknown_path(deterministic_model):
    model, table = deterministic_model
    record = record_from_table(table, 0)
    values = list(record.values)
    values[1] = "icmp"  # protocol value never seen in training
    result = classify_connection(model, ConnectionRecord(tuple(values)))
    assert result.unknown_values == ("protocol_type=icmp",)
    assert result.label in ("normal", "dos")


def test_symmetric_model_breaks_ties_by_state_order():
    table = toy_table()
    model = train_detector(table, DetectorConfig(top_k=0, smoothing=1.0))
    # no features: classification sees the bare class prior, which is uniform
    result = classify_connection(model, record_from_table(table, 0))
    assert result.label == model.net.variable(model.class_var).states[0]


def test_probability_component_equals_plain_jt_classification(scenario_model):
    """The possibility bracket influences selection only; P comes from plain
    sum-product propagation of the same evidence."""
    from hidpas.jtree import (SUM_PRODUCT, build_tree_for_net, evidence_matrix,
                              initialize_potentials, net_factors, propagate,
                              query_marginal)

    records = load_stream(data_path("scenario", "host_c.csv"))
    jt = initialize_potentials(build_tree_for_net(scenario_model.net),
                               net_factors(scenario_model.net), SUM_PRODUCT)
    for record in records:
        evidence = reference_evidence(scenario_model, record)
        result = classify_connection(scenario_model, record)
        plain = query_marginal(propagate(jt, evidence_matrix(jt, [evidence])),
                               scenario_model.class_var)[0]
        assert tuple(plain) == result.marginal.probability


def test_detect_stream_all_normal_is_empty(scenario_model):
    records = load_stream(data_path("scenario", "host_a.csv"))
    assert detect_stream(scenario_model, records, "h") == []


def test_detect_stream_flags_the_intrusive_record(scenario_model):
    records = load_stream(data_path("scenario", "host_c.csv"))
    alerts = detect_stream(scenario_model, records, "host-c")
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.attack_type == "portsweep"
    assert alert.host == "host-c"
    assert alert.timestamp == 65.0
    assert alert.src_ip == "10.0.0.5"
    assert 0.0 <= alert.necessity <= alert.possibility <= 1.0


def test_detect_stream_empty_input(scenario_model):
    assert detect_stream(scenario_model, [], "h") == []


def test_alert_count_never_exceeds_records(scenario_model):
    for name in ("host_a", "host_b", "host_c"):
        records = load_stream(data_path("scenario", f"{name}.csv"))
        alerts = detect_stream(scenario_model, records, name)
        assert len(alerts) <= len(records)
        assert all(a.attack_type != "normal" for a in alerts)


def test_load_stream_plain_kdd_synthesizes_timestamps(tmp_path):
    lines = Path(data_path("scenario", "detector_train.csv")).read_text().splitlines(True)[:3]
    path = tmp_path / "plain.csv"
    path.write_text("".join(lines))
    records = load_stream(str(path))
    assert [r.timestamp for r in records] == [0.0, 1.0, 2.0]
    assert records[0].src_ip == ""


def test_load_stream_metadata_prefix():
    records = load_stream(data_path("scenario", "host_c.csv"))
    assert records[1].timestamp == 65.0
    assert records[1].src_ip == "10.0.0.5"
    assert records[1].dst_ip == "192.168.1.10"


def test_load_stream_rejects_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3,4\n")
    with pytest.raises(Exception):
        load_stream(str(path))
    assert list(load_stream(str(path), on_bad="skip")) == []


# "2_6.1" and the Arabic-Indic "10" are float's spellings of numbers, not loadtxt's
@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "soon", "2_6.1", "\u0661\u0660"])
def test_load_stream_rejects_a_non_finite_timestamp(tmp_path, stamp):
    lines = Path(data_path("scenario", "host_c.csv")).read_text().splitlines()
    path = tmp_path / "stamps.csv"
    path.write_text("\n".join([lines[0], stamp + lines[1][lines[1].index(","):], lines[2]]) + "\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=f"stamps.csv:2: bad timestamp '{stamp}'"):
        load_stream(str(path))
    kept = load_stream(str(path), on_bad="skip")
    assert [r.timestamp for r in kept] == [r.timestamp for r in
                                           load_stream(data_path("scenario", "host_c.csv"))[::2][:2]]


def test_load_stream_names_physical_line_after_quoted_newline(tmp_path, caplog):
    with open(data_path("scenario", "host_c.csv")) as fh:
        lines = fh.read().splitlines()
    spanning = lines[0].split(",")
    spanning[4] = '"tc\np"'  # protocol_type: this record holds lines 1-2
    bad = lines[2].split(",")
    bad[3] = "abc"  # duration
    path = tmp_path / "s.csv"
    path.write_text("\n".join([",".join(spanning), lines[1], ",".join(bad)]) + "\n")
    with pytest.raises(DataError, match=r"s\.csv:4: non-numeric value 'abc' in column duration"):
        load_stream(str(path))
    with caplog.at_level("WARNING", logger="hidpas.detection"):
        records = load_stream(str(path), on_bad="skip")
    assert [r.timestamp for r in records] == [15.0, 65.0]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:4: skipped row (non-numeric value 'abc' in column duration)"]


# The row loop load_stream had before it read through core.csv_records, kept
# verbatim (but for logging into a list) as the reference load_stream must
# match record for record and warning for warning.
def reference_load_stream(path: str, on_bad: str, warned: list[str]) -> list[ConnectionRecord]:
    n_feat = len(KDD_FEATURES)
    records: list[ConnectionRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec or (len(rec) == 1 and not rec[0].strip()):
                continue
            try:
                if len(rec) in (n_feat, n_feat + 1):
                    values = parse_connection_fields(rec[:n_feat])
                    records.append(ConnectionRecord(values, timestamp=float(len(records))))
                elif len(rec) in (n_feat + 3, n_feat + 4):
                    try:
                        ts = finite_float(rec[0])
                    except ValueError:
                        raise DataError(f"bad timestamp {rec[0]!r}") from None
                    values = parse_connection_fields(rec[3:3 + n_feat])
                    records.append(ConnectionRecord(
                        values, timestamp=ts, src_ip=rec[1].strip(), dst_ip=rec[2].strip()
                    ))
                else:
                    raise DataError(f"unexpected field count {len(rec)}")
            except DataError as exc:
                if on_bad == "abort":
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                warned.append("%s:%d: skipped row (%s)" % (path, lineno, exc))
    return records


STREAM_NUMBERS = ["0", "1", "-0", "65", "0.03", "1.5e3", "+.5", "5.", "1E-5", "007", "1e-400"]
STREAM_CATEGORIES = ["tcp", "http", "SF", "0", "normal.", "a b", "", 'q"t', "\u00fc"]
STREAM_SPACES = ["", " ", "\t"]
# each defect makes the row loop report or skip a row: a bad number in a
# feature or in the timestamp, or a field count of no accepted shape
STREAM_DEFECTS = ["abc", "nan", "inf", "1e400", "", "1_0", "bad stamp", "arity"]


def _stream_cell(rng: random.Random, values: list[str], quote_rate: float,
                 space_rate: float) -> str:
    value = rng.choice(values)
    if rng.random() < space_rate:
        value = rng.choice(STREAM_SPACES) + value + rng.choice(STREAM_SPACES)
    if rng.random() < quote_rate:
        value = '"' + value.replace('"', '""') + '"'
    return value


def _stream_row(rng: random.Random, quote_rate: float, space_rate: float) -> list[str]:
    """A plain (41 or 42 fields) or prefixed (44 or 45 fields) row."""
    row = [_stream_cell(rng, STREAM_NUMBERS if kind == NUMERIC else STREAM_CATEGORIES,
                        quote_rate, space_rate) for _, kind in KDD_FEATURES]
    if rng.random() < 0.5:
        row.append(_stream_cell(rng, ["normal.", "smurf"], quote_rate, space_rate))
    if rng.random() < 0.5:
        row[:0] = [_stream_cell(rng, STREAM_NUMBERS, quote_rate, space_rate),
                   _stream_cell(rng, ["10.0.0.5", " 10.0.0.6 "], quote_rate, space_rate),
                   _stream_cell(rng, ["192.168.1.10"], quote_rate, space_rate)]
    return row


@st.composite
def stream_files(draw) -> str:
    """Stream text: plain and prefixed rows, quoted and spaced cells, blank
    lines, LF or CRLF line ends, and up to two defects; no quoted newline,
    the one place where record and line numbers differ."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    quote_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    space_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rows = [_stream_row(rng, quote_rate, space_rate) for _ in range(draw(st.integers(0, 6)))]
    defects = draw(st.lists(st.sampled_from(STREAM_DEFECTS), max_size=2)) if rows else []
    for defect in sorted(defects, key=lambda d: d == "arity"):  # arity last
        row = rng.choice(rows)
        prefixed = len(row) > len(KDD_FEATURES) + 1
        if defect == "arity":
            size = rng.choice([1, 40, 43, 46])
            row[:] = (row + ["0"] * size)[:size]
        elif defect == "bad stamp":
            if prefixed:
                row[0] = rng.choice(["nan", "soon", ""])
        else:
            features = range(3, 3 + len(KDD_FEATURES)) if prefixed else range(len(KDD_FEATURES))
            numeric = [i for i in features if KDD_FEATURES[i - features[0]][1] == NUMERIC]
            row[rng.choice(numeric)] = defect
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    blank = draw(st.sampled_from(["", "", " \t"]))
    lines = []
    for row in rows:
        if rng.random() < 0.2:
            lines.append(blank)
        lines.append(",".join(row))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _stream_outcome(load, path: str, on_bad: str):
    try:
        return list(load(path, on_bad))
    except DataError as exc:
        return "DataError", str(exc)


@settings(max_examples=300, deadline=None)
@given(stream_files(), st.sampled_from(["abort", "skip"]),
       st.sampled_from([1, 2, 3, features.BLOCK_RECORDS]))
def test_load_stream_equals_reference_loop(text, on_bad, block):
    """Record for record, level for level and warning for warning, whether
    the stream is read whole or in blocks of a few records."""
    logger = logging.getLogger("hidpas.detection")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        warned: list[str] = []
        expected = _stream_outcome(lambda p, b: reference_load_stream(p, b, warned), path, on_bad)
        handler = _Collect()
        logger.addHandler(handler)
        try:
            with mock.patch.object(features, "BLOCK_RECORDS", block):
                stream = load_stream(path, on_bad)
        except DataError as exc:
            stream = None
            assert expected == ("DataError", str(exc))
        finally:
            logger.removeHandler(handler)
    if stream is not None:
        assert list(stream) == expected
        assert _table_columns(stream.table.columns) == \
            _table_columns(ConnectionStream.of_records(expected).table.columns)
    assert handler.messages == warned


def _prefixed_rows(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        if len(row := _stream_row(rng, 0.0, 0.0)) == len(KDD_FEATURES) + 3:
            rows.append(row)
    return rows


def _write_stream(path: Path, rows: list[list[str]]) -> str:
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    return str(path)


def test_one_bad_stream_line_sends_one_block_through_the_grammar(tmp_path, monkeypatch):
    monkeypatch.setattr(features, "BLOCK_RECORDS", 4)
    rows = _prefixed_rows(2, 40)
    rows[21][3] = "abc"  # duration, in the sixth block: records 21-24
    path = _write_stream(tmp_path / "s.csv", rows)
    calls = counting(monkeypatch, detection, "_stream_row")
    assert list(load_stream(path, "skip")) == reference_load_stream(path, "skip", [])
    assert calls == rows[20:24]


def test_a_value_only_on_a_skipped_stream_line_is_no_level(tmp_path, monkeypatch):
    monkeypatch.setattr(features, "BLOCK_RECORDS", 3)
    rows = _prefixed_rows(6, 10)
    for row in rows:
        row[5] = "http"  # service, a state label
    rows[4][1], rows[4][5] = "10.9.9.9", "only_here"  # src_ip and service, on line 5
    rows[4][25] = "abc"  # count, a bad number after them
    stream = load_stream(_write_stream(tmp_path / "s.csv", rows), "skip")
    assert len(stream) == 9
    assert "10.9.9.9" not in stream.table.column("src_ip")[0]
    assert "only_here" not in stream.table.column("service")[0]
    assert "only_here" not in build_rules(stream.table, ["service"]).states["service"]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_a_stream_record_spanning_a_block_end_reads_whole(tmp_path, monkeypatch, caplog, block):
    monkeypatch.setattr(features, "BLOCK_RECORDS", block)
    rows = _prefixed_rows(8, 5)
    rows[1][4] = '"tc\np"'  # protocol_type: record 2 holds lines 2-3
    rows[4][3] = "abc"  # record 5, on line 6, sends the file to the block path
    path = _write_stream(tmp_path / "s.csv", rows)
    calls = counting(monkeypatch, detection, "_stream_row")
    with caplog.at_level("WARNING", logger="hidpas.detection"):
        got = list(load_stream(path, "skip"))
    assert got == reference_load_stream(path, "skip", [])
    assert got[1].value("protocol_type") == "tc\np"
    assert calls and all(rec[4] != "tc\np" for rec in calls)  # it was read in bulk
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:6: skipped row (non-numeric value 'abc' in column duration)"]


def test_load_stream_reads_a_well_formed_stream_in_bulk(tmp_path, monkeypatch):
    """Streams whose rows all have one shape (plain or prefixed, with or
    without a label; quoted and spaced cells, blank lines, CRLF) never reach
    the row reader, and read as the reference loop reads them."""
    rng = random.Random(11)
    texts = {name: Path(data_path("scenario", f"{name}.csv")).read_text(encoding="utf-8")
             for name in ("host_a", "host_c", "detector_train")}
    for shape in range(4):
        rows = []
        while len(rows) < 12:
            row = _stream_row(rng, 0.3, 0.3)
            if len(row) - len(KDD_FEATURES) == (0, 1, 3, 4)[shape]:
                rows.append(",".join(row))
        texts[f"shape{shape}"] = "\r\n".join(rows[:6] + [""] + rows[6:]) + "\r\n"
    expected = {}
    for name, text in texts.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        expected[name] = _stream_outcome(lambda p, b: reference_load_stream(p, b, []),
                                         str(path), "abort")

    def no_row_path(*args):
        raise AssertionError("a well-formed stream went to the block and row path")

    monkeypatch.setattr("hidpas.features.csv_records", no_row_path)  # read_table's records
    for name in texts:
        assert _stream_outcome(load_stream, str(tmp_path / f"{name}.csv"), "abort") == \
            expected[name]
        assert len(expected[name]) in (3, 12, 40)


STREAM_POOL = ["normal", "dos", "unknown", "impossible"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(STREAM_POOL), max_size=12), st.data())
def test_a_stream_whole_or_cut_classifies_as_each_record_alone(deterministic_model, picks,
                                                               data):
    """classify_connections and detect_stream over a read stream, whole or
    cut at random points, and over any slice of it, equal
    classify_connection on each of its records alone."""
    model, table = deterministic_model
    pool = {"normal": list(record_from_table(table, 0).values),
            "dos": list(record_from_table(table, table.row_count - 1).values)}
    pool["unknown"] = pool["normal"][:1] + ["icmp"] + pool["normal"][2:]  # protocol_type
    pool["impossible"] = [-1.0] + pool["dos"][1:]  # a duration below the mean
    lines = [",".join(map(str, [10.0 * i, f"10.0.0.{i}", "192.168.1.10", *pool[pick]]))
             for i, pick in enumerate(picks)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        stream = load_stream(path)
    records = list(stream)
    assert [r.values[1] for r in records] == [pool[pick][1] for pick in picks]
    alone = [classify_connection(model, record) for record in records]
    alerts = [DetectionAlert(r.timestamp, "h", r.src_ip, r.dst_ip, c.label, *c.triple)
              for r, c in zip(records, alone) if c.label != "normal"]
    assert classify_connections(model, stream) == alone
    assert detect_stream(model, stream, "h") == alerts
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=4)))
    parts = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(records)])]
    assert [c for part in parts for c in classify_connections(model, part)] == alone
    assert [a for part in parts for a in detect_stream(model, part, "h")] == alerts
    key = slice(*data.draw(st.tuples(st.integers(-14, 14) | st.none(),
                                     st.integers(-14, 14) | st.none(),
                                     st.sampled_from([None, 1, 2, -1, -3]))))
    assert list(stream[key]) == records[key]
    assert classify_connections(model, stream[key]) == alone[key]
    assert [stream[i] for i in range(-len(records), len(records))] == records + records


@pytest.fixture(scope="module")
def service_model():
    """A detector, unsmoothed, over protocol_type, duration and service."""
    return train_detector(toy_table(), DetectorConfig(top_k=3, smoothing=0.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(STREAM_POOL + ["unseen service"]), min_size=1, max_size=12),
       st.data())
def test_memoized_decisions_equal_each_record_classified_alone(service_model, picks, data):
    """Under a memo cap of two decisions, a stream of repeating rows, an
    unseen service and impossible rows classifies, whole and in random
    slices, as a fresh model classifies each record alone; the memo never
    holds more than its cap, and each impossible row warns once, a memo hit
    as well."""
    table = toy_table()
    normal, dos = record_from_table(table, 0).values, record_from_table(table, 23).values
    pool = {"normal": normal, "dos": dos,
            "unknown": normal[:1] + ("icmp",) + normal[2:],  # protocol_type
            "unseen service": dos[:2] + ("gopher",) + dos[3:],
            "impossible": (-1.0,) + dos[1:]}  # a duration below the mean
    records = [ConnectionRecord(pool[pick], 10.0 * i) for i, pick in enumerate(picks)]
    alone = {pick: classify_connection(replace(service_model), ConnectionRecord(values))
             for pick, values in pool.items()}
    assert alone["unseen service"].unknown_values == ("service=gopher",)
    expected = [alone[pick] for pick in picks]
    stream = ConnectionStream.of_records(records)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=4)))
    parts = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(records)])]
    model = replace(service_model)
    with pytest.MonkeyPatch.context() as mp, \
            mock.patch.object(logging.getLogger("hidpas.detection"), "warning") as warn:
        mp.setattr(possibility, "MEMO_MARGINALS", 2)
        for split in ([stream], parts, [stream]):
            got = []
            for part in split:
                got += classify_connections(model, part)
                assert len(model.decisions) <= 2
            assert got == expected
    warned = [call.args for call in warn.call_args_list]
    assert warned == [("impossible evidence for record; falling back to prior",)] * (
        3 * picks.count("impossible"))


def _table_columns(columns) -> list:
    return [column.tolist() if isinstance(column, np.ndarray)
            else (column[0], column[1].tolist()) for column in columns]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["host_a", "host_c", "detector_train"]),
       st.builds(slice, st.integers(-8, 8) | st.none(), st.integers(-8, 8) | st.none(),
                 st.sampled_from([None, 1, 2, -1, -3])))
def test_a_loaded_stream_and_its_records_make_one_table(scenario_model, name, key):
    """The records of a loaded stream make the table they were read from, and
    those of a slice the slice's columns; a slice shares the stream's
    evidence, which the model encodes once."""
    stream = load_stream(data_path("scenario", f"{name}.csv"))
    assert _table_columns(ConnectionStream.of_records(list(stream)).table.columns) == \
        _table_columns(stream.table.columns)
    view = stream[key]
    assert list(map(shown, ConnectionStream.of_records(list(view)).columns)) == \
        list(map(shown, view.columns))
    encode, encoded = DetectorModel.encode, []
    with mock.patch.object(DetectorModel, "encode",
                           lambda model, *args: encoded.append(model) or encode(model, *args)):
        whole, part = stream.evidence(scenario_model), view.evidence(scenario_model)
    assert encoded == [scenario_model]
    for got, rows in zip(part, whole):
        assert got.tolist() == rows[key].tolist()


def test_detect_stream_reads_only_the_stamp_and_address_columns_of_a_slice(scenario_model):
    stream = load_stream(data_path("scenario", "host_c.csv"))
    column, read = ConnectionStream.column, []
    with mock.patch.object(ConnectionStream, "column",
                           lambda view, i: read.append(i) or column(view, i)):
        alerts = detect_stream(scenario_model, stream[1:], "h")
    assert sorted(read) == [0, 1, 2] and alerts == detect_stream(scenario_model, stream, "h")


def test_alert_csv_format(tmp_path, scenario_model):
    records = load_stream(data_path("scenario", "host_c.csv"))
    alerts = detect_stream(scenario_model, records, "host-c")
    out = tmp_path / "alerts.csv"
    write_alerts_csv(alerts, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "timestamp,host,src_ip,dst_ip,type,necessity,probability,possibility"
    assert lines[1].split(",")[4] == "portsweep"


def test_alert_csv_quotes_fields_holding_a_comma_or_quote(tmp_path, scenario_model):
    text = Path(data_path("scenario", "host_c.csv")).read_text(encoding="utf-8")
    stream = tmp_path / "host_c.csv"
    stream.write_text(text.replace(",10.0.0.5,", ',"10.0.0.1,evil",'), encoding="utf-8")
    alerts = detect_stream(scenario_model, load_stream(str(stream)), 'host,"c"')
    assert [a.src_ip for a in alerts] == ["10.0.0.1,evil"]
    out = tmp_path / "alerts.csv"
    write_alerts_csv(alerts, str(out))
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [8] * len(rows)
    assert rows == [ALERT_CSV_HEADER.split(",")] + [list(a.csv_row()) for a in alerts]
    assert rows[1][1:3] == ['host,"c"', "10.0.0.1,evil"]


def test_detect_stream_alerts_do_not_depend_on_chunking(scenario_model, monkeypatch):
    records = [r for name in ("detector_train", "host_a", "host_b", "host_c")
               for r in load_stream(data_path("scenario", f"{name}.csv"))]

    def rows(alerts):
        return [a.csv_row() for a in alerts]

    whole = rows(detect_stream(scenario_model, records, "h"))
    assert whole
    for size in (1, 4):
        fed = []
        for i in range(0, len(records), size):
            fed += detect_stream(scenario_model, records[i:i + size], "h")
        assert rows(fed) == whole
    # a budget of three rows' tables makes the engine calibrate by 3; a
    # fresh model has an empty memo, so every distinct row is calibrated
    fresh = replace(scenario_model)
    monkeypatch.setattr(possibility, "ENTRY_BUDGET", 3 * fresh.engine._prob.plan.entries)
    assert rows(detect_stream(fresh, iter(records), "h")) == whole


def test_classify_connections_calibrates_within_the_entry_budget(scenario_model, monkeypatch):
    """A long call is calibrated in chunks of the engine's entry budget, one
    per two distinct rows here, and classifies as an unbounded call does."""
    records = [r for name in ("detector_train", "host_a", "host_b", "host_c")
               for r in load_stream(data_path("scenario", f"{name}.csv"))]
    fresh = replace(scenario_model)
    distinct = {tuple(sorted(reference_evidence(fresh, r).items())) for r in records}
    calls = []
    propagate = possibility.propagate
    monkeypatch.setattr(possibility, "propagate",
                        lambda *args: calls.append(1) or propagate(*args))
    monkeypatch.setattr(possibility, "ENTRY_BUDGET", 2 * fresh.engine._prob.plan.entries)
    got = classify_connections(fresh, records)
    assert len(distinct) == 3 and len(calls) == 2 * 2
    assert got == classify_connections(scenario_model, records)
    # a second pass is answered by the decision memo alone
    calibrated, selected = len(calls), []
    select_state = possibility.select_state
    monkeypatch.setattr(possibility, "select_state",
                        lambda *args: selected.append(1) or select_state(*args))
    assert classify_connections(fresh, records) == got
    assert len(calls) == calibrated and selected == []
    assert scenario_model.decisions and not replace(scenario_model).decisions


def test_impossible_row_falls_back_to_prior_alone(deterministic_model, caplog):
    """The model saw duration only at its mean, so a duration below it has
    zero probability; that row alone gets the prior."""
    model, table = deterministic_model
    normal, attack = record_from_table(table, 0), record_from_table(table, table.row_count - 1)
    values = list(normal.values)
    values[0] = -1.0  # duration
    impossible = ConnectionRecord(tuple(values))
    with caplog.at_level("WARNING", logger="hidpas.detection"):
        results = classify_connections(model, [normal, impossible, attack])
    assert [r.getMessage() for r in caplog.records] == [
        "impossible evidence for record; falling back to prior"]
    prior = model.engine.query({}, [model.class_var])[model.class_var]
    assert results[1].marginal == prior and results[1].low_confidence
    for record, result in zip((normal, attack), (results[0], results[2])):
        assert result == classify_connection(model, record)
        assert not result.low_confidence
    assert [r.label for r in results[::2]] == ["normal", "dos"]


def test_the_prior_is_decided_once_for_every_impossible_row(deterministic_model, monkeypatch,
                                                            caplog):
    """A detect pass over several batches, each holding an impossible row,
    decides the prior once and warns once per such row."""
    model, table = deterministic_model
    model = replace(model)
    normal = record_from_table(table, 0)
    values = list(normal.values)
    values[0] = -1.0  # duration
    impossible = ConnectionRecord(tuple(values))
    batches = [[normal, impossible], [impossible, impossible, normal], [impossible]]
    queries = counting(monkeypatch, possibility.HybridPropagator, "query")
    with caplog.at_level("WARNING", logger="hidpas.detection"):
        results = [result for batch in batches for result in classify_connections(model, batch)]
    assert queries == [model.engine]
    assert [r.getMessage() for r in caplog.records] == [
        "impossible evidence for record; falling back to prior"] * 4
    assert [result is model.prior for result in results] == [
        False, True, True, True, False, True]
    assert model.prior.low_confidence


def test_detect_stream_raises_on_a_broken_record(deterministic_model):
    model, table = deterministic_model
    values = list(record_from_table(table, 0).values)
    values[0] = "not-a-number"  # duration
    with pytest.raises(ValueError):
        detect_stream(model, [ConnectionRecord(tuple(values))], "h")


def test_record_value_by_feature_name():
    values = tuple(range(len(KDD_FEATURES)))
    record = ConnectionRecord(values)
    assert [record.value(name) for name, _ in KDD_FEATURES] == list(values)
    with pytest.raises(ValueError, match="unknown feature"):
        record.value("no_such_feature")

from __future__ import annotations

import csv
import os
import random
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidpas import core, features
from hidpas.features import (
    CATEGORICAL,
    KDD_FEATURES,
    LABEL_COLUMN,
    NONE_STATE,
    NUMERIC,
    UNKNOWN_STATE,
    DataError,
    FeatureRanking,
    RawTable,
    apply_label_granularity,
    build_rules,
    category_states,
    gini_rank,
    load_kdd,
    parse_rules,
    save_rules,
    select_features,
    to_discrete_dataset,
)

from conftest import cells, data_path, raw_table


def small_table(**columns) -> RawTable:
    names, kinds, cols = [], [], []
    for name, values in columns.items():
        names.append(name)
        arr = np.asarray(values)
        if arr.dtype.kind in "if":
            kinds.append(NUMERIC)
            cols.append(arr.astype(float))
        else:
            kinds.append(CATEGORICAL)
            cols.append(arr.astype(object))
    return raw_table(tuple(names), tuple(kinds), tuple(cols))


# -- load_kdd -------------------------------------------------------------------

def test_load_kdd_shape_and_label_dot():
    table = load_kdd(data_path("scenario", "detector_train.csv"))
    assert len(table.names) == 42
    assert table.row_count == 40
    assert table.column("attack_type")[0] == ["normal", "portsweep"]


def test_load_kdd_wrong_arity_reports_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    with pytest.raises(DataError, match="bad.csv:1"):
        load_kdd(str(bad))


def test_load_kdd_skip_mode_drops_bad_rows(tmp_path):
    good = Path(data_path("scenario", "detector_train.csv")).read_text().splitlines(True)[0]
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(good + "not,enough,fields\n" + good)
    table = load_kdd(str(mixed), on_bad="skip")
    assert table.row_count == 2


def test_load_kdd_unparseable_numeric(tmp_path):
    line = Path(data_path("scenario", "detector_train.csv")).read_text().splitlines(True)[0]
    row = line.split(",")
    row[0] = "abc"  # duration must be numeric
    bad = tmp_path / "nan.csv"
    bad.write_text(",".join(row))
    with pytest.raises(DataError, match="duration"):
        load_kdd(str(bad))


def test_load_kdd_names_physical_line_after_quoted_newline(tmp_path, caplog):
    row = Path(data_path("scenario", "detector_train.csv")).read_text().splitlines()[0].split(",")
    spanning = list(row)
    spanning[1] = '"tc\np"'  # a quoted newline: this record holds lines 1-2
    bad = list(row)
    bad[0] = "abc"
    path = tmp_path / "q.csv"
    path.write_text("\n".join([",".join(spanning), ",".join(row), ",".join(bad)]) + "\n")
    with pytest.raises(DataError, match=r"q\.csv:4: non-numeric value 'abc' in column duration"):
        load_kdd(str(path))
    with caplog.at_level("WARNING", logger="hidpas.features"):
        table = load_kdd(str(path), on_bad="skip")
    assert table.row_count == 2
    assert any("q.csv:4: skipped row (non-numeric value 'abc'" in r.getMessage()
               for r in caplog.records)


def test_data_error_is_the_core_class():
    assert DataError is core.DataError


# The csv row reader load_kdd had before its bulk path, kept as the reference
# the bulk path must match column for column. It names physical lines, as
# core.csv_records does, and builds its table through raw_table.
def reference_load_kdd(path: str, on_bad: str = "abort") -> RawTable:
    names = [n for n, _ in KDD_FEATURES] + [LABEL_COLUMN]
    kinds = [k for _, k in KDD_FEATURES] + [CATEGORICAL]
    expected = len(names)

    raw_rows: list[list[str]] = []
    linenos: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        end = 0
        for rec in reader:
            lineno, end = end + 1, reader.line_num
            if not rec or (len(rec) == 1 and not rec[0].strip()):
                continue
            if len(rec) != expected:
                message = f"expected {expected} fields, got {len(rec)}"
                if on_bad == "abort":
                    raise DataError(f"{path}:{lineno}: {message}")
                continue
            raw_rows.append(rec)
            linenos.append(lineno)

    bad_rows: dict[int, str] = {}
    columns: list = [None] * expected
    transposed = list(zip(*raw_rows)) if raw_rows else [()] * expected
    for i, (name, kind) in enumerate(zip(names, kinds)):
        cells = transposed[i]
        if kind != NUMERIC:
            if name == LABEL_COLUMN:
                cells = [c.strip().rstrip(".") for c in cells]
            else:
                cells = [c.strip() for c in cells]
            columns[i] = np.array(cells, dtype=object)
            continue
        try:
            arr = np.asarray(cells, dtype=float)
        except ValueError:
            arr = np.empty(len(cells))
            for r, cell in enumerate(cells):
                try:
                    arr[r] = float(cell)
                except ValueError:
                    arr[r] = np.nan
                    bad_rows.setdefault(
                        r, f"non-numeric value {cell.strip()!r} in column {name}")
        finite = np.isfinite(arr)
        if not finite.all():
            for r in np.flatnonzero(~finite):
                bad_rows.setdefault(
                    r, f"non-finite value {cells[r].strip()!r} in column {name}")
        columns[i] = arr

    if bad_rows:
        first = min(bad_rows)
        if on_bad == "abort":
            raise DataError(f"{path}:{linenos[first]}: {bad_rows[first]}")
        keep = np.ones(len(raw_rows), dtype=bool)
        keep[list(bad_rows)] = False
        columns = [c[keep] for c in columns]
    return raw_table(tuple(names), tuple(kinds), tuple(columns))


KDD_KINDS = [k for _, k in KDD_FEATURES] + [CATEGORICAL]
NUMERIC_POSITIONS = [i for i, k in enumerate(KDD_KINDS) if k == NUMERIC]
CATEGORICAL_POSITIONS = [i for i, k in enumerate(KDD_KINDS) if k != NUMERIC]
NUMBERS = ["0", "1", "-0", "7", "511", "0.03", "1.5e3", "+.5", "5.", "1E-5", "007",
           "1e-400", "0.1"]
CATEGORIES = ["tcp", "http", "SF", "0", "1", "normal.", "smurf", "x..", "a b", "",
              'q"t', "\u00fc"]
SPACES = ["", " ", "  ", "\t"]
# each defect makes the row reader skip or report a row, or reads a cell
# unlike a plain one ('1_0' is 10.0, a quote after a space is kept, a quoted
# comma is no delimiter)
DEFECTS = ["abc", "nan", "inf", "-inf", "1_0", "", "1e400", "short", "long",
           "spaced quote", "quoted comma", "unquoted comma"]


def _kdd_cell(rng: random.Random, kind: str, quote_rate: float, space_rate: float) -> str:
    if kind == NUMERIC:
        value = rng.choice(NUMBERS) if rng.random() < 0.7 else repr(rng.uniform(-1e6, 1e6))
    else:
        value = rng.choice(CATEGORIES)
    if rng.random() < space_rate:
        value = rng.choice(SPACES) + value + rng.choice(SPACES)
    if rng.random() < quote_rate:
        value = '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def kdd_files(draw) -> str:
    """KDD-shaped text: cells with spaces and quotes, blank lines, LF or CRLF
    line ends, a quoted line end in a categorical cell, and up to two
    defective rows."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    quote_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    space_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rows = [[_kdd_cell(rng, kind, quote_rate, space_rate) for kind in KDD_KINDS]
            for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.booleans()):  # a record spanning two lines
        row = rng.choice(rows)
        row[rng.choice(CATEGORICAL_POSITIONS)] = '"a' + rng.choice(["\n", "\r\n"]) + 'b"'
    defects = draw(st.lists(st.sampled_from(DEFECTS), max_size=2)) if rows else []
    for defect in sorted(defects, key=lambda d: d in ("short", "long")):  # arity last
        row = rng.choice(rows)
        if defect == "short":
            del row[rng.randrange(len(row))]
        elif defect == "long":
            row.insert(rng.randrange(len(row) + 1), "0")
        elif defect == "spaced quote":
            row[rng.choice(CATEGORICAL_POSITIONS)] = ' "tcp"'
        elif defect == "quoted comma":
            row[rng.choice(CATEGORICAL_POSITIONS)] = '" a,b"'
        elif defect == "unquoted comma":
            row[rng.choice(CATEGORICAL_POSITIONS)] = "a,b"
        else:
            row[rng.choice(NUMERIC_POSITIONS)] = defect
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    blank = draw(st.sampled_from(["", "", " \t"]))
    lines = []
    for row in rows:
        if rng.random() < 0.2:
            lines.append(blank)
        lines.append(",".join(row))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _read_outcome(load, path: str, on_bad: str):
    try:
        table = load(path, on_bad)
    except DataError as exc:
        return "DataError", str(exc)
    columns = []
    for kind, col in zip(table.kinds, table.columns):
        if kind == CATEGORICAL:
            levels, codes = col
            assert all(type(v) is str for v in levels)
            columns.append(("encoded", levels, codes.tolist()))
        else:
            columns.append((col.dtype.str, col.shape, col.tobytes()))
    return table.names, table.kinds, columns


@settings(max_examples=300, deadline=None)
@given(kdd_files(), st.sampled_from(["abort", "skip"]))
def test_load_kdd_equals_row_reader(text, on_bad):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "conn.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = _read_outcome(reference_load_kdd, path, on_bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _read_outcome(load_kdd, path, on_bad)
    assert got == expected


def _kdd_row(rng: random.Random) -> list[str]:
    return [rng.choice(NUMBERS) if kind == NUMERIC else rng.choice(["tcp", "SF", "normal."])
            for kind in KDD_KINDS]


def test_load_kdd_reads_well_formed_file_in_bulk(tmp_path, monkeypatch):
    rng = random.Random(5)
    lines = []
    for _ in range(20):  # quoted cells, spaces, CRLF and blank lines
        row = [_kdd_cell(rng, kind, 0.3, 0.3) for kind in KDD_KINDS]
        lines += [",".join(row), ""]
    path = tmp_path / "conn.csv"
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    expected = _read_outcome(reference_load_kdd, str(path), "abort")

    def no_row_reader(*args):
        raise AssertionError("well-formed file went to the row reader")

    monkeypatch.setattr(features, "_load_kdd_rows", no_row_reader)
    assert _read_outcome(load_kdd, str(path), "abort") == expected
    assert expected[2][0][0] == "<f8" and len(expected[2][-1][2]) == 20


@pytest.mark.parametrize("extra", [(1, -1), (1, 1), (2, 0)])
def test_load_kdd_extra_fields_are_not_read_past(tmp_path, extra):
    # loadtxt with usecols accepts a row with extra fields; a long row
    # balanced by a short one keeps the file's comma count at 41 per row
    rng = random.Random(9)
    rows = [_kdd_row(rng) for _ in range(4)]
    for r, change in enumerate(extra):
        if change > 0:
            rows[r] += ["0"] * change
        elif change < 0:
            del rows[r][0]
    path = tmp_path / "conn.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    for on_bad in ("abort", "skip"):
        expected = _read_outcome(reference_load_kdd, str(path), on_bad)
        assert _read_outcome(load_kdd, str(path), on_bad) == expected
    with pytest.raises(DataError, match=r"conn\.csv:1: expected 42 fields, got 4[34]"):
        load_kdd(str(path))


@pytest.mark.parametrize("change", [-1, 1])
def test_load_kdd_rejects_rows_that_all_have_another_arity(tmp_path, change):
    # every row alike: loadtxt sees no field count change and returns them
    rng = random.Random(4)
    rows = [_kdd_row(rng) for _ in range(3)]
    rows = [row[:-1] if change < 0 else row + ["0"] for row in rows]
    path = tmp_path / "conn.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"conn\\.csv:1: expected 42 fields, got {42 + change}"):
        load_kdd(str(path))
    assert load_kdd(str(path), "skip").row_count == 0


def test_label_granularity_mapping():
    table = load_kdd(data_path("scenario", "detector_train.csv"))
    mapped = apply_label_granularity(table, "category")
    assert mapped.column("attack_type")[0] == ["normal", "probe"]
    same = apply_label_granularity(table, "attack")
    assert same.column("attack_type")[0] == ["normal", "portsweep"]


def test_label_granularity_keeps_a_numeric_class_column():
    table = small_table(x=[1.0, 2.0, 3.0], cls=[0.0, 1.0, 1.0])
    assert apply_label_granularity(table, "category", "cls") is table
    with pytest.raises(ValueError, match="granularity must be"):
        apply_label_granularity(table, "label", "cls")


# -- gini ranking ------------------------------------------------------------------

def test_gini_gain_perfect_separator():
    table = small_table(cls=["a", "a", "b", "b"], f=["x", "x", "y", "y"])
    ranking = gini_rank(table, "cls")
    assert ranking.gain("f") == pytest.approx(0.5)


def test_gini_gain_constant_feature_zero():
    table = small_table(cls=["a", "a", "b", "b"], f=["x", "x", "x", "x"])
    assert gini_rank(table, "cls").gain("f") == pytest.approx(0.0)


def test_gini_gain_class_against_itself():
    table = small_table(cls=["a", "a", "b", "b"], copy=["a", "a", "b", "b"])
    assert gini_rank(table, "cls").gain("copy") == pytest.approx(0.5)


def test_gini_constant_class_warns_all_zero(caplog):
    table = small_table(cls=["a", "a"], f=["x", "y"])
    with caplog.at_level("WARNING"):
        ranking = gini_rank(table, "cls")
    assert all(g == 0.0 for _, g in ranking.entries)


def test_gini_rank_permutation_invariant():
    rng = np.random.default_rng(1)
    cls = rng.choice(["a", "b", "c"], 60)
    f1 = rng.choice(["x", "y"], 60)
    f2 = rng.random(60)
    table = small_table(cls=cls, f1=f1, f2=f2)
    perm = rng.permutation(60)
    shuffled = small_table(cls=cls[perm], f1=f1[perm], f2=f2[perm])
    a, b = gini_rank(table, "cls"), gini_rank(shuffled, "cls")
    for (n1, g1), (n2, g2) in zip(a.entries, b.entries):
        assert n1 == n2 and g1 == pytest.approx(g2, abs=1e-12)


def test_gini_gain_bounded_by_class_gini():
    rng = np.random.default_rng(8)
    table = small_table(cls=rng.choice(["a", "b"], 50), f=rng.choice(["x", "y", "z"], 50))
    ranking = gini_rank(table, "cls")
    labels = cells(table, "cls")
    _, counts = np.unique(labels.astype(str), return_counts=True)
    base = 1 - np.sum((counts / counts.sum()) ** 2)
    for _, g in ranking.entries:
        assert 0.0 <= g <= base + 1e-12


# The per-value loop gini_rank had before its bincount tables, kept as the
# reference its gains must equal bit for bit; it reads each column's cells.
def reference_gini_rank(table: RawTable, class_column: str) -> FeatureRanking:
    def gini(counts):
        total = counts.sum()
        if total == 0:
            return 0.0
        p = counts / total
        return float(1.0 - np.sum(p * p))

    labels = cells(table, class_column)
    _, class_codes = np.unique(labels.astype(str), return_inverse=True)
    n_classes = int(class_codes.max()) + 1 if len(class_codes) else 0
    base = gini(np.bincount(class_codes, minlength=n_classes))
    gains = []
    for pos, name in enumerate(table.names):
        if name == class_column:
            continue
        col = cells(table, name)
        key = col if table.kinds[pos] == NUMERIC else col.astype(str)
        values, codes = np.unique(key, return_inverse=True)
        joint = np.zeros((len(values), n_classes), dtype=np.int64)
        np.add.at(joint, (codes, class_codes), 1)
        n = len(codes)
        weighted = sum(
            (row.sum() / n) * gini(row) for row in joint if row.sum()
        )
        gains.append((name, pos, max(0.0, base - weighted)))
    gains.sort(key=lambda t: (-t[2], t[1]))
    return FeatureRanking(class_column, tuple((n, g) for n, _, g in gains))


def _exact(ranking: FeatureRanking) -> list:
    return [(name, type(gain), repr(gain)) for name, gain in ranking.entries]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 5, 9, 17, 30]),
       st.integers(0, 300))
def test_gini_rank_equals_reference_loop(seed, n_classes, rows):
    # 9+ classes take numpy's unrolled pairwise sum; one class is constant
    rng = np.random.default_rng(seed)
    weights = rng.random(n_classes) ** 3
    cls = rng.choice([f"c{i}" for i in range(n_classes)], rows, p=weights / weights.sum())
    cat = rng.choice(["x", "y", "z", "w"], rows)
    table = small_table(
        cls=cls,
        cat=cat,
        num=rng.integers(0, 5, rows).astype(float),  # few repeated values
        many=rng.integers(0, 40, rows).astype(float),  # many terms to sum
        real=rng.random(rows),  # every value distinct
        cat_copy=cat.copy(),  # ties with cat
        cls_copy=cls.copy(),  # the best gain
        const=np.full(rows, "k"),
    )
    assert _exact(gini_rank(table, "cls")) == _exact(reference_gini_rank(table, "cls"))


def test_gini_rank_equals_reference_on_ties_and_constant_class():
    tied = small_table(cls=["a", "b", "a", "b", "c"], f=["x", "y", "x", "y", "x"],
                       g=["p", "q", "p", "q", "p"], h=[1.0, 2.0, 1.0, 2.0, 1.0])
    ranking = gini_rank(tied, "cls")
    assert [n for n, _ in ranking.entries] == ["f", "g", "h"]
    assert _exact(ranking) == _exact(reference_gini_rank(tied, "cls"))
    constant = small_table(cls=["a"] * 4, f=["x", "y", "x", "z"], h=[1.0, 2.0, 3.0, 3.0])
    assert _exact(gini_rank(constant, "cls")) == _exact(reference_gini_rank(constant, "cls"))
    assert [g for _, g in gini_rank(constant, "cls").entries] == [0.0, 0.0]


def test_gini_rank_equals_reference_on_views_signed_zeros_and_a_one_row_class():
    rng = np.random.default_rng(3)
    rows = 300
    records = np.zeros(rows, dtype=[("a", float), ("tag", "U3"), ("b", float)])
    records["a"] = rng.integers(0, 6, rows)
    records["b"] = rng.random(rows).round(1)
    records["b"][40] = 2.0
    cls = rng.choice(["x", "y", "z"], rows).astype(object)
    cls[17] = "lonely"  # a class of a single row
    table = raw_table(("a", "b", "zeros", "cls"), (NUMERIC,) * 3 + (CATEGORICAL,),
                      (records["a"], records["b"], rng.choice([0.0, -0.0, 1.0], rows), cls))
    assert not records["a"].flags.contiguous
    assert np.signbit(table.column("zeros")).any()
    assert _exact(gini_rank(table, "cls")) == _exact(reference_gini_rank(table, "cls"))
    # a numeric class column is read as str; class 2.0 is a single row
    numeric_class = RawTable(("a", "zeros", "k"), (NUMERIC,) * 3,
                             (records["a"], table.column("zeros"), records["b"]))
    assert (_exact(gini_rank(numeric_class, "k"))
            == _exact(reference_gini_rank(numeric_class, "k")))


# -- discretization ------------------------------------------------------------------

def _mean_split(values):
    """The rule build_rules freezes for one numeric column and the v1/v2
    bins to_discrete_dataset gives its values."""
    table = small_table(c=values, cls=["n"] * len(values))
    rules = build_rules(table, ["c", "cls"])
    dataset = to_discrete_dataset(table, rules, ["c", "cls"])
    states = dataset.variables[0].states
    return rules.means["c"], [states[k] for k in dataset.rows[:, 0].tolist()]


def test_mean_discretize_hand_example():
    threshold, bins = _mean_split([1.0, 2.0, 3.0, 6.0])
    assert threshold == pytest.approx(3.0)
    assert bins == ["v1", "v1", "v2", "v2"]


def test_mean_discretize_boundary_goes_high():
    _, bins = _mean_split([5.0])
    assert bins == ["v2"]


def test_mean_discretize_constant_column_warns(caplog):
    with caplog.at_level("WARNING", logger="hidpas.features"):
        threshold, bins = _mean_split([2.0, 2.0, 2.0])
    assert threshold == 2.0
    assert bins == ["v2", "v2", "v2"]
    assert [r.getMessage() for r in caplog.records] == [
        "column c is constant; every value lands in bin v2"]


def test_build_rules_threshold_is_mean_discretize_s_and_warns_once(caplog):
    table = small_table(flat=[2.0, 2.0, 2.0], x=[1.0, 2.0, 6.0], cls=["n", "a", "n"])
    caplog.clear()
    with caplog.at_level("WARNING", logger="hidpas.features"):
        rules = build_rules(table, ["flat", "x", "cls"])
    assert rules.means == {"flat": 2.0, "x": 3.0}
    assert [r.getMessage() for r in caplog.records] == [
        "column flat is constant; every value lands in bin v2"]


# -- selection and dataset construction ------------------------------------------------

def test_select_features_identity_and_empty():
    ranking = FeatureRanking("cls", (("a", 0.5), ("b", 0.3)))
    assert select_features(ranking, 2) == ["a", "b", "cls"]
    assert select_features(ranking, 0) == ["cls"]
    with pytest.raises(ValueError):
        select_features(ranking, 3)


def test_to_discrete_dataset_categorical_states_sorted():
    table = small_table(proto=["udp", "tcp", "udp"], cls=["n", "n", "a"])
    rules = build_rules(table, ["proto", "cls"])
    ds = to_discrete_dataset(table, rules, ["proto", "cls"])
    assert ds.variables[0].states == ("tcp", "udp")
    assert ds.rows[:, 0].tolist() == [1, 0, 1]


def test_to_discrete_dataset_numeric_two_states():
    table = small_table(x=[1.0, 2.0, 3.0, 6.0], cls=["n", "n", "a", "a"])
    rules = build_rules(table, ["x", "cls"])
    ds = to_discrete_dataset(table, rules, ["x", "cls"])
    assert ds.variables[0].states == ("v1", "v2")
    assert ds.rows[:, 0].tolist() == [0, 0, 1, 1]


def test_unseen_category_maps_to_reserved_state():
    train = small_table(svc=["http", "smtp"], cls=["n", "n"])
    rules = build_rules(train, ["svc", "cls"])
    new = small_table(svc=["ntp_u", "http"], cls=["n", "n"])
    ds = to_discrete_dataset(new, rules, ["svc", "cls"])
    assert ds.variables[0].states == ("http", "smtp", UNKNOWN_STATE)
    assert ds.rows[:, 0].tolist() == [2, 0]


def test_unseen_category_maps_to_reserved_state_through_the_shared_encoding():
    train = small_table(svc=["http", "smtp", "http"], cls=["n", "a", "n"])
    rules = build_rules(train, ["svc", "cls"])
    new = small_table(svc=["ntp_u", "http", "ntp_u", "smtp"], cls=["n", "n", "a", "a"])
    levels, codes = new.column("svc")
    assert levels == ["http", "ntp_u", "smtp"] and codes.tolist() == [1, 0, 1, 2]
    ds = to_discrete_dataset(new, rules, ["svc", "cls"])
    assert ds.variables[0].states == ("http", "smtp", UNKNOWN_STATE)
    assert ds.rows[:, 0].tolist() == [2, 0, 2, 1]
    assert ds.variables[1].states == ("a", "n") and ds.rows[:, 1].tolist() == [1, 1, 0, 0]


def test_load_kdd_encodes_each_categorical_column_once(monkeypatch):
    path = data_path("scenario", "detector_train.csv")
    table = apply_label_granularity(load_kdd(path), "category")
    reference = apply_label_granularity(reference_load_kdd(path), "category")
    categorical = [n for n, k in zip(table.names, table.kinds) if k == CATEGORICAL]
    for name in categorical:
        levels, codes = table.column(name)
        assert levels == sorted(set(levels)) and codes.dtype == np.intp
        assert cells(table, name).tolist() == cells(reference, name).tolist()

    def no_encoding(*args):
        raise AssertionError("a column was encoded again")

    monkeypatch.setattr(features, "_Codebook", no_encoding)
    monkeypatch.setattr(features, "encode", no_encoding)
    rules = build_rules(table, select_features(gini_rank(table, LABEL_COLUMN), 40))
    to_discrete_dataset(table, rules, categorical)


def test_transform_reuse_is_idempotent():
    table = small_table(x=[1.0, 2.0, 3.0, 6.0], svc=["a", "b", "a", "b"],
                        cls=["n", "n", "i", "i"])
    selected = ["x", "svc", "cls"]
    rules = build_rules(table, selected)
    first = to_discrete_dataset(table, rules, selected)
    second = to_discrete_dataset(table, rules, selected)
    np.testing.assert_array_equal(first.rows, second.rows)


def test_category_states_are_sorted_tokens_two_or_more():
    assert category_states("flag", ["SF", "REJ", "SF"]) == ("REJ", "SF")
    assert category_states("land", ["0", "0"]) == ("0", NONE_STATE)
    for bad in ("", "a b", "a,b", "a\tb"):
        message = f"column 'flag': value {bad!r} is not a state label"
        with pytest.raises(DataError, match=re.escape(message)):
            category_states("flag", ["SF", bad])


def test_rules_round_trip_reproduces_dataset(tmp_path):
    table = small_table(x=[1.5, 2.5, 3.5, 9.5], svc=["a", "b", "c", "a"],
                        cls=["n", "i", "n", "i"])
    selected = ["x", "svc", "cls"]
    rules = build_rules(table, selected)
    path = tmp_path / "rules.txt"
    save_rules(rules, str(path))
    reloaded = parse_rules(path.read_text(encoding="utf-8"))
    a = to_discrete_dataset(table, rules, selected)
    b = to_discrete_dataset(table, reloaded, selected)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert [v.states for v in a.variables] == [v.states for v in b.variables]


def test_parse_rules_rejects_garbage():
    with pytest.raises(DataError):
        parse_rules("count mean=1.0\nbroken line without equals\n")

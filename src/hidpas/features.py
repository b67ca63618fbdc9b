"""Column store and record views, KDD ingestion, Gini ranking, mean discretization.

The KDD connection format is headerless CSV: 41 fixed features plus one
trailing label, with labels dot-terminated in the original files.
"""

from __future__ import annotations

import logging
import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (NOT_TOKEN, DataError, Variable, bad_row, csv_records, finite_float,
                   open_output, open_text)
from .learning import DiscreteDataset

log = logging.getLogger(__name__)

UNKNOWN_STATE = "__unknown__"
NONE_STATE = "__none__"  # second state of a column seen with one value
NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Canonical KDD Cup 1999 connection features, in file order.
KDD_FEATURES: tuple[tuple[str, str], ...] = (
    ("duration", NUMERIC),
    ("protocol_type", CATEGORICAL),
    ("service", CATEGORICAL),
    ("flag", CATEGORICAL),
    ("src_bytes", NUMERIC),
    ("dst_bytes", NUMERIC),
    ("land", CATEGORICAL),
    ("wrong_fragment", NUMERIC),
    ("urgent", NUMERIC),
    ("hot", NUMERIC),
    ("num_failed_logins", NUMERIC),
    ("logged_in", CATEGORICAL),
    ("num_compromised", NUMERIC),
    ("root_shell", NUMERIC),
    ("su_attempted", NUMERIC),
    ("num_root", NUMERIC),
    ("num_file_creations", NUMERIC),
    ("num_shells", NUMERIC),
    ("num_access_files", NUMERIC),
    ("num_outbound_cmds", NUMERIC),
    ("is_host_login", CATEGORICAL),
    ("is_guest_login", CATEGORICAL),
    ("count", NUMERIC),
    ("srv_count", NUMERIC),
    ("serror_rate", NUMERIC),
    ("srv_serror_rate", NUMERIC),
    ("rerror_rate", NUMERIC),
    ("srv_rerror_rate", NUMERIC),
    ("same_srv_rate", NUMERIC),
    ("diff_srv_rate", NUMERIC),
    ("srv_diff_host_rate", NUMERIC),
    ("dst_host_count", NUMERIC),
    ("dst_host_srv_count", NUMERIC),
    ("dst_host_same_srv_rate", NUMERIC),
    ("dst_host_diff_srv_rate", NUMERIC),
    ("dst_host_same_src_port_rate", NUMERIC),
    ("dst_host_srv_diff_host_rate", NUMERIC),
    ("dst_host_serror_rate", NUMERIC),
    ("dst_host_srv_serror_rate", NUMERIC),
    ("dst_host_rerror_rate", NUMERIC),
    ("dst_host_srv_rerror_rate", NUMERIC),
)

LABEL_COLUMN = "attack_type"

# Standard 5-way grouping of the KDD attack labels.
_CATEGORY_OF = {label: category for category, labels in (
    ("normal", "normal"),
    ("dos", "back land neptune pod smurf teardrop apache2 udpstorm processtable mailbomb"),
    ("probe", "ipsweep nmap portsweep satan mscan saint"),
    ("r2l", "ftp_write guess_passwd imap multihop phf spy warezclient warezmaster sendmail "
            "named snmpgetattack snmpguess xlock xsnoop worm"),
    ("u2r", "buffer_overflow loadmodule perl rootkit httptunnel ps sqlattack xterm"),
) for label in labels.split()}


@dataclass(frozen=True)
class RawTable:
    """Named columns: a numeric column is a float array, a categorical one
    its encoding, (sorted distinct values, each row's index into them)."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    columns: tuple[np.ndarray | tuple[list[str], np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "columns", tuple(self.columns))
        if len(set(self.names)) != len(self.names):
            raise ValueError("column names must be unique")
        if len({_rows(k, c) for k, c in zip(self.kinds, self.columns)}) > 1:
            raise ValueError("columns have differing lengths")

    @property
    def row_count(self) -> int:
        return _rows(self.kinds[0], self.columns[0]) if self.columns else 0

    def column(self, name: str) -> np.ndarray | tuple[list[str], np.ndarray]:
        return self.columns[self._position(name)]

    def kind(self, name: str) -> str:
        return self.kinds[self._position(name)]

    def _position(self, name: str) -> int:
        if name not in self.names:
            raise ValueError(f"no column named {name!r}")
        return self.names.index(name)


def _rows(kind: str, column) -> int:
    return len(column if kind == NUMERIC else column[1])


@dataclass(frozen=True)
class FeatureRanking:
    """Per-feature impurity gain against the class column, best first."""

    class_column: str
    entries: tuple[tuple[str, float], ...]


@dataclass
class TransformRules:
    """Frozen per-column transforms: numeric thresholds and category states."""

    means: dict[str, float] = field(default_factory=dict)
    states: dict[str, tuple[str, ...]] = field(default_factory=dict)


_KDD_NAMES = tuple(n for n, _ in KDD_FEATURES) + (LABEL_COLUMN,)
_KDD_KINDS = tuple(k for _, k in KDD_FEATURES) + (CATEGORICAL,)


class _Codebook(dict):
    """Cell -> code: a column's distinct cells, numbered as first seen."""

    def __missing__(self, cell: str) -> int:
        code = self[cell] = len(self)
        return code


BLOCK_RECORDS = 2048  # records per bulk read of a file whose whole-file read fails


def load_kdd(path: str, on_bad: str = "abort") -> RawTable:
    """Parse a KDD-format connection file (41 features + trailing label) by
    `read_table`. Labels lose their trailing dot and categorical cells their
    surrounding whitespace. on_bad is 'abort' (raise DataError naming the
    first bad line) or 'skip' (log and drop each bad row)."""
    table, skipped = read_table(path, _KDD_NAMES, _KDD_KINDS, _kdd_row, on_bad, log)
    if skipped:
        log.warning("%s: skipped %d malformed rows", path, skipped)
    levels, codes = table.columns[-1]
    return RawTable(_KDD_NAMES, _KDD_KINDS,
                    table.columns[:-1] + (encode([c.rstrip(".") for c in levels], codes),))


def _kdd_row(rec: list[str]) -> list:
    """A KDD record's row: its 41 typed features and its stripped label."""
    if len(rec) != len(_KDD_NAMES):
        raise DataError(f"expected {len(_KDD_NAMES)} fields, got {len(rec)}")
    return parse_connection_fields(rec[:-1]) + [rec[-1].strip()]


def read_table(path: str, names: Sequence[str], kinds: Sequence[str], grammar: Callable,
               on_bad: str, logger: logging.Logger, skiprows: int = 0, blank: Sequence = (),
               check: Callable | None = None) -> tuple[RawTable, int]:
    """The csv records of a file after its first skiprows lines as a table
    of these columns, and the number of records skipped.

    The file is read in bulk by one `read_matrix` call or, if that fails,
    in blocks of BLOCK_RECORDS records cut at record starts, each by the
    same call. A bulk read's fields are kinds after the first len(blank),
    which read blank, and any kinds past the names are fields it reads and
    drops; it fails if check rejects its cells. Each record of a block that
    fails goes through grammar, which gives its row of values or raises
    DataError; `bad_row` then names the record (on_bad 'abort') or logs it
    on logger and drops it ('skip').
    """
    if on_bad not in ("abort", "skip"):
        raise ValueError("on_bad must be 'abort' or 'skip'")
    fields, kinds = kinds[len(blank):], kinds[:len(names)]

    def bulk(source: str | list[str], skip: int = 0) -> RawTable | None:
        read = read_matrix(source, fields, skip)
        if read is None or check is not None and not check(read[1]):
            return None
        matrix, cells = read
        lead = [np.full(len(matrix), value) if kind == NUMERIC
                else encode([value], np.zeros(len(matrix), np.intp))
                for value, kind in zip(blank, kinds)]
        cells = iter(cells)
        return RawTable(names, kinds, lead + [
            matrix[:, i].copy() if kind == NUMERIC
            else encode(next(cells), matrix[:, i].astype(np.intp))
            for i, kind in enumerate(kinds[len(blank):])])

    if (table := bulk(path, skiprows)) is not None:
        return table, 0
    with open_text(path, newline="") as fh:
        lines = fh.readlines()
    tables, skipped = [table_of_rows(names, kinds, ())], 0
    records = (record for record in csv_records(path) if record[0] > skiprows)
    block = list(islice(records, BLOCK_RECORDS))
    while block:
        following = list(islice(records, BLOCK_RECORDS))  # a block ends where the next starts
        table = bulk(lines[block[0][0] - 1:following[0][0] - 1 if following else None])
        if table is None:  # each record through the grammar, in the one row loop
            rows = []
            for lineno, rec in block:
                try:
                    rows.append(grammar(rec))
                except DataError as exc:
                    bad_row(path, lineno, exc, on_bad, logger)
            table = table_of_rows(names, kinds, rows)
            skipped += len(block) - len(rows)
        tables.append(table)
        block = following
    columns = []
    for i, kind in enumerate(kinds):
        parts = [t.columns[i] for t in tables]
        if kind == NUMERIC:
            columns.append(np.concatenate(parts))
        else:  # each part's codes, shifted past the levels of the parts before it
            shifts = np.cumsum([0] + [len(levels) for levels, _ in parts])
            columns.append(encode([v for levels, _ in parts for v in levels],
                                  np.concatenate([c + s for (_, c), s in zip(parts, shifts)])))
    return RawTable(names, kinds, columns), skipped


def read_matrix(source: str | list[str], kinds: Sequence[str], skiprows: int = 0
                ) -> tuple[np.ndarray, list[list[str]]] | None:
    """A csv file (a path, or its lines) of one field per kind in every row
    after its first skiprows lines, read by one ``np.loadtxt`` call (which
    unquotes as ``csv.reader`` does): a float matrix of its numbers and
    each categorical cell's code, and per categorical column its distinct
    cells, stripped, in code order. None for a file that fails a check
    (another field count in any row, a bad or non-finite number, a line of
    spaces, no rows); a file that is not UTF-8 is a DataError."""
    categorical = [i for i, kind in enumerate(kinds) if kind != NUMERIC]
    books = [_Codebook() for _ in categorical]
    converters = {i: book.__getitem__ for i, book in zip(categorical, books)}
    with (open_text(source, newline="") if isinstance(source, str) else nullcontext(source)
          ) as fh, warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file of no rows
        try:
            matrix = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                skiprows=skiprows, converters=converters,
                                encoding="utf-8")  # str, not bytes
        except UnicodeDecodeError:
            raise  # open_text's DataError
        except (ValueError, UserWarning):
            return None
    if matrix.shape[1] != len(kinds) or not np.isfinite(matrix).all():
        return None
    return matrix, [[cell.strip() for cell in book] for book in books]


def table_of_rows(names: Sequence[str], kinds: Sequence[str], rows: Iterable[Sequence]
                  ) -> RawTable:
    """Rows of values as a table: numbers as float, other values as str in
    `encode` form."""
    columns = list(zip(*rows)) or [()] * len(names)
    return RawTable(names, kinds, [np.array(column, dtype=float) if kind == NUMERIC
                                   else encode([str(value) for value in column])
                                   for kind, column in zip(kinds, columns)])


class RowView:
    """Records held by column in a RawTable, or a view of some of them:
    `rows` names each one's row of the table, which a view shares. A
    subclass gives its table's NAMES and KINDS, a record's `values` in that
    order and the `record` of such values. An int index gives a record, any
    other a view of those rows."""

    NAMES: tuple[str, ...]
    KINDS: tuple[str, ...]

    def __init__(self, table: RawTable):
        self.table, self.rows = table, np.arange(table.row_count)

    @classmethod
    def of_records(cls, records: Iterable) -> RowView:
        """A view as it is, or records as a table (numbers as float, other
        values as str)."""
        if isinstance(records, cls):
            return records
        return cls(table_of_rows(cls.NAMES, cls.KINDS, map(cls.values, records)))

    def at(self, rows: np.ndarray) -> RowView:
        """The records at these rows of the table, as a view."""
        view = object.__new__(type(self))  # the table shared, not copied
        view.__dict__.update(self.__dict__, rows=rows)
        return view

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return next(iter(self[[key]]))
        return self.at(self.rows[key])

    def column(self, i: int) -> np.ndarray | tuple[list[str], np.ndarray]:
        """Column i at these rows: a float array, or (levels, each row's code)."""
        if self.KINDS[i] == NUMERIC:
            return self.table.columns[i][self.rows]
        levels, codes = self.table.columns[i]
        return levels, codes[self.rows]

    @property
    def columns(self) -> list[np.ndarray | tuple[list[str], np.ndarray]]:
        return [self.column(i) for i in range(len(self.NAMES))]

    def __iter__(self) -> Iterator:
        return map(self.record, *(column.tolist() if kind == NUMERIC
                                  else [column[0][c] for c in column[1].tolist()]
                                  for kind, column in zip(self.KINDS, self.columns)))


def parse_connection_fields(rec: Sequence[str]) -> list:
    """One typed connection row, without a label; raises DataError on
    arity/parse problems."""
    if len(rec) != len(KDD_FEATURES):
        raise DataError(f"expected {len(KDD_FEATURES)} fields, got {len(rec)}")
    row: list = []
    for (name, kind), cell in zip(KDD_FEATURES, rec):
        cell = cell.strip()
        if kind == NUMERIC:
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"non-numeric value {cell!r} in column {name}") from None
            if not math.isfinite(value):
                raise DataError(f"non-finite value {cell!r} in column {name}")
            row.append(value)
        else:
            row.append(cell)
    return row


def apply_label_granularity(table: RawTable, granularity: str,
                            class_column: str = LABEL_COLUMN) -> RawTable:
    """Map specific attack labels to their 5-way category, or keep them as is."""
    if granularity not in ("category", "attack"):
        raise ValueError("granularity must be 'category' or 'attack'")
    if granularity == "attack" or table.kind(class_column) == NUMERIC:
        return table  # numbers name no attack
    columns = list(table.columns)
    idx = table.names.index(class_column)
    levels, codes = columns[idx]
    columns[idx] = encode([_CATEGORY_OF.get(v, v) for v in levels], codes)
    return RawTable(table.names, table.kinds, columns)


def encode(cells: Sequence, codes: np.ndarray | None = None) -> tuple[list, np.ndarray]:
    """A categorical column's form in a RawTable: the sorted distinct cells and
    each row's index into them, where row r holds cells[codes[r]] (cells[r]
    without codes)."""
    levels = sorted(set(cells))
    index = {v: i for i, v in enumerate(levels)}
    lookup = np.array([index[v] for v in cells], dtype=np.intp)
    return levels, lookup if codes is None else lookup[codes]


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of a (rows, classes) count table; 0 if empty."""
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / np.where(totals == 0, 1, totals)
    return np.where(totals[:, 0] == 0, 0.0, 1.0 - np.sum(p * p, axis=1))


def gini_rank(table: RawTable, class_column: str) -> FeatureRanking:
    """Rank features by Gini impurity gain of the class under their split.

    gain(F) = Gini(class) - sum_v (n_v / n) * Gini(class | F = v), values are
    grouped by exact equality for both categorical and numeric columns. A
    categorical feature's (value, class) table is a bincount of its
    encoding, a numeric one's counts runs of equal values in its rows sorted
    by class, then by value. A numeric class column is encoded as str. The
    sum over v runs in sorted value order, so gains are bit-identical to the
    per-value loop this replaced.
    """
    classes, class_codes = (encode(table.column(class_column).astype(str).tolist())
                            if table.kind(class_column) == NUMERIC
                            else table.column(class_column))
    n_classes, n_rows = len(classes), len(class_codes)
    class_sizes = np.bincount(class_codes, minlength=n_classes)
    base = float(_gini_rows(class_sizes[None, :])[0])
    if base == 0.0:
        log.warning("class column %s is constant; all gains are 0", class_column)

    by_class = np.argsort(class_codes, kind="stable")
    class_ends = np.cumsum(class_sizes)
    run_class = np.repeat(np.arange(n_classes), class_sizes)
    gains = []
    for pos, name in enumerate(table.names):
        if name == class_column:
            continue
        if table.kinds[pos] == NUMERIC:
            grouped = table.columns[pos][by_class]
            for start, end in zip(class_ends - class_sizes, class_ends):
                grouped[start:end].sort()  # few runs: np.unique below sees few values
            new_run = np.ones(n_rows, dtype=bool)
            np.not_equal(grouped[1:], grouped[:-1], out=new_run[1:])
            new_run[class_ends[:-1]] = True  # a run never spans two classes
            starts = np.flatnonzero(new_run)
            values, codes = np.unique(grouped[starts], return_inverse=True)
            weights, class_of = np.diff(starts, append=n_rows), run_class[starts]
        else:
            values, codes = table.columns[pos]
            weights, class_of = None, class_codes
        # float counts from weights are exact integers, so the gains match
        joint = np.bincount(codes * n_classes + class_of, weights=weights,
                            minlength=len(values) * n_classes).reshape(len(values), n_classes)
        terms = (joint.sum(axis=1) / n_rows) * _gini_rows(joint)
        weighted = np.add.accumulate(terms)[-1] if len(terms) else 0.0
        gains.append((name, pos, max(0.0, base - weighted)))

    gains.sort(key=lambda t: (-t[2], t[1]))  # ties keep table order
    return FeatureRanking(class_column, tuple((n, g) for n, _, g in gains))


def _mean_threshold(values: Sequence[float], column: str) -> float:
    """The column mean, or its one value if constant (logged): the v1/v2 split."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot discretize an empty column")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        log.warning("column %s is constant; every value lands in bin v2", column)
        return lo
    return float(arr.mean())


def select_features(ranking: FeatureRanking, k: int) -> list[str]:
    """Top-k ranked features plus the class column (always last)."""
    if k > len(ranking.entries):
        raise ValueError(f"k={k} exceeds the {len(ranking.entries)} ranked features")
    return [name for name, _ in ranking.entries[:k]] + [ranking.class_column]


def category_states(column: str, values: Iterable[str]) -> tuple[str, ...]:
    """A classifier's states for a categorical column: its sorted distinct
    values, with NONE_STATE added to a single value so that every variable
    has two states or more. A value that no model file can spell as a state
    label (empty, or holding whitespace or a comma) is a DataError naming
    the column."""
    states = sorted(set(values))
    bad = next((s for s in states if not s or NOT_TOKEN.search(s)), None)
    if bad is not None:
        raise DataError(f"column {column!r}: value {bad!r} is not a state label; "
                        "it must be nonempty without spaces or commas")
    if len(states) < 2:
        states.append(NONE_STATE)
    return tuple(states)


def build_rules(table: RawTable, selected: Sequence[str]) -> TransformRules:
    """Freeze thresholds and category state lists from training data."""
    rules = TransformRules()
    for name in selected:
        if table.kind(name) == NUMERIC:
            rules.means[name] = _mean_threshold(table.column(name), name)
        else:
            rules.states[name] = category_states(name, table.column(name)[0])
    return rules


def to_discrete_dataset(table: RawTable, rules: TransformRules,
                        selected: Sequence[str]) -> DiscreteDataset:
    """Index-encode the selected columns under frozen rules.

    Numeric columns become binary (v1, v2). Categorical values unseen at
    rule-building time map to a reserved state appended to that variable.
    """
    variables: list[Variable] = []
    code_columns: list[np.ndarray] = []
    for out_id, name in enumerate(selected):
        if table.kind(name) == NUMERIC:
            if name not in rules.means:
                raise ValueError(f"no discretization rule for numeric column {name!r}")
            codes = (np.asarray(table.column(name), dtype=float)
                     >= rules.means[name]).astype(np.int64)
            states: tuple[str, ...] = ("v1", "v2")
        else:
            if name not in rules.states:
                raise ValueError(f"no state map for categorical column {name!r}")
            states = rules.states[name]
            lookup = {s: i for i, s in enumerate(states)}
            levels, level_codes = table.column(name)
            codes = np.array([lookup.get(v, len(states)) for v in levels],
                             dtype=np.int64)[level_codes]
            if np.any(codes == len(states)):
                states = states + (UNKNOWN_STATE,)
        variables.append(Variable(out_id, name, states))
        code_columns.append(codes)
    rows = (np.stack(code_columns, axis=1) if code_columns
            else np.zeros((0, 0), dtype=np.int64))
    return DiscreteDataset(tuple(variables), rows)


def save_rules(rules: TransformRules, path: str) -> None:
    with open_output(path) as fh:
        fh.write(format_rules(rules))


def format_rules(rules: TransformRules) -> str:
    lines = [f"{col} mean={repr(m)}" for col, m in sorted(rules.means.items())]
    lines += [f"{col} states={','.join(states)}"
              for col, states in sorted(rules.states.items())]
    return "\n".join(lines) + "\n"


def parse_rules(text: str) -> TransformRules:
    rules = TransformRules()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            col, rule = line.split(None, 1)
            key, value = rule.split("=", 1)
            if key == "mean":
                rules.means[col] = finite_float(value)
        except ValueError:
            raise DataError(f"rules line {lineno}: cannot parse {line!r}") from None
        if key == "states":
            rules.states[col] = tuple(value.split(","))
        elif key != "mean":
            raise DataError(f"rules line {lineno}: unknown rule kind {key!r}")
    return rules


"""Discrete Bayesian network data model (variables, DAG, CPTs) and the
learn and forecast settings.

All state indices are 0-based internally; state labels are kept for I/O.
A CPT's layout is stated once, by Dag.cpt_shape: a (q, r) table is that
shape in numpy C order, so parent configurations run row-major with the last
parent varying fastest. That ordering is part of the CPT file contract.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Mapping

import numpy as np

ROW_SUM_TOL = 1e-9
# A character that no token of a model file (variable name, state label) may
# hold; \s matches exactly the characters str.isspace accepts.
NOT_TOKEN = re.compile(r"[\s,]")


class DataError(ValueError):
    """Malformed input data, reported with file/line context."""


def open_output(path: str, **kwargs) -> IO:
    """open(path, "w", encoding="utf-8", **kwargs); a path that cannot be
    written (a directory, a missing parent) is a DataError naming the path."""
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise DataError(f"{path}: cannot write ({exc.strerror or exc})") from None


@contextmanager
def open_text(path: str, **kwargs) -> Iterator[IO]:
    """open(path, encoding="utf-8", **kwargs) for a with block. A path that
    cannot be opened (missing, a directory, unreadable) is a DataError
    naming it, and a file that is not UTF-8 one naming the line of its
    first byte that does not decode."""
    try:
        fh = open(path, encoding="utf-8", **kwargs)
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from None
    try:
        with fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as raw:
            data = raw.read()
        try:
            data.decode("utf-8")  # the error's offset is into a buffer, not the file
        except UnicodeDecodeError as first:
            exc = first
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def csv_records(path: str) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank csv record of a UTF-8 file, with the physical line it
    starts on (a quoted newline makes a record span lines)."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        end = 0
        for rec in reader:
            lineno, end = end + 1, reader.line_num
            if rec and (len(rec) > 1 or rec[0].strip()):
                yield lineno, rec


def bad_row(path: str, lineno: int, reason: object, on_bad: str,
            log: logging.Logger) -> None:
    """Raise DataError naming path:lineno (on_bad 'abort'), or log the row
    as skipped on the caller's logger (on_bad 'skip')."""
    if on_bad == "abort":
        raise DataError(f"{path}:{lineno}: {reason}") from None
    log.warning("%s:%d: skipped row (%s)", path, lineno, reason)


def finite_float(token: str) -> float:
    """The float token spells as np.loadtxt reads one (ASCII but for the
    whitespace around it, no underscore); ValueError unless it is finite."""
    spelled = token.strip()
    if "_" in spelled or not spelled.isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    value = float(spelled)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not finite")
    return value


@dataclass(frozen=True)
class Param:
    """A learn or forecast setting: its default (None: unset), the parser of
    its spelling (int, finite_float, or str for one of `choices`) and the
    rule a number obeys: `bound` (">= 0", "> 0" or none), and not below the
    setting named by `floor`."""

    default: object
    parse: Callable[[str], object]
    doc: str
    bound: str = ""
    choices: tuple[str, ...] = ()
    floor: str = ""

    @property
    def rule(self) -> str:
        """The rule in words, as --help and the README state it."""
        if self.choices:
            return "one of " + ", ".join(self.choices)
        rule = f"{'an integer' if self.parse is int else 'finite'} {self.bound}".rstrip()
        return rule + (f", >= {self.floor}" if self.floor else "")

    def broken(self, value: object) -> str | None:
        """The part of the rule, the floor aside, that value breaks, or None."""
        if value is None and self.default is None:
            return None
        if self.choices:
            return None if value in self.choices else self.rule
        if self.parse is int:
            if not isinstance(value, numbers.Integral):
                return "an integer"
        elif not (isinstance(value, numbers.Real) and math.isfinite(value)):
            return "finite"
        if self.bound == ">= 0" and value < 0 or self.bound == "> 0" and value <= 0:
            return self.bound
        return None

    def read(self, token: str) -> object:
        """The value token spells; the parser's ValueError, or `expected
        <rule>` for a value outside the rule."""
        value = self.parse(token)
        if (broken := self.broken(value)) is not None:
            raise ValueError(f"expected {broken}")
        return value


PARAMS = {
    "top_k": Param(9, int, "number of ranked features to keep", ">= 0"),
    "max_parents": Param(2, int, "K2 parent budget per variable", ">= 0"),
    "smoothing": Param(1.0, finite_float, "CPT smoothing pseudo-count", ">= 0"),
    "tau": Param(0.5, finite_float, "informativeness gap threshold"),
    "slot": Param(60.0, finite_float, "time slot width in seconds", "> 0"),
    "span": Param(None, finite_float, "time range to cover; unset covers the whole log", "> 0",
                  floor="slot"),
    "selection": Param("max", str, "forecast rule", choices=("max", "threshold")),
    "theta": Param(0.5, finite_float, "probability floor of the threshold rule"),
    "seed": Param(0, int, "simulation seed"),
}


def check_params(**values: object) -> None:
    """ValueError `<name> must be <rule>` for the first setting whose value
    breaks its rule in PARAMS, floors included."""
    for name, value in values.items():
        param = PARAMS[name]
        if (broken := param.broken(value)) is not None:
            raise ValueError(f"{name} must be {broken}")
        low = values.get(param.floor)
        if value is not None and low is not None and value < low:
            raise ValueError(f"{name} must cover at least one {param.floor}")


@dataclass(frozen=True)
class Variable:
    """A discrete random variable with a finite, ordered set of states."""

    id: int
    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def arity(self) -> int:
        return len(self.states)

    def state_index(self) -> dict[str, int]:
        """Each state label's index; a repeated label keeps its first index,
        as states.index gives."""
        return {s: i for i, s in reversed(list(enumerate(self.states)))}


@dataclass(frozen=True)
class Dag:
    """Directed graph over variables, one ordered parent tuple per variable.

    Construction is permissive: cycles and bad references are reported by
    validate_network rather than raised here, so that broken inputs can be
    inspected.
    """

    variables: tuple[Variable, ...]
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "parents", tuple(tuple(p) for p in self.parents))
        if len(self.variables) != len(self.parents):
            raise ValueError("one parent tuple required per variable")

    def variable(self, vid: int) -> Variable:
        if not 0 <= vid < len(self.variables):
            raise ValueError(f"unknown variable id {vid}")
        return self.variables[vid]

    def arity(self, vid: int) -> int:
        return self.variable(vid).arity

    def cpt_shape(self, vid: int) -> tuple[int, ...]:
        """Each parent's arity, then vid's: a (q, r) CPT table of vid is this
        shape in numpy C order, one row per parent configuration."""
        arity = self.arity(vid)  # raises on an unknown id
        return tuple(map(self.arity, self.parents[vid])) + (arity,)

    def _kahn(self) -> tuple[list[int], list[int]]:
        """Kahn's peeling: the variables peeled, in order, and the ids left
        unpeeled, on a directed cycle or downstream of one (none in a DAG)."""
        n = len(self.variables)
        indeg = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for child, ps in enumerate(self.parents):
            for p in ps:
                if 0 <= p < n:
                    indeg[child] += 1
                    children[p].append(child)
        ready = sorted(i for i in range(n) if indeg[i] == 0)
        out: list[int] = []
        while ready:
            v = ready.pop(0)
            out.append(v)
            for c in children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return out, [i for i in range(n) if indeg[i] > 0]


@dataclass(frozen=True)
class BayesNet:
    """A DAG plus one CPT per variable id: a float64 (q, r) table in the
    shape Dag.cpt_shape gives, its rows the configurations of the Dag's
    parents of that variable. Tables are stored read-only."""

    dag: Dag
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self):
        tables = tuple(np.asarray(t, dtype=np.float64) for t in self.cpts)
        for table in tables:
            table.setflags(write=False)
        object.__setattr__(self, "cpts", tables)

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self.dag.variables

    def variable(self, vid: int) -> Variable:
        return self.dag.variable(vid)

    def var_id(self, name: str) -> int:
        for v in self.dag.variables:
            if v.name == name:
                return v.id
        raise ValueError(f"no variable named {name!r}")


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by validate_network."""

    variable: int | None
    kind: str
    message: str

    def __str__(self) -> str:
        where = f"var {self.variable}: " if self.variable is not None else ""
        return f"[{self.kind}] {where}{self.message}"


def parent_configurations(net: BayesNet, var: int) -> list[tuple[int, ...]]:
    """All parent-state configurations of var in CPT row order, last parent
    varying fastest; a variable with no parents has the one empty one."""
    return list(np.ndindex(net.dag.cpt_shape(var)[:-1]))


def joint_probability(net: BayesNet, assignment: Mapping[int, int]) -> float:
    """Product of the CPT entries selected by a full assignment."""
    missing = [v.id for v in net.dag.variables if v.id not in assignment]
    if missing:
        raise ValueError(f"assignment misses variables {missing}")
    prob = 1.0
    for var in net.dag.variables:
        table = net.cpts[var.id].reshape(net.dag.cpt_shape(var.id))
        prob *= float(table[tuple(assignment[p] for p in (*net.dag.parents[var.id], var.id))])
    return prob


def validate_network(net: BayesNet) -> list[Violation]:
    """Report every broken invariant; an empty list means the net is valid."""
    out: list[Violation] = []
    n = len(net.dag.variables)

    for i, var in enumerate(net.dag.variables):
        if var.id != i:
            out.append(Violation(i, "id", f"variable at position {i} has id {var.id}"))
        if var.arity < 2:
            out.append(Violation(i, "arity", f"{var.name} has arity {var.arity} < 2"))
        if len(set(var.states)) != len(var.states):
            out.append(Violation(i, "duplicate-state", f"{var.name} repeats a state label"))

    refs_ok = True
    for child, parents in enumerate(net.dag.parents):
        for p in parents:
            if not 0 <= p < n:
                out.append(Violation(child, "unknown-parent", f"parent id {p} does not exist"))
                refs_ok = False
            elif p == child:
                out.append(Violation(child, "self-parent", "variable is its own parent"))
        if len(set(parents)) != len(parents):
            out.append(Violation(child, "duplicate-parent", "repeated parent id"))

    if refs_ok:
        _, stuck = net.dag._kahn()
        if stuck:
            out.append(Violation(None, "cycle", f"directed cycle through variables {stuck}"))

    if len(net.cpts) != n:
        out.append(Violation(None, "missing-cpt", f"{len(net.cpts)} CPTs for {n} variables"))
        return out

    for vid, (var, table) in enumerate(zip(net.dag.variables, net.cpts)):
        if any(not 0 <= p < n for p in net.dag.parents[vid]):
            continue  # already reported on the dag side
        shape = net.dag.cpt_shape(vid)
        q = math.prod(shape[:-1])
        if table.shape != (q, var.arity):
            out.append(Violation(vid, "cpt-shape",
                                 f"table shape {table.shape} != ({q}, {var.arity})"))
            continue
        if not np.all((table >= 0) & (table <= 1)):  # NaN fails both
            out.append(Violation(vid, "range", "CPT entry outside [0, 1]"))
        sums = table.sum(axis=1)
        for j in np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL):
            config = tuple(map(int, np.unravel_index(j, shape[:-1])))
            out.append(Violation(vid, "row-sum", f"row {config} sums to {sums[j]:.12g}, not 1"))
    return out

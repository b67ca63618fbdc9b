from __future__ import annotations

import os

import numpy as np
import pytest

from hidpas.core import BayesNet, Dag, Variable
from hidpas.features import NUMERIC, RawTable, encode

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SCENARIO_DIR = os.path.join(DATA_DIR, "scenario")


def raw_table(names, kinds, columns) -> RawTable:
    """A RawTable from columns of one value per row."""
    return RawTable(names, kinds, [c if k == NUMERIC else encode(list(c))
                                   for k, c in zip(kinds, columns)])


def cells(table: RawTable, name: str) -> np.ndarray:
    """A RawTable column as one value per row."""
    column = table.column(name)
    if table.kind(name) == NUMERIC:
        return column
    levels, codes = column
    return np.array(levels, dtype=object)[codes]


def counting(monkeypatch, owner, name: str) -> list:
    """Wrap owner.name, a module's function or a class's method, to list the
    first argument of each call: the record a grammar is given, the tree
    `propagate` calibrates, or the engine a method is called on."""
    calls, wrapped = [], getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda first, *rest: calls.append(first) or wrapped(first, *rest))
    return calls


def shown(column) -> list[str]:
    """A column of a table or a view as the repr of each row's value (so
    -0.0 is not 0.0)."""
    if isinstance(column, np.ndarray):
        return list(map(repr, column.tolist()))
    levels, codes = column
    return [repr(levels[code]) for code in codes.tolist()]


@pytest.fixture
def two_node_net() -> BayesNet:
    """A -> B with P(A=1)=0.6, P(B=1|A=0)=0.2, P(B=1|A=1)=0.9."""
    a = Variable(0, "A", ("a0", "a1"))
    b = Variable(1, "B", ("b0", "b1"))
    dag = Dag((a, b), ((), (0,)))
    return BayesNet(dag, (
        np.array([[0.4, 0.6]]),
        np.array([[0.8, 0.2], [0.1, 0.9]]),
    ))


@pytest.fixture
def collider_net() -> BayesNet:
    """A -> C <- B: co-parents for moralization checks."""
    a = Variable(0, "A", ("0", "1"))
    b = Variable(1, "B", ("0", "1"))
    c = Variable(2, "C", ("0", "1"))
    dag = Dag((a, b, c), ((), (), (0, 1)))
    return BayesNet(dag, (
        np.array([[0.3, 0.7]]),
        np.array([[0.6, 0.4]]),
        np.array([
            [0.9, 0.1], [0.5, 0.5], [0.4, 0.6], [0.2, 0.8],
        ]),
    ))


@pytest.fixture
def chain5_net() -> BayesNet:
    """Five-variable chain with mixed arities, enough for nontrivial trees."""
    variables = (
        Variable(0, "v0", ("s0", "s1")),
        Variable(1, "v1", ("s0", "s1", "s2")),
        Variable(2, "v2", ("s0", "s1")),
        Variable(3, "v3", ("s0", "s1", "s2")),
        Variable(4, "v4", ("s0", "s1")),
    )
    parents = ((), (0,), (1,), (2,), (3,))
    rng = np.random.default_rng(99)
    cpts = []
    for v in variables:
        q = 1 if not parents[v.id] else variables[parents[v.id][0]].arity
        rows = rng.random((q, v.arity)) + 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        cpts.append(rows)
    return BayesNet(Dag(variables, parents), tuple(cpts))


def data_path(*parts: str) -> str:
    return os.path.join(DATA_DIR, *parts)

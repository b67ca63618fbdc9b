"""Junction-tree construction and semiring-parameterized message passing.

Two calibration modes share one tree structure: sum-product for probability
marginals and max-min for possibility marginals. A sum-product distribute
message is divided by the collect message over its edge; the max-min mode
needs no division because min is idempotent.

Initializing potentials compiles the tree's structural work once: the
message schedule, each message's axes and shapes, and each variable's
evidence holders and read-out cluster. That plan does not depend on the
semiring, so both semirings' trees of one net share it. Calibration takes
an `evidence_matrix` and runs over a leading batch axis, one row per
evidence set; a single query is the batch of one. It flags the rows with no
mass and reads them out as zeros; raising on them, bounding a batch's memory
and memoizing answers is left to `possibility.HybridPropagator`.

The plan compiles one schedule, every component's collect messages, and
replays it in reverse for the distribute pass, each message's source and
target swapped. A calibration runs every collect message, then only the
distribute messages on the paths from the roots to its targets' read-out
clusters; a calibrated tree holds those clusters' tables and `possible`.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import BayesNet, Dag

SUM_PRODUCT = "sum-product"
MAX_MIN = "max-min"


@dataclass(frozen=True)
class Potential:
    """Nonnegative table over an ordered variable scope, one axis per variable."""

    scope: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        tbl = np.asarray(self.table, dtype=float)
        if tbl.ndim != len(self.scope):
            raise ValueError("table rank does not match scope size")
        if np.any(tbl < 0):
            raise ValueError("potential entries must be >= 0")
        tbl.setflags(write=False)
        object.__setattr__(self, "table", tbl)


@dataclass(frozen=True)
class JunctionTree:
    """Clusters plus maximum-weight spanning-tree edges with separators.

    cluster scopes and separators are sorted variable-id tuples; tables (when
    present) have one axis per scope variable in that order, after a leading
    batch axis once calibrated. A calibration given targets holds None for
    every cluster off the paths from the roots to their read-out clusters.
    """

    clusters: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]
    semiring: str | None = None
    cluster_tables: tuple[np.ndarray | None, ...] | None = None
    plan: Plan | None = None
    possible: np.ndarray | None = None  # per evidence row; None until calibrated


def moralize(dag: Dag) -> dict[int, frozenset[int]]:
    """Drop edge directions and connect every pair of co-parents: each
    variable id's neighbours in the moral graph."""
    adj: dict[int, set[int]] = {v.id: set() for v in dag.variables}
    for child, parents in enumerate(dag.parents):
        for p in parents:
            adj[p].add(child)
            adj[child].add(p)
        for i, a in enumerate(parents):
            for b in parents[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
    return {n: frozenset(s) for n, s in adj.items()}


def triangulate(graph: Mapping[int, frozenset[int]]
                ) -> tuple[list[int], list[frozenset[int]]]:
    """Greedy min-fill elimination: repeatedly eliminate the node whose
    removal adds the fewest fill edges, breaking ties by lowest id, and
    connect its neighbours pairwise. Returns the elimination order and the
    clusters {node} | neighbours, one per eliminated node that no earlier
    cluster holding the node contains; they are the cliques of the triangulated graph.

    Eliminating a node changes the fill only of nodes within two hops of
    it. Its neighbours lose it and gain fill edges, so they are rescored;
    a node further out keeps its neighbours, and each fill edge between two
    of them lowers its fill by one. The next node is the least (fill, id)
    on a heap whose stale entries are skipped.
    """
    adj = {n: set(nbrs) for n, nbrs in graph.items()}

    def fill(n: int) -> int:
        nbrs = adj[n]
        linked = sum(len(adj[a] & nbrs) for a in nbrs)  # each edge among them twice
        return (len(nbrs) * (len(nbrs) - 1) - linked) // 2

    fills = {n: fill(n) for n in adj}
    heap = [(f, n) for n, f in fills.items()]
    heapq.heapify(heap)
    order: list[int] = []
    clusters: list[frozenset[int]] = []
    holding: dict[int, list[int]] = {n: [] for n in adj}  # n -> the clusters holding it
    while heap:
        score, node = heapq.heappop(heap)
        if fills.get(node) != score:
            continue
        del fills[node]
        order.append(node)
        nbrs = adj.pop(node)
        cluster = frozenset(nbrs | {node})
        if not any(cluster <= clusters[i] for i in holding[node]):
            for n in nbrs:
                holding[n].append(len(clusters))
            clusters.append(cluster)
        for a in nbrs:
            adj[a].discard(node)
        changed = set(nbrs)
        if score:
            for a in nbrs:
                for b in nbrs - adj[a]:
                    if a < b:
                        for n in (adj[a] & adj[b]) - nbrs:
                            fills[n] -= 1
                            changed.add(n)
            for a in nbrs:
                adj[a].update(nbrs)
                adj[a].discard(a)
        for n in nbrs:
            fills[n] = fill(n)
        for n in changed:
            heapq.heappush(heap, (fills[n], n))
    return order, clusters


def _holders(clusters: Iterable[Iterable[int]]) -> dict[int, list[int]]:
    """Each variable's containing cluster indices, ascending."""
    holders: dict[int, list[int]] = {}
    for i, scope in enumerate(clusters):
        for v in scope:
            holders.setdefault(v, []).append(i)
    return holders


def build_tree(clusters: Sequence[frozenset[int]]) -> JunctionTree:
    """Maximum-weight spanning tree over the cluster graph.

    Edge weight is the separator size; zero-weight edges are excluded, so
    disconnected moral graphs yield a forest. Ties prefer the
    lexicographically smaller cluster index pair. Only clusters that share a
    variable are candidate pairs, found through each variable's holders.
    """
    scopes = tuple(tuple(sorted(c)) for c in clusters)
    shared = Counter((i, j) for held in _holders(scopes).values()
                     for k, i in enumerate(held) for j in held[k + 1:])
    candidates = sorted(shared, key=lambda pair: (-shared[pair], pair))

    parent = list(range(len(scopes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for i, j in candidates:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j, tuple(sorted(set(scopes[i]).intersection(scopes[j])))))
            if len(edges) == len(scopes) - 1:
                break
    return JunctionTree(clusters=scopes, edges=tuple(edges))


def format_tree(jt: JunctionTree, names: Mapping[int, str] | None = None) -> str:
    """Debug dump: one `cluster {..} -- sep {..} -- cluster {..}` line per edge."""

    def label(ids: Iterable[int]) -> str:
        items = [names[v] if names else str(v) for v in ids]
        return "{" + ",".join(items) + "}"

    if not jt.edges:
        return "\n".join(f"cluster {label(c)}" for c in jt.clusters)
    lines = [
        f"cluster {label(jt.clusters[i])} -- sep {label(sep)} -- cluster {label(jt.clusters[j])}"
        for i, j, sep in jt.edges
    ]
    return "\n".join(lines)


def _embed(table: np.ndarray, scope: Sequence[int], target: Sequence[int]) -> np.ndarray:
    """Table aligned to the axes of a superset scope (broadcastable view)."""
    positions = [scope.index(v) for v in target if v in scope]
    moved = np.transpose(table, positions)
    dims = iter(moved.shape)
    shape = [next(dims) if t in scope else 1 for t in target]
    return moved.reshape(shape)


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise quotient with the 0/0 := 0 convention."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)


def _overwrite(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return num


@dataclass(frozen=True)
class Semiring:
    """The operations of one calibration mode.

    combine joins two tables, marginalize is the ufunc whose reduce sums or
    maxes axes out, and update turns a distribute message and the collect
    message over its edge into the factor the target absorbs: their quotient
    for sum-product, the message itself for idempotent min. Under max-min the
    normalizing constants of forest components do not cancel, so evidence
    in one component caps the others (caps_components).
    """

    combine: np.ufunc
    marginalize: np.ufunc
    update: Callable[[np.ndarray, np.ndarray], np.ndarray]
    caps_components: bool


SEMIRINGS = {
    SUM_PRODUCT: Semiring(np.multiply, np.add, _divide, False),
    MAX_MIN: Semiring(np.minimum, np.maximum, _overwrite, True),
}


class Message(NamedTuple):
    """One absorb step. The source table, reduced over `axes`, is the
    separator message; reshaped to `shape` it broadcasts into the target."""

    source: int
    target: int
    axes: tuple[int, ...]
    shape: tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    """The structural work of calibration, compiled once per tree and its
    arities and shared by both semirings' initialized trees.

    Tables carry a leading batch axis during calibration, so every axis and
    shape here counts it: axis 0 is the evidence row.
    """

    collect: tuple[Message, ...]  # every component's, leaves towards the root
    distribute: tuple[Message, ...]  # collect reversed, source and target swapped
    components: tuple[tuple[int, ...], ...]  # each component's clusters, root first
    parent: tuple[int, ...]  # per cluster, towards its component's root; -1 at a root
    arity: np.ndarray  # per variable id, 0 for ids absent from the tree
    indicators: Mapping[int, np.ndarray]  # (arity + 1, arity): one-hot rows, then all ones
    holders: Mapping[int, tuple[tuple[int, tuple[int, ...]], ...]]  # (cluster, mask shape)
    home: Mapping[int, int]  # read-out cluster: the lowest containing index
    entries: int  # cluster table entries per evidence row

    @property
    def width(self) -> int:
        return len(self.arity)


def _compile_plan(jt: JunctionTree, arities: Mapping[int, int]) -> Plan:
    """Schedules, message axes and shapes, evidence holders and read-out
    clusters of a tree; scopes and separators must be sorted. Each
    component is walked depth-first from its lowest cluster index, and its
    collect messages run children before parents."""

    def message(source: int, target: int, sep: frozenset[int]) -> Message:
        axes = tuple(1 + i for i, v in enumerate(jt.clusters[source]) if v not in sep)
        shape = (-1,) + tuple(arities[v] if v in sep else 1 for v in jt.clusters[target])
        return Message(source, target, axes, shape)

    adj: dict[int, list[tuple[int, frozenset[int]]]] = {i: [] for i in range(len(jt.clusters))}
    for i, j, sep in jt.edges:
        adj[i].append((j, frozenset(sep)))
        adj[j].append((i, frozenset(sep)))
    links: list[tuple[int, int, frozenset[int]]] = []  # (child, parent, separator)
    components = []
    parent: list[int | None] = [None] * len(jt.clusters)  # None until walked
    for root in range(len(jt.clusters)):
        if parent[root] is not None:
            continue
        parent[root] = -1
        stack = [(root, -1, frozenset())]
        visit = []
        while stack:
            node, par, sep = stack.pop()
            visit.append((node, par, sep))
            for nb, nb_sep in adj[node]:
                if nb != par:
                    parent[nb] = node
                    stack.append((nb, node, nb_sep))
        links += reversed(visit[1:])
        components.append(tuple(node for node, _, _ in visit))

    containing = _holders(jt.clusters)
    variables = sorted(containing)
    arity = np.zeros(variables[-1] + 1 if variables else 0, dtype=np.intp)
    holders: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
    for var in variables:
        arity[var] = arities[var]
        holders[var] = tuple(
            (i, (-1,) + tuple(arities[v] if v == var else 1 for v in jt.clusters[i]))
            for i in containing[var])
    indicators = {}  # one read-only table per arity, shared by its variables
    for size in set(arities[v] for v in variables):
        indicators[size] = np.vstack([np.eye(size), np.ones((1, size))])
        indicators[size].setflags(write=False)
    return Plan(
        collect=tuple(message(node, par, sep) for node, par, sep in links),
        distribute=tuple(message(par, node, sep) for node, par, sep in reversed(links)),
        components=tuple(components),
        parent=tuple(parent),
        arity=arity,
        indicators={v: indicators[arities[v]] for v in variables},
        holders=holders,
        home={v: h[0][0] for v, h in holders.items()},
        entries=sum(math.prod(arities[v] for v in c) for c in jt.clusters),
    )


def initialize_potentials(
    jt: JunctionTree,
    factors: Sequence[Potential],
    semiring: str = SUM_PRODUCT,
) -> JunctionTree:
    """Assign each factor to its lowest-index containing cluster.

    Cluster tables start at the multiplicative identity (1 for both
    semirings); factors are multiplied in (sum-product) or min-combined
    (max-min). The returned tree carries its compiled calibration plan; a
    tree whose plan has the factors' arities lends it, so both semirings of
    one net share one.
    """
    if semiring not in SEMIRINGS:
        raise ValueError(f"unknown semiring {semiring!r}")
    arities: dict[int, int] = {}
    for f in factors:
        for v, size in zip(f.scope, f.table.shape):
            if arities.setdefault(v, size) != size:
                raise ValueError(f"conflicting arity for variable {v}")
    for c in jt.clusters:
        for v in c:
            if v not in arities:
                raise ValueError(f"no factor mentions cluster variable {v}")
    plan = jt.plan
    if plan is None or {v: plan.arity[v] for v in plan.home} != arities:
        plan = _compile_plan(jt, arities)

    combine = SEMIRINGS[semiring].combine
    scopes = [frozenset(c) for c in jt.clusters]
    tables = [np.ones(tuple(arities[v] for v in c)) for c in jt.clusters]
    for f in factors:
        held = [i for i, _ in plan.holders.get(f.scope[0], ())] if f.scope else range(len(scopes))
        home = next((i for i in held if scopes[i].issuperset(f.scope)), None)
        if home is None:
            raise RuntimeError(f"factor over {f.scope} fits no cluster; tree is malformed")
        tables[home] = combine(tables[home], _embed(f.table, f.scope, jt.clusters[home]))

    for t in tables:
        t.setflags(write=False)
    return replace(
        jt,
        semiring=semiring,
        cluster_tables=tuple(tables),
        plan=plan,
        possible=None,
    )


def evidence_matrix(jt: JunctionTree,
                    rows: Iterable[Mapping[int, int] | None]) -> np.ndarray:
    """Evidence rows as one (rows, width) state matrix for `propagate`:
    column v holds variable v's observed state, -1 if unobserved. A state
    must be an int or a numpy integer."""
    width = jt.plan.width
    matrix = []
    for evidence in rows:
        row = [-1] * width
        for var, state in (evidence or {}).items():
            if not isinstance(var, (int, np.integer)):
                raise ValueError(f"evidence variable {var!r} is not an integer")
            if not 0 <= var < width:
                raise ValueError(f"evidence variable {var} is absent from the tree")
            if not isinstance(state, (int, np.integer)):
                raise ValueError(f"evidence state {state!r} for variable {var} is not an integer")
            if state < 0:
                raise ValueError(f"evidence state {state} out of range for variable {var}")
            row[var] = state
        matrix.append(row)
    return np.array(matrix, dtype=np.intp).reshape(len(matrix), width)


def _check_observed(plan: Plan, observed: np.ndarray) -> None:
    if (not isinstance(observed, np.ndarray) or observed.ndim != 2
            or observed.shape[1] != plan.width):
        raise ValueError(f"evidence must be an evidence_matrix of shape (rows, {plan.width})")
    if not np.issubdtype(observed.dtype, np.integer):
        raise ValueError("evidence matrix must hold integer states")
    bad = (observed < -1) | (observed >= plan.arity)
    if bad.any():
        row, var = (int(i[0]) for i in np.nonzero(bad))
        if plan.arity[var] == 0:
            raise ValueError(f"evidence variable {var} is absent from the tree")
        raise ValueError(
            f"evidence state {observed[row, var]} out of range for variable {var}")


def _calibrate(jt: JunctionTree, observed: np.ndarray, read: Sequence[bool]):
    """Collect, then distribute into the clusters `read` marks, over every
    component at once, one batch row per evidence row. A table keeps batch
    length 1 until evidence or a message varies it by row. Components share
    no table, so running every collect message before any distribute message
    is exact. Returns (cluster tables, possible)."""
    plan = jt.plan
    sr = SEMIRINGS[jt.semiring]
    tables = [t[np.newaxis] for t in jt.cluster_tables]
    collected = []  # distribute message k is collect message ~k reversed

    for var in np.flatnonzero((observed >= 0).any(axis=0)).tolist():
        mask = plan.indicators[var][observed[:, var]]
        for cluster, shape in plan.holders[var]:
            tables[cluster] = tables[cluster] * mask.reshape(shape)

    # a collect message is the first over its edge, so it is absorbed as is
    for source, target, axes, shape in plan.collect:
        message = sr.marginalize.reduce(tables[source], axis=axes)
        tables[target] = sr.combine(tables[target], message.reshape(shape))
        collected.append(message)
    for k, (source, target, axes, shape) in enumerate(plan.distribute):
        if read[target]:
            message = sr.marginalize.reduce(tables[source], axis=axes)
            tables[target] = sr.combine(tables[target],
                                        sr.update(message, collected[~k]).reshape(shape))

    tops = np.zeros((len(plan.components), len(observed)))  # each root's maximum
    for top, clusters in zip(tops, plan.components):
        root = tables[clusters[0]]
        np.maximum(top, root.reshape(len(root), -1).max(axis=1), out=top)
    possible = (tops > 0).all(axis=0)

    if sr.caps_components and len(plan.components) > 1:
        # min does not cancel under normalization the way a product does:
        # evidence in one forest component caps every other component's
        # possibility at that component's best value. Every calibrated
        # max-min cluster of a component has the same maximum, its root's.
        for k, clusters in enumerate(plan.components):
            cap = np.delete(tops, k, axis=0).min(axis=0)
            if not np.any(cap < 1.0):
                continue
            cap = np.where(cap < 1.0, cap, np.inf)
            for c in [c for c in clusters if read[c]]:
                tables[c] = np.minimum(tables[c], cap.reshape((-1,) + (1,) * (tables[c].ndim - 1)))
    return tables, possible


def _home(plan: Plan, var: int) -> int:
    """The read-out cluster of a variable id, which must be an int or a
    numpy integer that the tree holds."""
    if not isinstance(var, (int, np.integer)):
        raise ValueError(f"variable {var!r} is not an integer")
    if var not in plan.home:
        raise ValueError(f"variable {var} is absent from the tree")
    return plan.home[var]


def propagate(jt: JunctionTree, observed: np.ndarray,
              targets: Sequence[int] | None = None) -> JunctionTree:
    """Two-phase collect/distribute calibration from the lowest cluster index
    of each component, every row of an `evidence_matrix` in one pass.

    Evidence zeroes every table entry inconsistent with an observed state.
    The calibrated tree's tables lead with a batch axis (length 1 where no
    row differs), and `possible` flags the rows with nonzero mass. Each row
    is bit-identical to the same evidence calibrated in a batch of its own.

    Given targets, only the distribute messages on the paths from the roots
    to their read-out clusters (`Plan.home`) follow the collect pass, and
    those clusters read out as a full calibration's; every other is None.
    """
    if jt.plan is None:
        raise ValueError("potentials must be initialized before propagation")
    if jt.possible is not None:
        raise ValueError("tree is already calibrated")
    plan = jt.plan
    read = [targets is None or up < 0 for up in plan.parent]
    for var in () if targets is None else targets:
        cluster = _home(plan, var)
        while not read[cluster]:
            read[cluster] = True
            cluster = plan.parent[cluster]
    _check_observed(plan, observed)
    tables, possible = _calibrate(jt, observed, read)
    for t in tables:
        t.setflags(write=False)
    tables = [t if r else None for t, r in zip(tables, read)]
    return replace(jt, cluster_tables=tuple(tables), possible=possible)


def query_marginal(jt: JunctionTree, var: int) -> np.ndarray:
    """(rows, arity) marginals of a calibrated tree over one variable, read
    off its home cluster.

    Sum-product marginals are renormalized to sum 1; max-min marginals are
    renormalized so their maximum is 1. Impossible rows read as zeros.
    """
    if jt.possible is None:
        raise ValueError("tree is not calibrated")
    return marginal_from_cluster(jt, _home(jt.plan, var), var)


def marginal_from_cluster(jt: JunctionTree, cluster: int, var: int) -> np.ndarray:
    """`query_marginal` read off one specific containing cluster (for agreement checks)."""
    table = None if jt.possible is None else jt.cluster_tables[cluster]
    if table is None:
        raise ValueError(f"cluster {cluster} is uncalibrated")
    _home(jt.plan, var)
    scope = jt.clusters[cluster]
    if var not in scope:
        raise ValueError(f"variable {var} not in cluster {cluster}")
    reduce = SEMIRINGS[jt.semiring].marginalize.reduce
    out = reduce(table, axis=tuple(1 + i for i, v in enumerate(scope) if v != var))
    out = _divide(out, reduce(out, axis=-1, keepdims=True))
    return np.broadcast_to(out, (len(jt.possible), out.shape[-1]))


def net_factors(net: BayesNet) -> list[Potential]:
    """One potential per CPT with scope (the Dag's parents..., child)."""
    return [Potential((*net.dag.parents[v], v), table.reshape(net.dag.cpt_shape(v)))
            for v, table in enumerate(net.cpts)]


def build_tree_for_net(net: BayesNet) -> JunctionTree:
    """Moralize, triangulate, and build the spanning tree for a net."""
    return build_tree(triangulate(moralize(net.dag))[1])

"""Junction-tree construction and semiring-parameterized message passing.

Two calibration modes share one tree structure: sum-product for probability
marginals and max-min for possibility marginals. The max-min mode needs no
separator division because min is idempotent; distribute-phase messages
simply overwrite separators and are absorbed by min.

Initializing potentials compiles the tree's structural work once: the
message schedule, each message's axes and shapes, and each variable's
evidence holders and read-out cluster. That plan does not depend on the
semiring, so both semirings' trees of one net share it. Calibration takes
an `evidence_matrix` and runs over a leading batch axis, one row per
evidence set; a single query is the batch of one. It flags the rows with no
mass and reads them out as zeros; raising on them, bounding a batch's memory
and memoizing answers is left to `possibility.HybridPropagator`.

The plan holds two schedules: every component's collect messages, and
every component's distribute messages. A root is calibrated once its
collect pass ends, so a calibration whose targets are all read at roots
runs the collect messages only; any other runs both.
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
    batch axis once calibrated. A collect-only calibration holds None for
    every non-root cluster table and every separator table.
    """

    clusters: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]
    semiring: str | None = None
    arities: Mapping[int, int] | None = None
    cluster_tables: tuple[np.ndarray | None, ...] | None = None
    separator_tables: tuple[np.ndarray | None, ...] | None = None
    plan: Plan | None = None
    possible: np.ndarray | None = None  # per evidence row; None until calibrated

    def containing_clusters(self, var: int) -> list[int]:
        return [i for i, c in enumerate(self.clusters) if var in c]

    @property
    def variables(self) -> set[int]:
        out: set[int] = set()
        for c in self.clusters:
            out.update(c)
        return out


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


def choose_order(graph: Mapping[int, frozenset[int]]) -> list[int]:
    """Greedy min-fill elimination ordering: repeatedly eliminate the node
    whose removal adds the fewest fill edges, breaking ties by lowest id.

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
    out: list[int] = []
    while heap:
        score, node = heapq.heappop(heap)
        if fills.get(node) != score:
            continue
        del fills[node]
        out.append(node)
        nbrs = adj.pop(node)
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
    return out


def elimination_clusters(
    graph: Mapping[int, frozenset[int]], order: Sequence[int]
) -> list[frozenset[int]]:
    """Eliminate nodes in order, collecting {node} | neighbors clusters.

    Neighbors of the eliminated node are pairwise connected first (fill-in),
    so the produced clusters triangulate the graph. Clusters contained in an
    earlier cluster are dropped.
    """
    if sorted(order) != sorted(graph):
        raise ValueError("order must be a permutation of the graph nodes")
    adj = {n: set(nbrs) for n, nbrs in graph.items()}
    clusters: list[frozenset[int]] = []
    for x in order:
        nbrs = adj.pop(x)
        cluster = frozenset(nbrs | {x})
        for a in nbrs:
            adj[a].discard(x)
            adj[a].update(nbrs)
            adj[a].discard(a)
        if not any(cluster <= earlier for earlier in clusters):
            clusters.append(cluster)
    return clusters


def build_tree(clusters: Sequence[frozenset[int]]) -> JunctionTree:
    """Maximum-weight spanning tree over the cluster graph.

    Edge weight is the separator size; zero-weight edges are excluded, so
    disconnected moral graphs yield a forest. Ties prefer the
    lexicographically smaller cluster index pair. Only clusters that share a
    variable are candidate pairs, found through each variable's holders.
    """
    scopes = tuple(tuple(sorted(c)) for c in clusters)
    holders: dict[int, list[int]] = {}
    for i, scope in enumerate(scopes):
        for v in scope:
            holders.setdefault(v, []).append(i)
    shared = Counter((i, j) for held in holders.values()
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


def has_running_intersection(jt: JunctionTree) -> bool:
    """For every variable, the clusters containing it form a connected subtree."""
    adj: dict[int, set[int]] = {i: set() for i in range(len(jt.clusters))}
    for i, j, _ in jt.edges:
        adj[i].add(j)
        adj[j].add(i)
    for var in jt.variables:
        holders = set(jt.containing_clusters(var))
        start = min(holders)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v in holders and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != holders:
            return False
    return True


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
    maxes axes out, and update turns a new message and the separator's
    previous one into the factor the target absorbs: their quotient for
    sum-product, the message itself for idempotent min. Under max-min the
    normalizing constants of forest components do not cancel, so evidence
    in one component caps the others (caps_components).
    """

    name: str
    combine: np.ufunc
    marginalize: np.ufunc
    update: Callable[[np.ndarray, np.ndarray], np.ndarray]
    caps_components: bool


SEMIRINGS = {
    SUM_PRODUCT: Semiring(SUM_PRODUCT, np.multiply, np.add, _divide, False),
    MAX_MIN: Semiring(MAX_MIN, np.minimum, np.maximum, _overwrite, True),
}


class Message(NamedTuple):
    """One absorb step. The source table, reduced over `axes`, is the
    separator message; reshaped to `shape` it broadcasts into the target."""

    source: int
    target: int
    edge: int
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
    distribute: tuple[Message, ...]  # every component's, the root outwards
    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (clusters, root first; edges)
    roots: frozenset[int]
    arity: np.ndarray  # per variable id, 0 for ids absent from the tree
    indicators: Mapping[int, np.ndarray]  # (arity + 1, arity): one-hot rows, then all ones
    holders: Mapping[int, tuple[tuple[int, tuple[int, ...]], ...]]  # (cluster, mask shape)
    home: Mapping[int, int]  # read-out cluster: the lowest containing index
    entries: int  # cluster table entries per evidence row

    @property
    def width(self) -> int:
        return len(self.arity)


def _components_and_schedule(jt: JunctionTree):
    """Per tree component: (root, collect order) with parent edge bookkeeping.

    collect order is a post-order list of (node, parent, edge index); the
    distribute phase replays it reversed.
    """
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(jt.clusters))}
    for e, (i, j, _) in enumerate(jt.edges):
        adj[i].append((j, e))
        adj[j].append((i, e))
    seen: set[int] = set()
    plans = []
    for root in range(len(jt.clusters)):
        if root in seen:
            continue
        seen.add(root)
        stack: list[tuple[int, int, int]] = [(root, -1, -1)]
        visit: list[tuple[int, int, int]] = []
        while stack:
            node, par, edge = stack.pop()
            visit.append((node, par, edge))
            for nb, e in adj[node]:
                if nb != par:
                    seen.add(nb)
                    stack.append((nb, node, e))
        # children before parents
        order = [entry for entry in reversed(visit) if entry[1] != -1]
        plans.append((root, order))
    return plans


def _compile_plan(jt: JunctionTree, arities: Mapping[int, int]) -> Plan:
    """Schedules, message axes and shapes, evidence holders and read-out
    clusters of a tree; scopes and separators must be sorted."""

    def message(source: int, target: int, edge: int) -> Message:
        sep = seps[edge]
        axes = tuple(1 + i for i, v in enumerate(jt.clusters[source]) if v not in sep)
        shape = (-1,) + tuple(arities[v] if v in sep else 1 for v in jt.clusters[target])
        return Message(source, target, edge, axes, shape)

    seps = [frozenset(sep) for _, _, sep in jt.edges]
    collect: list[Message] = []
    distribute: list[Message] = []
    components = []
    for root, order in _components_and_schedule(jt):
        collect += [message(node, par, edge) for node, par, edge in order]
        distribute += [message(par, node, edge) for node, par, edge in reversed(order)]
        components.append(((root,) + tuple(node for node, _, _ in order),
                           tuple(edge for _, _, edge in order)))

    containing: dict[int, list[int]] = {}
    for i, scope in enumerate(jt.clusters):
        for v in scope:
            containing.setdefault(v, []).append(i)
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
        collect=tuple(collect),
        distribute=tuple(distribute),
        components=tuple(components),
        roots=frozenset(clusters[0] for clusters, _ in components),
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

    Cluster and separator tables start at the multiplicative identity (1 for
    both semirings); factors are multiplied in (sum-product) or min-combined
    (max-min). The returned tree carries its compiled calibration plan; a
    tree already initialized over the same arities lends its plan, so both
    semirings of one net share one.
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
    plan = jt.plan if jt.plan is not None and jt.arities == arities else _compile_plan(jt, arities)

    combine = SEMIRINGS[semiring].combine
    scopes = [frozenset(c) for c in jt.clusters]
    tables = [np.ones(tuple(arities[v] for v in c)) for c in jt.clusters]
    for f in factors:
        held = [i for i, _ in plan.holders.get(f.scope[0], ())] if f.scope else range(len(scopes))
        home = next((i for i in held if scopes[i].issuperset(f.scope)), None)
        if home is None:
            raise RuntimeError(f"factor over {f.scope} fits no cluster; tree is malformed")
        tables[home] = combine(tables[home], _embed(f.table, f.scope, jt.clusters[home]))

    seps = [np.ones(tuple(arities[v] for v in sep)) for _, _, sep in jt.edges]
    for t in tables + seps:
        t.setflags(write=False)
    return replace(
        jt,
        semiring=semiring,
        arities=dict(arities),
        cluster_tables=tuple(tables),
        separator_tables=tuple(seps),
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


def _calibrate(jt: JunctionTree, observed: np.ndarray, full: bool):
    """Collect (and, if full, distribute) over every component at once, one
    batch row per evidence row. A table keeps batch length 1 until evidence
    or a message varies it by row. Components share no table, so running
    every collect message before any distribute message is exact. Returns
    (cluster tables, separator tables, possible)."""
    plan = jt.plan
    sr = SEMIRINGS[jt.semiring]
    tables = [t[np.newaxis] for t in jt.cluster_tables]
    seps = [s[np.newaxis] for s in jt.separator_tables]

    for var in np.flatnonzero((observed >= 0).any(axis=0)).tolist():
        mask = plan.indicators[var][observed[:, var]]
        for cluster, shape in plan.holders[var]:
            tables[cluster] = tables[cluster] * mask.reshape(shape)

    # a collect message is the first over its edge: the separator still
    # holds ones, so it is absorbed as is (dividing by one is exact)
    for source, target, edge, axes, shape in plan.collect:
        message = sr.marginalize.reduce(tables[source], axis=axes)
        tables[target] = sr.combine(tables[target], message.reshape(shape))
        seps[edge] = message
    for source, target, edge, axes, shape in plan.distribute if full else ():
        message = sr.marginalize.reduce(tables[source], axis=axes)
        tables[target] = sr.combine(tables[target], sr.update(message, seps[edge]).reshape(shape))
        seps[edge] = message

    possible = np.ones(len(observed), dtype=bool)
    for clusters, _ in plan.components:
        root = tables[clusters[0]]
        possible &= root.reshape(len(root), -1).any(axis=1)

    if sr.caps_components and len(plan.components) > 1:
        # min does not cancel under normalization the way a product does:
        # evidence in one forest component caps every other component's
        # possibility at that component's best value. Every calibrated
        # max-min cluster of a component has the same maximum, its root's.
        tops = np.zeros((len(plan.components), len(observed)))
        for top, (clusters, _) in zip(tops, plan.components):
            root = tables[clusters[0]]
            np.maximum(top, root.reshape(len(root), -1).max(axis=1), out=top)
        for k, (clusters, edges) in enumerate(plan.components):
            cap = np.delete(tops, k, axis=0).min(axis=0)
            if not np.any(cap < 1.0):
                continue
            cap = np.where(cap < 1.0, cap, np.inf)
            for c in clusters if full else clusters[:1]:
                tables[c] = np.minimum(tables[c], cap.reshape((-1,) + (1,) * (tables[c].ndim - 1)))
            for e in edges if full else ():
                seps[e] = np.minimum(seps[e], cap.reshape((-1,) + (1,) * (seps[e].ndim - 1)))
    return tables, seps, possible


def propagate(jt: JunctionTree, observed: np.ndarray,
              targets: Sequence[int] | None = None) -> JunctionTree:
    """Two-phase collect/distribute calibration from the lowest cluster index
    of each component, every row of an `evidence_matrix` in one pass.

    Evidence zeroes every table entry inconsistent with an observed state.
    The calibrated tree's tables lead with a batch axis (length 1 where no
    row differs), and `possible` flags the rows with nonzero mass. Each row
    is bit-identical to the same evidence calibrated in a batch of its own.

    Given targets all read at roots, only the collect messages run: the
    roots read out bit-identical to a full calibration, and every other
    cluster table and every separator table is None.
    """
    if jt.plan is None:
        raise ValueError("potentials must be initialized before propagation")
    if jt.possible is not None:
        raise ValueError("tree is already calibrated")
    plan = jt.plan
    full = targets is None
    for var in () if full else targets:
        if var not in plan.home:
            raise ValueError(f"variable {var} is absent from the tree")
        full = full or plan.home[var] not in plan.roots
    _check_observed(plan, observed)
    tables, seps, possible = _calibrate(jt, observed, full)
    for t in tables + seps:
        t.setflags(write=False)
    if not full:
        tables = [t if c in plan.roots else None for c, t in enumerate(tables)]
        seps = [None] * len(seps)
    return replace(jt, cluster_tables=tuple(tables), separator_tables=tuple(seps),
                   possible=possible)


def query_marginal(jt: JunctionTree, var: int, normalize: bool = True) -> np.ndarray:
    """(rows, arity) marginals of a calibrated tree over one variable, read
    off its home cluster.

    Sum-product marginals are renormalized to sum 1; max-min marginals are
    renormalized so their maximum is 1. Impossible rows read as zeros.
    """
    if jt.possible is None:
        raise ValueError("tree is not calibrated")
    if var not in jt.plan.home:
        raise ValueError(f"variable {var} is absent from the tree")
    return marginal_from_cluster(jt, jt.plan.home[var], var, normalize)


def marginal_from_cluster(
    jt: JunctionTree, cluster: int, var: int, normalize: bool = True
) -> np.ndarray:
    """Marginals read off one specific containing cluster (for agreement checks)."""
    scope = jt.clusters[cluster]
    if var not in scope:
        raise ValueError(f"variable {var} not in cluster {cluster}")
    table = None if jt.possible is None else jt.cluster_tables[cluster]
    if table is None:
        raise ValueError(f"cluster {cluster} is uncalibrated")
    reduce = SEMIRINGS[jt.semiring].marginalize.reduce
    out = reduce(table, axis=tuple(1 + i for i, v in enumerate(scope) if v != var))
    if normalize:
        out = _divide(out, reduce(out, axis=-1, keepdims=True))
    return np.broadcast_to(out, (len(jt.possible), out.shape[-1]))


def net_factors(net: BayesNet) -> list[Potential]:
    """One potential per CPT with scope (parents..., child)."""
    out = []
    for var in net.dag.variables:
        cpt = net.cpts[var.id]
        shape = tuple(net.dag.arity(p) for p in cpt.parents) + (var.arity,)
        out.append(Potential(cpt.parents + (var.id,), cpt.table.reshape(shape)))
    return out


def build_tree_for_net(net: BayesNet) -> JunctionTree:
    """Moralize, order, eliminate, and build the spanning tree for a net."""
    graph = moralize(net.dag)
    elim = choose_order(graph)
    return build_tree(elimination_clusters(graph, elim))

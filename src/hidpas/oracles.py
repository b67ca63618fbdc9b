"""Brute-force reference computations used to cross-check the fast paths.

Everything here enumerates full joint assignments with index grids; none of
it touches the junction-tree code, so agreement between the two is a real
check rather than a tautology. `run_all` backs the `oracle-check` CLI
subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import BayesNet, Cpt, Dag, Variable
from .jtree import (
    MAX_MIN,
    SUM_PRODUCT,
    Potential,
    build_tree_for_net,
    evidence_matrix,
    initialize_potentials,
    net_factors,
    propagate,
    query_marginal,
)
from .learning import CountStatistics
from .possibility import HybridPropagator, necessity, prob_to_poss, transformed_factors


def _factor_on_grid(factor: Potential, grids: np.ndarray) -> np.ndarray:
    """Factor values at every joint assignment, via advanced indexing."""
    return factor.table[tuple(grids[v] for v in factor.scope)]


def joint_table(factors: list[Potential], arities: list[int], mode: str) -> np.ndarray:
    """Full joint grid: product of factors, or min of factors for max-min."""
    grids = np.indices(tuple(arities))
    if mode == SUM_PRODUCT:
        joint = np.ones(tuple(arities))
        for f in factors:
            joint = joint * _factor_on_grid(f, grids)
    elif mode == MAX_MIN:
        joint = np.full(tuple(arities), np.inf)
        for f in factors:
            joint = np.minimum(joint, _factor_on_grid(f, grids))
        joint = np.where(np.isinf(joint), 1.0, joint)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return joint


def _apply_evidence(joint: np.ndarray, arities: list[int],
                    evidence: dict[int, int]) -> np.ndarray:
    grids = np.indices(tuple(arities))
    out = joint
    for var, state in evidence.items():
        out = out * (grids[var] == state)
    return out


def enumerate_marginal(
    factors: list[Potential],
    arities: list[int],
    evidence: dict[int, int],
    target: int,
    mode: str = SUM_PRODUCT,
) -> np.ndarray | None:
    """Normalized marginal by exhaustive enumeration; None if evidence kills it.

    sum-product sums assignments and renormalizes to total 1; max-min takes
    the max over assignments of the min over factors and renormalizes to
    max 1.
    """
    return _joint_marginal(joint_table(factors, arities, mode), arities, evidence, target, mode)


def _joint_marginal(joint: np.ndarray, arities: list[int], evidence: dict[int, int],
                    target: int, mode: str) -> np.ndarray | None:
    joint = _apply_evidence(joint, arities, evidence)
    axes = tuple(i for i in range(len(arities)) if i != target)
    if mode == SUM_PRODUCT:
        marg = joint.sum(axis=axes) if axes else joint
        total = marg.sum()
    else:
        marg = joint.max(axis=axes) if axes else joint
        total = marg.max()
    if total == 0:
        return None
    return marg / total


def direct_power_transform(p: np.ndarray) -> np.ndarray:
    """Closed-form possibility transform for strictly decreasing positive p.

    pi_i = (p_i / p_1) ** (k_i * (1 - p_i)) with k_1 = 1 and
    k_i = log(p_i + ... + p_n) / ((1 - p_i) * log(p_i / p_1)).
    Natural log; any base cancels between the two log factors.
    """
    p = np.asarray(p, dtype=float)
    if np.any(np.diff(p) >= 0) or p[-1] <= 0:
        raise ValueError("requires strictly decreasing positive values")
    n = p.size
    out = np.empty(n)
    out[0] = (p[0] / p[0]) ** (1.0 * (1.0 - p[0]))
    for i in range(1, n):
        tail = math.fsum(p[i:].tolist())
        k_i = math.log(tail) / ((1.0 - p[i]) * math.log(p[i] / p[0]))
        out[i] = (p[i] / p[0]) ** (k_i * (1.0 - p[i]))
    return out


def k2_score_by_factorials(stats: CountStatistics) -> float:
    """Log of the exact factorial product form, kept exact via Fractions."""
    r = stats.arity
    value = Fraction(1)
    for j in range(stats.counts.shape[0]):
        n_j = int(stats.marginals[j])
        value *= Fraction(math.factorial(r - 1), math.factorial(n_j + r - 1))
        for n_jk in stats.counts[j]:
            value *= math.factorial(int(n_jk))
    return math.log(value.numerator) - math.log(value.denominator)


# ---------------------------------------------------------------------------
# Seeded generators for the randomized cross-check suites
# ---------------------------------------------------------------------------

def random_net(rng: np.random.Generator, max_vars: int = 8,
               max_arity: int = 3, max_parents: int = 3) -> BayesNet:
    n = int(rng.integers(2, max_vars + 1))
    variables = tuple(
        Variable(i, f"v{i}", tuple(f"s{k}" for k in range(int(rng.integers(2, max_arity + 1)))))
        for i in range(n)
    )
    parents = []
    for i in range(n):
        pool = list(range(i))
        count = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        chosen = sorted(rng.choice(pool, size=count, replace=False).tolist()) if count else []
        parents.append(tuple(int(c) for c in chosen))
    dag = Dag(variables, tuple(parents))
    cpts = []
    for i, var in enumerate(variables):
        q = 1
        for p in parents[i]:
            q *= variables[p].arity
        rows = rng.random((q, var.arity)) + 0.05  # keep rows off exact zero
        rows /= rows.sum(axis=1, keepdims=True)
        cpts.append(Cpt(i, parents[i], rows))
    return BayesNet(dag, tuple(cpts))


def forest_net(rng: np.random.Generator) -> BayesNet:
    """One or two random nets side by side (so the tree is often a forest),
    with about a fifth of the CPT entries zeroed so some evidence is
    impossible; every CPT row keeps its largest entry."""
    parts = [random_net(rng, max_vars=5)]
    if rng.random() < 0.7:
        parts.append(random_net(rng, max_vars=4))
    variables, parents, cpts = [], [], []
    for part in parts:
        base = len(variables)
        variables += [Variable(base + v.id, f"v{base + v.id}", v.states)
                      for v in part.dag.variables]
        parents += [tuple(base + p for p in ps) for ps in part.dag.parents]
        for cpt in part.cpts:
            table = cpt.table.copy()
            zero = rng.random(table.shape) < 0.2
            zero[np.arange(len(table)), table.argmax(axis=1)] = False
            table[zero] = 0.0
            table /= table.sum(axis=1, keepdims=True)
            cpts.append(Cpt(base + cpt.variable, tuple(base + p for p in cpt.parents), table))
    return BayesNet(Dag(tuple(variables), tuple(parents)), tuple(cpts))


def random_evidence(rng: np.random.Generator, net: BayesNet) -> dict[int, int]:
    n = len(net.dag.variables)
    count = int(rng.integers(0, max(1, n // 2) + 1))
    if count == 0:
        return {}
    vars_ = rng.choice(n, size=count, replace=False)
    return {int(v): int(rng.integers(0, net.dag.arity(int(v)))) for v in vars_}


def random_decreasing_distribution(rng: np.random.Generator, max_n: int = 10) -> np.ndarray:
    """Strictly decreasing, strictly positive, normalized within float error."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        raw = np.sort(rng.random(n) + 1e-3)[::-1]
        raw /= raw.sum()
        if np.all(np.diff(raw) < 0) and raw[-1] > 1e-6:
            return raw


# ---------------------------------------------------------------------------
# Check suites
# ---------------------------------------------------------------------------

@dataclass
class OracleReport:
    name: str
    cases: int = 0
    failures: int = 0
    worst: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"{self.name}: {status} ({self.cases} cases, "
                f"{self.failures} failures, worst deviation {self.worst:.3g})")


def check_probabilistic(seed: int = 1, networks: int = 200, tol: float = 1e-9) -> OracleReport:
    """Junction-tree sum-product marginals vs exhaustive enumeration."""
    return _check_calibration("probabilistic-oracle", SUM_PRODUCT, net_factors,
                              seed, networks, tol)


def check_possibilistic(seed: int = 1, networks: int = 200, tol: float = 1e-12) -> OracleReport:
    """Max-min junction-tree marginals vs brute-force max-of-min enumeration."""
    return _check_calibration("possibilistic-oracle", MAX_MIN, transformed_factors,
                              seed, networks, tol)


def _check_calibration(name: str, mode: str, factors_of, seed: int, networks: int,
                       tol: float) -> OracleReport:
    """Every marginal of a calibrated tree in one semiring vs enumeration, on
    seeded random nets and evidence."""
    rng = np.random.default_rng(seed)
    report = OracleReport(name)
    for _ in range(networks):
        net = random_net(rng)
        ev = random_evidence(rng, net)
        arities = [v.arity for v in net.dag.variables]
        factors = factors_of(net)
        tree = initialize_potentials(build_tree_for_net(net), factors, mode)
        cal = propagate(tree, evidence_matrix(tree, [ev]))
        impossible = not cal.possible[0]
        for var in range(len(arities)):
            expected = enumerate_marginal(factors, arities, ev, var, mode)
            report.cases += 1
            if impossible or expected is None:
                if impossible != (expected is None):
                    report.failures += 1
                    report.notes.append("impossible-evidence disagreement")
                continue
            got = query_marginal(cal, var)[0]
            dev = float(np.max(np.abs(got - expected)))
            report.worst = max(report.worst, dev)
            if dev > tol:
                report.failures += 1
    return report


def check_query_path(seed: int = 1, networks: int = 200, sum_tol: float = 1e-9,
                     max_tol: float = 1e-12) -> OracleReport:
    """HybridPropagator.query_batch, the memoized path every classifier and
    forecast takes, vs enumeration in both semirings. Each forest net answers
    two calls drawn from three evidence rows, so rows repeat within and
    across calls, then a call on all three rows whose targets are the
    variables homed at a root, which the collect pass alone answers;
    impossible rows must come back None."""
    rng = np.random.default_rng(seed)
    report = OracleReport("query-oracle")
    for _ in range(networks):
        net = forest_net(rng)
        n = len(net.dag.variables)
        arities = [v.arity for v in net.dag.variables]
        joints = {mode: joint_table(factors_of(net), arities, mode)
                  for mode, factors_of in ((SUM_PRODUCT, net_factors),
                                           (MAX_MIN, transformed_factors))}
        pool = [random_evidence(rng, net) for _ in range(3)]
        targets = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                    replace=False))
        engine = HybridPropagator(net)
        plan = initialize_potentials(engine.structure, net_factors(net)).plan
        calls = [(rng.integers(0, len(pool), size=4).tolist(), targets) for _ in range(2)]
        calls.append((list(range(len(pool))),
                      sorted(v for v, c in plan.home.items() if c in plan.roots)))
        for picks, asked in calls:
            answers = engine.query_batch([pool[i] for i in picks], asked)
            for i, got in zip(picks, answers):
                for var in asked:
                    report.cases += 1
                    p = _joint_marginal(joints[SUM_PRODUCT], arities, pool[i], var, SUM_PRODUCT)
                    pi = _joint_marginal(joints[MAX_MIN], arities, pool[i], var, MAX_MIN)
                    if got is None or p is None or pi is None:
                        if not (got is None and (p is None or pi is None)):
                            report.failures += 1
                            report.notes.append("impossible-evidence disagreement")
                        continue
                    dev_p = float(np.max(np.abs(np.array(got[var].probability) - p)))
                    dev_pi = float(np.max(np.abs(np.array(got[var].possibility) - pi)))
                    report.worst = max(report.worst, dev_p, dev_pi)
                    if dev_p > sum_tol or dev_pi > max_tol:
                        report.failures += 1
    return report


def check_transform(seed: int = 1, draws: int = 1000, tol: float = 1e-12) -> OracleReport:
    """Transform vs the closed-form power formula and the tail-sum identity."""
    rng = np.random.default_rng(seed)
    report = OracleReport("transform-oracle")
    for _ in range(draws):
        p = random_decreasing_distribution(rng)
        got = prob_to_poss(p)
        power = direct_power_transform(p)
        tails = np.array([math.fsum(p[i:].tolist()) for i in range(p.size)])
        tails[0] = 1.0
        report.cases += 1
        dev = max(float(np.max(np.abs(got - power))), float(np.max(np.abs(got - tails))))
        report.worst = max(report.worst, dev)
        bad = dev > tol or got[0] != 1.0
        n = necessity(got)
        if np.any(n > p) or np.any(p > got):
            bad = True
            report.notes.append("sandwich breach")
        if bad:
            report.failures += 1
    return report


def run_all(seed: int = 1, networks: int = 200, draws: int = 1000) -> list[OracleReport]:
    return [
        check_probabilistic(seed, networks),
        check_possibilistic(seed, networks),
        check_query_path(seed, networks),
        check_transform(seed, draws),
    ]

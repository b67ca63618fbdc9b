"""Hybrid probabilistic-possibilistic Bayesian networks for intrusion
detection and attack-plan prediction."""

from .core import (
    BayesNet,
    Dag,
    Variable,
    joint_probability,
    parent_configurations,
    validate_network,
)
from .learning import (
    DiscreteDataset,
    count_statistics,
    fit_cpts,
    k2_local_log_score,
    k2_search,
)
from .possibility import (
    HybridMarginal,
    HybridPropagator,
    necessity,
    prob_to_poss,
)

__version__ = "0.1.0"

__all__ = [
    "BayesNet", "Dag", "Variable",
    "joint_probability", "parent_configurations", "validate_network",
    "DiscreteDataset", "count_statistics", "fit_cpts", "k2_local_log_score", "k2_search",
    "HybridMarginal", "HybridPropagator",
    "necessity", "prob_to_poss",
    "__version__",
]

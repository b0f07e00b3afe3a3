"""Exact explanation enumeration and formal feature attribution.

Given a tree ensemble or a monotone linear classifier over an explicitly
declared feature space, this package enumerates abductive explanations
(subset-minimal feature sets that provably force a prediction) and
contrastive explanations (subset-minimal sets that, freed, admit a class
change) with an anytime hitting-set loop over an exact entailment oracle,
aggregates them into per-feature attribution vectors, and compares arbitrary
attribution vectors against that reference with Manhattan error, tie-aware
Kendall tau, and rank-biased overlap.
"""

from .attribution import AttributionVector, conversion_check, convergence_series, ffa, wffa
from .enumeration import (
    Budget,
    EnumerationReport,
    Explanation,
    brute_force_all_xps,
    check_duality,
    enumerate_explanations,
    extract_axp,
    extract_cxp,
    minimal_hs,
)
from .metrics import (
    Ranking,
    average_rows,
    compare_vectors,
    kendall_tau,
    manhattan_error,
    normalize_abs,
    rbo,
)
from .model import (
    BooleanSplit,
    FeatureSpace,
    FeatureSpec,
    Instance,
    Leaf,
    LinearModel,
    MembershipSplit,
    Prediction,
    ThresholdSplit,
    Tree,
    TreeEnsemble,
    evaluate,
    validate_instance,
)
from .oracle import (
    PartialAssignment,
    ScoreBounds,
    SufficiencyResult,
    brute_force_decide,
    decide_sufficiency,
    find_counterexample,
    score_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AttributionVector",
    "BooleanSplit",
    "Budget",
    "EnumerationReport",
    "Explanation",
    "FeatureSpace",
    "FeatureSpec",
    "Instance",
    "Leaf",
    "LinearModel",
    "MembershipSplit",
    "PartialAssignment",
    "Prediction",
    "Ranking",
    "ScoreBounds",
    "SufficiencyResult",
    "ThresholdSplit",
    "Tree",
    "TreeEnsemble",
    "average_rows",
    "brute_force_all_xps",
    "brute_force_decide",
    "check_duality",
    "compare_vectors",
    "conversion_check",
    "convergence_series",
    "decide_sufficiency",
    "enumerate_explanations",
    "evaluate",
    "extract_axp",
    "extract_cxp",
    "ffa",
    "find_counterexample",
    "kendall_tau",
    "manhattan_error",
    "minimal_hs",
    "normalize_abs",
    "rbo",
    "score_bounds",
    "validate_instance",
    "wffa",
]

"""Feature spaces, instances, and the two supported classifier kinds.

A ``FeatureSpace`` declares every feature's domain explicitly: categorical
features carry a finite set of named values, ordinal features a closed real
interval [lo, hi], boolean features the set {False, True}. Classifiers are
either additive tree ensembles (per-class sums of leaf weights) or weighted
linear scores over ordinal/boolean features. All objects are immutable after
construction and safe to share across workers; ``evaluate`` is pure.

Class decision rules:

* multiclass ensembles: argmax of the per-class score vector, ties broken by
  the lowest class id;
* binary models represented by a single score (two classes, every tree tagged
  class 1): class 1 iff the score is >= 0 — note this differs from argmax of
  ``(0, s)`` exactly at s == 0.

Scores accumulate per class in tree-index order; that order is part of the
model's semantics (the reasoning code reproduces it bit for bit).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .errors import ValidationError

CATEGORICAL = "categorical"
ORDINAL = "ordinal"
BOOLEAN = "boolean"
KINDS = (CATEGORICAL, ORDINAL, BOOLEAN)


@dataclass(frozen=True)
class FeatureSpec:
    """One feature's identity and declared domain."""

    fid: int
    name: str
    kind: str
    values: tuple[str, ...] | None = None  # categorical only
    lo: float | None = None  # ordinal only
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.values:
                raise ValidationError(f"feature {self.name!r}: a categorical domain must be non-empty")
            if len(set(self.values)) != len(self.values):
                raise ValidationError(f"feature {self.name!r}: duplicate categorical values")
        elif self.kind == ORDINAL:
            if self.lo is None or self.hi is None:
                raise ValidationError(f"feature {self.name!r}: ordinal interval missing")
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                raise ValidationError(
                    f"feature {self.name!r}: interval [{self.lo}, {self.hi}] is not finite"
                )
            if not (self.lo <= self.hi):
                raise ValidationError(
                    f"feature {self.name!r}: interval [{self.lo}, {self.hi}] has lo > hi"
                )

    def contains(self, value) -> bool:
        if self.kind == CATEGORICAL:
            return isinstance(value, str) and value in self.values
        if self.kind == BOOLEAN:
            return value is True or value is False or value in (0, 1)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return self.lo <= float(value) <= self.hi


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered feature declarations; ids are exactly 0..m-1."""

    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        ids = [f.fid for f in self.features]
        if ids != list(range(len(self.features))):
            raise ValidationError(f"feature ids must be 0..{len(self.features) - 1}, got {ids}")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate feature names")

    @property
    def m(self) -> int:
        return len(self.features)

    @cached_property
    def name_to_fid(self) -> dict[str, int]:
        return {f.name: f.fid for f in self.features}

    def __getitem__(self, fid: int) -> FeatureSpec:
        return self.features[fid]

    def all_features(self) -> frozenset[int]:
        return frozenset(range(self.m))


@dataclass(frozen=True)
class Instance:
    """A concrete point: one value per feature id, plus an optional label."""

    values: tuple
    label: Union[int, str, None] = None

    def __getitem__(self, fid: int):
        return self.values[fid]


def validate_instance(space: FeatureSpace, point: Instance) -> list[str]:
    """Return a (possibly empty) list of human-readable domain violations."""
    violations = []
    if len(point.values) != space.m:
        violations.append(f"expected {space.m} values, got {len(point.values)}")
        return violations
    for spec in space.features:
        value = point.values[spec.fid]
        if not spec.contains(value):
            violations.append(f"feature {spec.name!r}: value {value!r} outside declared domain")
    return violations


# --- tree ensembles ---------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    weight: float


@dataclass(frozen=True)
class ThresholdSplit:
    """Ordinal test: yes-branch iff value <= threshold."""

    fid: int
    threshold: float
    yes: "Node"
    no: "Node"


@dataclass(frozen=True)
class MembershipSplit:
    """Categorical test: yes-branch iff value is in ``values``."""

    fid: int
    values: frozenset[str]
    yes: "Node"
    no: "Node"


@dataclass(frozen=True)
class BooleanSplit:
    """Boolean test: yes-branch iff value is true."""

    fid: int
    yes: "Node"
    no: "Node"


Node = Union[Leaf, ThresholdSplit, MembershipSplit, BooleanSplit]


@dataclass(frozen=True)
class Tree:
    class_id: int
    root: Node


@dataclass(frozen=True)
class TreeEnsemble:
    """Additive per-class tree model bound to an explicit feature space."""

    space: FeatureSpace
    class_names: tuple[str, ...]
    trees: tuple[Tree, ...]
    base_score: tuple[float, ...] = ()

    def __post_init__(self):
        k = len(self.class_names)
        if k < 2:
            raise ValidationError("a classifier needs at least two classes")
        base = self.base_score or tuple(0.0 for _ in range(k))
        object.__setattr__(self, "base_score", tuple(float(b) for b in base))
        if len(self.base_score) != k:
            raise ValidationError(f"base_score must have {k} entries")
        # Per-class sums of base score and extreme leaves, in tree order: every
        # score and every bound the oracle accumulates lies between them, so if
        # they are finite no sum can overflow (and no inf + -inf can be NaN).
        lows, highs = list(self.base_score), list(self.base_score)
        for t, tree in enumerate(self.trees):
            if not 0 <= tree.class_id < k:
                raise ValidationError(f"tree {t}: class id {tree.class_id} out of range")
            lo, hi = _check_nodes(self.space, tree.root, where=f"tree {t}")
            lows[tree.class_id] += lo
            highs[tree.class_id] += hi
        for c in range(k):
            if not (math.isfinite(lows[c]) and math.isfinite(highs[c])):
                raise ValidationError(
                    f"class {c}: extreme scores ({lows[c]}, {highs[c]}) are not finite"
                )

    @property
    def k(self) -> int:
        return len(self.class_names)

    @cached_property
    def single_score(self) -> bool:
        """Binary one-score representation: sign of the class-1 sum decides."""
        return self.k == 2 and all(t.class_id == 1 for t in self.trees)


def _check_nodes(space: FeatureSpace, root: Node, where: str) -> tuple[float, float]:
    """Validate one tree; return its smallest and largest leaf weight."""
    seen: set[int] = set()
    stack = [root]
    lo, hi = math.inf, -math.inf
    while stack:
        node = stack.pop()
        if id(node) in seen:
            raise ValidationError(f"{where}: node graph is not a tree")
        seen.add(id(node))
        if isinstance(node, Leaf):
            w = node.weight
            if not math.isfinite(w):
                raise ValidationError(f"{where}: leaf weight {w} is not finite")
            if w < lo:
                lo = w
            if w > hi:
                hi = w
            continue
        if not 0 <= node.fid < space.m:
            raise ValidationError(f"{where}: split on unknown feature id {node.fid}")
        spec = space[node.fid]
        if isinstance(node, ThresholdSplit):
            if spec.kind != ORDINAL:
                raise ValidationError(f"{where}: threshold split on non-ordinal {spec.name!r}")
            if not math.isfinite(node.threshold):
                raise ValidationError(f"{where}: threshold {node.threshold} is not finite")
        if isinstance(node, MembershipSplit):
            if spec.kind != CATEGORICAL:
                raise ValidationError(f"{where}: membership split on non-categorical {spec.name!r}")
            if not node.values:
                raise ValidationError(f"{where}: empty membership set on {spec.name!r}")
        if isinstance(node, BooleanSplit) and spec.kind != BOOLEAN:
            raise ValidationError(f"{where}: boolean split on non-boolean {spec.name!r}")
        stack.append(node.yes)
        stack.append(node.no)
    return lo, hi


def _as_bool(value) -> bool:
    return bool(value) if not isinstance(value, bool) else value


def tree_leaf(root: Node, values: Sequence) -> float:
    """Follow the unique root-to-leaf path of one tree for a concrete point."""
    node = root
    while not isinstance(node, Leaf):
        if isinstance(node, ThresholdSplit):
            taken = float(values[node.fid]) <= node.threshold
        elif isinstance(node, MembershipSplit):
            taken = values[node.fid] in node.values
        else:
            taken = _as_bool(values[node.fid])
        node = node.yes if taken else node.no
    return node.weight


# --- linear models ----------------------------------------------------------


@dataclass(frozen=True)
class LinearModel:
    """Binary weighted-score model over ordinal/boolean features.

    The class decision is the sign rule: class 1 iff score >= 0.
    """

    space: FeatureSpace
    weights: tuple[float, ...]
    bias: float = 0.0
    class_names: tuple[str, str] = ("0", "1")

    def __post_init__(self):
        if len(self.weights) != self.space.m:
            raise ValidationError(
                f"need {self.space.m} weights, got {len(self.weights)}"
            )
        lo_sum = hi_sum = self.bias
        for spec, w in zip(self.space.features, self.weights):
            if spec.kind == CATEGORICAL:
                raise ValidationError(
                    f"feature {spec.name!r}: categorical features must be pre-encoded"
                    " as booleans for linear models"
                )
            lo, hi = (0.0, 1.0) if spec.kind == BOOLEAN else (spec.lo, spec.hi)
            lo_sum += min(w * lo, w * hi)
            hi_sum += max(w * lo, w * hi)
        # Every score lies between these extremes (ascending-id accumulation);
        # a non-finite weight or bias makes them non-finite too.
        if not (math.isfinite(lo_sum) and math.isfinite(hi_sum)):
            raise ValidationError(f"extreme scores ({lo_sum}, {hi_sum}) are not finite")

    @property
    def k(self) -> int:
        return 2

    def score(self, values: Sequence) -> float:
        # Ascending-id accumulation; the linear oracle scores its extreme points here.
        s = self.bias
        for fid, w in enumerate(self.weights):
            v = values[fid]
            s += w * (1.0 if _as_bool(v) else 0.0) if self.space[fid].kind == BOOLEAN else w * float(v)
        return s


Model = Union[TreeEnsemble, LinearModel]


# --- prediction -------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    """Predicted class and the per-class score vector behind it."""

    class_id: int
    scores: tuple[float, ...]


def argmax_class(scores: Sequence[float]) -> int:
    """Argmax with ties broken by the lowest class id."""
    best, best_c = scores[0], 0
    for c in range(1, len(scores)):
        if scores[c] > best:
            best, best_c = scores[c], c
    return best_c


def evaluate(model: Model, point: Instance) -> Prediction:
    """Exact per-class scores and the predicted class for a domain-valid point."""
    violations = validate_instance(model.space, point)
    if violations:
        raise ValidationError(violations[0])
    if isinstance(model, LinearModel):
        s = model.score(point.values)
        return Prediction(class_id=int(s >= 0.0), scores=(0.0, s))
    scores = list(model.base_score)
    for tree in model.trees:
        scores[tree.class_id] += tree_leaf(tree.root, point.values)
    scores = tuple(scores)
    if model.single_score:
        return Prediction(class_id=int(scores[1] >= 0.0), scores=scores)
    return Prediction(class_id=argmax_class(scores), scores=scores)

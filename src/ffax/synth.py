"""Seeded random feature spaces, models, and instances for fuzzing.

Thresholds are drawn from a small shared pool per feature so different trees
cut the same cells, which is where the reasoning engine earns its keep. Leaf
weights are rounded to a few decimals: scores stay legible and knife-edge
float ties stay possible but rare.
"""

import random
from typing import Sequence

from .model import (
    BOOLEAN,
    CATEGORICAL,
    ORDINAL,
    BooleanSplit,
    FeatureSpace,
    FeatureSpec,
    Instance,
    Leaf,
    LinearModel,
    MembershipSplit,
    ThresholdSplit,
    Tree,
    TreeEnsemble,
)

_CAT_VALUES = ("red", "green", "blue", "amber")


def random_space(
    rng: random.Random,
    m: int,
    kinds: Sequence[str] = (CATEGORICAL, ORDINAL, BOOLEAN),
    max_categories: int = 4,
) -> FeatureSpace:
    specs = []
    for fid in range(m):
        kind = rng.choice(kinds)
        if kind == CATEGORICAL:
            n = rng.randint(2, max_categories)
            specs.append(
                FeatureSpec(fid=fid, name=f"x{fid}", kind=kind, values=_CAT_VALUES[:n])
            )
        elif kind == ORDINAL:
            specs.append(FeatureSpec(fid=fid, name=f"x{fid}", kind=kind, lo=0.0, hi=10.0))
        else:
            specs.append(FeatureSpec(fid=fid, name=f"x{fid}", kind=kind))
    return FeatureSpace(features=tuple(specs))


def _random_node(rng: random.Random, space: FeatureSpace, depth: int, thresholds) -> object:
    if depth == 0 or rng.random() < 0.15:
        return Leaf(weight=round(rng.uniform(-1.0, 1.0), 4))
    spec = space[rng.randrange(space.m)]
    yes = _random_node(rng, space, depth - 1, thresholds)
    no = _random_node(rng, space, depth - 1, thresholds)
    if spec.kind == ORDINAL:
        return ThresholdSplit(fid=spec.fid, threshold=rng.choice(thresholds[spec.fid]), yes=yes, no=no)
    if spec.kind == CATEGORICAL:
        size = rng.randint(1, len(spec.values) - 1)
        values = frozenset(rng.sample(spec.values, size))
        return MembershipSplit(fid=spec.fid, values=values, yes=yes, no=no)
    return BooleanSplit(fid=spec.fid, yes=yes, no=no)


def random_ensemble(
    rng: random.Random,
    space: FeatureSpace,
    n_trees: int,
    depth: int = 3,
    k: int = 2,
    thresholds_per_feature: int = 3,
) -> TreeEnsemble:
    """With k == 2 every tree scores class 1 (single-score convention)."""
    pools = {
        spec.fid: [float(rng.choice(range(1, 10))) for _ in range(thresholds_per_feature)]
        for spec in space.features
        if spec.kind == ORDINAL
    }
    trees = []
    for t in range(n_trees):
        class_id = 1 if k == 2 else t % k
        trees.append(Tree(class_id=class_id, root=_random_node(rng, space, depth, pools)))
    return TreeEnsemble(
        space=space,
        class_names=tuple(f"c{c}" for c in range(k)),
        trees=tuple(trees),
    )


def random_instance(rng: random.Random, space: FeatureSpace) -> Instance:
    values = []
    for spec in space.features:
        if spec.kind == CATEGORICAL:
            values.append(rng.choice(spec.values))
        elif spec.kind == BOOLEAN:
            values.append(rng.random() < 0.5)
        else:
            values.append(round(rng.uniform(spec.lo, spec.hi), 3))
    return Instance(values=tuple(values))


def random_linear(rng: random.Random, m: int) -> tuple[LinearModel, FeatureSpace]:
    specs = []
    for fid in range(m):
        if rng.random() < 0.5:
            specs.append(FeatureSpec(fid=fid, name=f"x{fid}", kind=BOOLEAN))
        else:
            specs.append(FeatureSpec(fid=fid, name=f"x{fid}", kind=ORDINAL, lo=0.0, hi=1.0))
    space = FeatureSpace(features=tuple(specs))
    weights = tuple(round(rng.uniform(-2.0, 2.0), 4) for _ in range(m))
    bias = round(rng.uniform(-1.0, 1.0), 4)
    model = LinearModel(space=space, weights=weights, bias=bias)
    return model, space

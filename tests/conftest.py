"""Shared fixtures and the independent naive evaluators used as test oracles."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import settings

from ffax import formats
from ffax.model import (
    BooleanSplit,
    Leaf,
    LinearModel,
    MembershipSplit,
    ThresholdSplit,
    TreeEnsemble,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture(scope="session")
def adult_space():
    return formats.parse_feature_space((FIXTURES / "adult" / "feature_space.json").read_text())


@pytest.fixture(scope="session")
def adult_model(adult_space):
    return formats.parse_ensemble_dump(
        (FIXTURES / "adult" / "model.json").read_text(), adult_space
    )


@pytest.fixture(scope="session")
def adult_instance(adult_space):
    return formats.parse_instances(
        (FIXTURES / "adult" / "instances.csv").read_text(), adult_space
    )[0]


@pytest.fixture(scope="session")
def interop():
    """The trained 30-feature, 25-tree dump fixture: (model, instances)."""
    meta = json.loads((FIXTURES / "interop" / "meta.json").read_text())
    space = formats.parse_feature_space((FIXTURES / "interop" / "feature_space.json").read_text())
    model = formats.parse_ensemble_dump(
        (FIXTURES / "interop" / "model_dump.json").read_text(),
        space,
        class_names=tuple(meta["classes"]),
    )
    return model, formats.parse_instances((FIXTURES / "interop" / "points.csv").read_text(), space)


@pytest.fixture
def rng():
    return random.Random(20240901)


# --- independent naive evaluator (path enumeration, no shared tree-walk code) ---


def _paths(node, trail):
    if isinstance(node, Leaf):
        yield trail, node.weight
        return
    yield from _paths(node.yes, trail + [(node, True)])
    yield from _paths(node.no, trail + [(node, False)])


def _predicate_holds(node, values) -> bool:
    value = values[node.fid]
    if isinstance(node, ThresholdSplit):
        return float(value) <= node.threshold
    if isinstance(node, MembershipSplit):
        return value in node.values
    if isinstance(node, BooleanSplit):
        return bool(value)
    raise AssertionError(f"unknown split {node!r}")


def naive_scores(model: TreeEnsemble, values) -> list[float]:
    """Per-class scores by exhaustive path matching, one tree at a time."""
    scores = list(model.base_score)
    for tree in model.trees:
        matches = [
            weight
            for trail, weight in _paths(tree.root, [])
            if all(_predicate_holds(node, values) == taken for node, taken in trail)
        ]
        assert len(matches) == 1, "splits must partition the space"
        scores[tree.class_id] += matches[0]
    return scores


def naive_class(model: TreeEnsemble, values) -> int:
    scores = naive_scores(model, values)
    if model.single_score:
        return 1 if scores[1] >= 0.0 else 0
    best = max(scores)
    return min(c for c, s in enumerate(scores) if s == best)


def linear_corner_flip(model: LinearModel, v, c, fixed) -> bool:
    """Exhaustive corner check: does any completion change the class?"""
    from itertools import product

    free = [fid for fid in range(model.space.m) if fid not in fixed]
    corners = []
    for fid in free:
        spec = model.space[fid]
        corners.append([False, True] if spec.kind == "boolean" else [spec.lo, spec.hi])
    for combo in product(*corners):
        values = list(v.values)
        for fid, value in zip(free, combo):
            values[fid] = value
        s = model.score(values)
        if int(s >= 0.0) != c:
            return True
    return False

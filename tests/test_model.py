import math

import pytest
from hypothesis import given, strategies as st

from conftest import naive_scores
from ffax.errors import ValidationError
from ffax.model import (
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
    argmax_class,
    evaluate,
    validate_instance,
)
from ffax.synth import random_ensemble, random_instance, random_space


def test_worked_example_score_and_class(adult_model, adult_instance):
    pred = evaluate(adult_model, adult_instance)
    assert pred.scores[1] == pytest.approx(-0.4073, abs=1e-12)
    assert adult_model.class_names[pred.class_id] == "<50k"
    # the three leaves actually summed
    assert pred.scores[1] == pytest.approx(-0.1089 - 0.2404 - 0.0580, abs=1e-12)


def test_zero_weight_model_maps_to_class_one():
    space = FeatureSpace((FeatureSpec(0, "a", "boolean"),))
    tree = Tree(class_id=1, root=BooleanSplit(0, yes=Leaf(0.0), no=Leaf(0.0)))
    model = TreeEnsemble(space=space, class_names=("n", "y"), trees=(tree,))
    pred = evaluate(model, Instance((True,)))
    assert pred.scores[1] == 0.0
    assert pred.class_id == 1  # s = 0 counts as class 1 for single-score models


def test_evaluate_matches_naive_path_walk(rng):
    space = random_space(rng, 10, kinds=("boolean",))
    model = random_ensemble(rng, space, n_trees=6, depth=3)
    for _ in range(50):
        point = random_instance(rng, space)
        pred = evaluate(model, point)
        assert list(pred.scores) == naive_scores(model, point.values)


def test_evaluate_matches_naive_on_mixed_models(rng):
    for _ in range(20):
        space = random_space(rng, rng.randint(2, 6))
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 5), depth=2,
                                k=rng.choice((2, 3)))
        point = random_instance(rng, space)
        pred = evaluate(model, point)
        assert list(pred.scores) == naive_scores(model, point.values)


def test_argmax_tie_breaks_to_lowest_class():
    assert argmax_class((0.5, 0.5, 0.1)) == 0
    assert argmax_class((0.1, 0.7, 0.7)) == 1


def test_validate_instance_ok(adult_space, adult_instance):
    assert validate_instance(adult_space, adult_instance) == []


def test_validate_instance_out_of_interval(adult_space, adult_instance):
    bad = Instance(adult_instance.values[:5] + (-5.0,))
    violations = validate_instance(adult_space, bad)
    assert len(violations) == 1
    assert "Hours/w" in violations[0]


def test_validate_instance_unknown_category(adult_space, adult_instance):
    bad = Instance(("Masters",) + adult_instance.values[1:])
    violations = validate_instance(adult_space, bad)
    assert len(violations) == 1
    assert "Masters" in violations[0] and "Education" in violations[0]


def test_evaluate_rejects_invalid_point(adult_model, adult_instance):
    bad = Instance(adult_instance.values[:5] + (250.0,))
    with pytest.raises(ValidationError, match="Hours/w"):
        evaluate(adult_model, bad)


def test_evaluate_is_deterministic(adult_model, adult_instance):
    first = evaluate(adult_model, adult_instance)
    assert all(evaluate(adult_model, adult_instance) == first for _ in range(5))


def test_space_invariants_enforced():
    with pytest.raises(ValidationError):
        FeatureSpace((FeatureSpec(1, "a", "boolean"),))  # ids must start at 0
    with pytest.raises(ValidationError):
        FeatureSpace((FeatureSpec(0, "a", "boolean"), FeatureSpec(1, "a", "boolean")))
    with pytest.raises(ValidationError):
        FeatureSpec(0, "x", "ordinal", lo=2.0, hi=1.0)
    with pytest.raises(ValidationError):
        FeatureSpec(0, "x", "categorical", values=())


def test_ensemble_invariants_enforced():
    space = FeatureSpace((FeatureSpec(0, "a", "boolean"),))
    with pytest.raises(ValidationError, match="unknown feature id"):
        TreeEnsemble(space, ("n", "y"),
                     (Tree(1, BooleanSplit(3, Leaf(0.0), Leaf(1.0))),))
    with pytest.raises(ValidationError, match="non-boolean"):
        space2 = FeatureSpace((FeatureSpec(0, "a", "ordinal", lo=0, hi=1),))
        TreeEnsemble(space2, ("n", "y"),
                     (Tree(1, BooleanSplit(0, Leaf(0.0), Leaf(1.0))),))
    with pytest.raises(ValidationError, match="class id"):
        TreeEnsemble(space, ("n", "y"), (Tree(5, Leaf(0.0)),))
    shared = Leaf(1.0)
    cyclic = BooleanSplit(0, shared, shared)
    with pytest.raises(ValidationError, match="not a tree"):
        TreeEnsemble(space, ("n", "y"), (Tree(1, cyclic),))


def test_linear_model_score_and_link():
    space = FeatureSpace((
        FeatureSpec(0, "a", "ordinal", lo=0.0, hi=1.0),
        FeatureSpec(1, "b", "boolean"),
    ))
    model = LinearModel(space=space, weights=(1.0, 1.0), bias=-1.5)
    pred = evaluate(model, Instance((1.0, True)))
    assert pred.scores[1] == pytest.approx(0.5)
    assert pred.class_id == 1
    pred = evaluate(model, Instance((1.0, False)))
    assert pred.class_id == 0


def test_linear_model_rejects_categoricals():
    space = FeatureSpace((FeatureSpec(0, "c", "categorical", values=("x", "y")),))
    with pytest.raises(ValidationError, match="pre-encoded"):
        LinearModel(space=space, weights=(1.0,))


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
def test_argmax_class_is_an_argmax(scores):
    winner = argmax_class(tuple(scores))
    assert scores[winner] == max(scores)
    assert all(scores[c] < scores[winner] for c in range(winner))


def _one_split_ensemble(threshold=0.5, leaf=1.0, base=0.0, trees=1):
    space = FeatureSpace((FeatureSpec(0, "x", "ordinal", lo=0.0, hi=1.0),))
    root = ThresholdSplit(0, threshold, yes=Leaf(leaf), no=Leaf(-1.0))
    return TreeEnsemble(
        space=space,
        class_names=("n", "y"),
        trees=tuple(Tree(class_id=1, root=root) for _ in range(trees)),
        base_score=(0.0, base),
    )


def _linear(weight=1.0, bias=0.0, hi=1.0):
    space = FeatureSpace((FeatureSpec(0, "x", "ordinal", lo=0.0, hi=hi),))
    return LinearModel(space=space, weights=(weight,), bias=bias)


@pytest.mark.parametrize("build", [
    lambda: _one_split_ensemble(leaf=math.nan),
    lambda: _one_split_ensemble(leaf=math.inf),
    lambda: _one_split_ensemble(leaf=-math.inf),
    lambda: _one_split_ensemble(threshold=math.nan),
    lambda: _one_split_ensemble(threshold=-math.inf),
    lambda: _one_split_ensemble(base=math.nan),
    lambda: _one_split_ensemble(base=math.inf),
    lambda: _one_split_ensemble(leaf=1e308, trees=2),  # 1e308 + 1e308 overflows
    lambda: _linear(weight=math.nan),
    lambda: _linear(weight=-math.inf),
    lambda: _linear(bias=math.inf),
    lambda: _linear(bias=math.nan),
    lambda: _linear(weight=1e308, hi=10.0),  # 1e309 at the top of the domain
], ids=[
    "nan-leaf", "inf-leaf", "-inf-leaf", "nan-threshold", "-inf-threshold",
    "nan-base", "inf-base", "ensemble-overflow", "nan-weight", "-inf-weight",
    "inf-bias", "nan-bias", "linear-overflow",
])
def test_non_finite_model_values_rejected(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("lo, hi", [
    (-math.inf, math.inf), (-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0),
])
def test_non_finite_ordinal_bounds_rejected(lo, hi):
    # an unbounded ordinal would put oracle representatives at (lo + hi) / 2 = nan
    with pytest.raises(ValidationError, match="not finite"):
        FeatureSpec(0, "a", "ordinal", lo=lo, hi=hi)

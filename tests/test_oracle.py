import gc
import heapq
import math
import random
import weakref
from itertools import product
from bisect import bisect_left
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import linear_corner_flip, naive_class
from ffax import enumeration, oracle
from ffax.cells import CellSystem, class_grid
from ffax.enumeration import (
    Budget,
    _Clock,
    brute_force_all_xps,
    enumerate_explanations,
    extract_axp,
    extract_cxp,
)
from ffax.errors import CapabilityError, CapacityError, ContractError, ValidationError
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
    evaluate,
    validate_instance,
)
from ffax.oracle import (
    PartialAssignment,
    ScoreBounds,
    brute_force_decide,
    decide_sufficiency,
    find_counterexample,
    score_bounds,
)
from ffax.synth import random_ensemble, random_instance, random_linear, random_space


def conjunction_model():
    """Class 1 iff both boolean features hold."""
    space = FeatureSpace((FeatureSpec(0, "a", "boolean"), FeatureSpec(1, "b", "boolean")))
    root = BooleanSplit(0, yes=BooleanSplit(1, yes=Leaf(1.0), no=Leaf(-1.0)), no=Leaf(-1.0))
    return TreeEnsemble(space, ("f", "t"), (Tree(1, root),))


# --- cell system sanity -------------------------------------------------------


def test_cell_representatives_are_equivalent_to_their_points(rng):
    # kappa is constant per cell: any point scores like its cell representative
    for _ in range(25):
        space = random_space(rng, rng.randint(2, 5))
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 6), depth=3)
        cells = CellSystem(model)
        for _ in range(20):
            point = random_instance(rng, space)
            rep = Instance(values=cells.cell_point(cells.instance_cells(point)))
            assert evaluate(model, point).scores == evaluate(model, rep).scores


def test_cell_representatives_lie_in_their_cells(adult_model):
    cells = CellSystem(adult_model)
    fid = 5  # Hours/w with thresholds at 40 and 45
    assert cells.boundaries[fid] == (40.0, 45.0)
    reps = cells.reps[fid]
    assert len(reps) == 3
    assert 0.0 <= reps[0] <= 40.0 < reps[1] <= 45.0 < reps[2] <= 99.0
    assert cells.cell_of(fid, 40.0) == 0
    assert cells.cell_of(fid, 40.0000001) == 1
    assert cells.cell_of(fid, 45.0) == 1
    assert cells.cell_of(fid, 99.0) == 2


@st.composite
def grid_models(draw):
    """A tree ensemble (k = 2 or 3) over ordinal, categorical and boolean features."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    space = random_space(rng, draw(st.integers(1, 5)))
    return random_ensemble(
        rng, space, n_trees=rng.randint(1, 6), depth=rng.randint(1, 3),
        k=draw(st.sampled_from((2, 3))),
    )


@given(grid_models())
def test_class_grid_matches_evaluate_at_every_cell(model):
    # class_grid walks the compiled trees, the same ones the branch and bound
    # walks; evaluate walks the model's own, so a compile error shows up here
    cells = CellSystem(model)
    grid = class_grid(cells, {})
    for index in product(*map(range, cells.sizes)):
        assert grid[index] == evaluate(model, Instance(values=cells.cell_point(index))).class_id


# --- decide_sufficiency -------------------------------------------------------


def test_education_and_hours_suffice(adult_model, adult_instance):
    result = decide_sufficiency(adult_model, adult_instance, 0, {0, 5})
    assert result.sufficient and result.witness is None
    bounds = score_bounds(
        adult_model, PartialAssignment(instance=adult_instance, fixed=frozenset({0, 5}))
    )
    assert bounds.hi == pytest.approx(0.0770 - 0.0200 - 0.0580, abs=1e-12)
    assert bounds.hi == pytest.approx(-0.0010, abs=1e-9)


def test_everything_fixed_is_sufficient(adult_model, adult_instance):
    result = decide_sufficiency(adult_model, adult_instance, 0, set(range(6)))
    assert result.sufficient


def test_education_alone_insufficient_with_sound_witness(adult_model, adult_instance):
    result = decide_sufficiency(adult_model, adult_instance, 0, {0})
    assert not result.sufficient
    w = result.witness
    assert w.values[0] == adult_instance.values[0]  # agrees on the fixed feature
    pred = evaluate(adult_model, w)
    assert pred.class_id == 1 and pred.scores[1] >= 0.0


def test_predicted_class_precondition(adult_model, adult_instance):
    with pytest.raises(ContractError, match="predicted class"):
        decide_sufficiency(adult_model, adult_instance, 1, {0, 5})


# --- find_counterexample ------------------------------------------------------


def test_no_free_features_means_no_counterexample(adult_model, adult_instance):
    assert find_counterexample(adult_model, adult_instance, 0, set()) is None


def test_freeing_education_flips_via_doctorate(adult_model, adult_instance):
    w = find_counterexample(adult_model, adult_instance, 0, {0})
    assert w is not None
    assert w.values[1:] == adult_instance.values[1:]  # only Education moved
    assert w.values[0] == "Doctorate"
    assert evaluate(adult_model, w).scores[1] == pytest.approx(
        -0.1089 - 0.2404 + 0.3890, abs=1e-12
    )


def test_conjunction_counterexample():
    model = conjunction_model()
    v = Instance((True, True))
    w = find_counterexample(model, v, 1, {0})
    assert w is not None
    assert (bool(w.values[0]), bool(w.values[1])) == (False, True)


@st.composite
def counterexample_queries(draw):
    """A tree ensemble (k = 2 or 3) or linear model, an instance, a free set."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 7))
    if draw(st.booleans()):
        model, space = random_linear(rng, m)
    else:
        space = random_space(rng, m)
        model = random_ensemble(
            rng, space, n_trees=rng.randint(1, 6), depth=rng.randint(1, 3),
            k=draw(st.sampled_from((2, 3))),
        )
    return model, random_instance(rng, space), draw(st.frozensets(st.integers(0, m - 1)))


@given(counterexample_queries())
def test_every_witness_flips_and_agrees_with_the_instance_outside_free(query):
    model, v, free = query
    c = evaluate(model, v).class_id
    w = find_counterexample(model, v, c, free)
    if w is None:
        return
    assert validate_instance(model.space, w) == []
    if isinstance(model, LinearModel):
        assert evaluate(model, w).class_id != c
    else:
        assert naive_class(model, w.values) != c
    assert all(w.values[fid] == v.values[fid] for fid in range(model.space.m) if fid not in free)
    if isinstance(model, TreeEnsemble):  # a free feature left in v's cell keeps v's value
        cells = CellSystem(model)
        for fid in free:
            if cells.cell_of(fid, w.values[fid]) == cells.cell_of(fid, v.values[fid]):
                assert w.values[fid] == v.values[fid]


def test_free_feature_no_tree_reads_keeps_the_instance_value():
    # Only feature 0 is read. Features 1 and 2 are free but irrelevant, so the
    # witness keeps v's 7.25 and "blue" instead of the cell representatives
    # 5.0 and "red".
    space = FeatureSpace((
        FeatureSpec(0, "a", "boolean"),
        FeatureSpec(1, "x", "ordinal", lo=0.0, hi=10.0),
        FeatureSpec(2, "colour", "categorical", values=("red", "blue")),
    ))
    tree = Tree(1, BooleanSplit(0, yes=Leaf(1.0), no=Leaf(-1.0)))
    model = TreeEnsemble(space, ("f", "t"), (tree,))
    v = Instance((True, 7.25, "blue"))
    assert CellSystem(model).reps[1:] == ((5.0,), ("red", "blue"))
    assert find_counterexample(model, v, 1, {0, 1, 2}) == Instance((False, 7.25, "blue"))


def test_boxes_of_alternating_instances_match_cell_of(rng):
    # The oracle keeps the cell masks of the last instance it saw; queries
    # that alternate two instances must each get the box of their own.
    for _ in range(30):
        m = rng.randint(2, 8)
        space = random_space(rng, m)
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 6), depth=rng.randint(1, 4))
        compiled = oracle._TreeOracle(model)
        cells = compiled.cells
        points = [random_instance(rng, space) for _ in range(2)]
        for step in range(8):
            v = points[step % 2]
            fixed = {fid for fid in range(m) if rng.random() < 0.5}
            expected = tuple(
                1 << cells.cell_of(fid, v.values[fid]) if fid in fixed else (1 << size) - 1
                for fid, size in enumerate(cells.sizes)
            )
            assert compiled.root(v, fixed)[0] == expected
            c = evaluate(model, v).class_id
            witness = compiled.find_class_change(v, c, fixed)
            if witness is not None:
                assert all(witness.values[fid] == v.values[fid] for fid in fixed)
                assert evaluate(model, witness).class_id != c


# --- score_bounds -------------------------------------------------------------


def test_bounds_all_free_match_exhaustive_enumeration(adult_model, adult_instance):
    from itertools import product

    cells = CellSystem(adult_model)
    pa = PartialAssignment(instance=adult_instance, fixed=frozenset())
    bounds = score_bounds(adult_model, pa)
    scores = []
    for combo in product(*(range(n) for n in cells.sizes)):
        point = Instance(values=cells.cell_point(combo))
        scores.append(evaluate(adult_model, point).scores[1])
    assert bounds.hi == max(scores)
    assert bounds.lo == min(scores)


def test_bounds_all_fixed_equals_prediction(adult_model, adult_instance):
    pa = PartialAssignment(instance=adult_instance, fixed=frozenset(range(6)))
    bounds = score_bounds(adult_model, pa)
    assert bounds.lo == bounds.hi == pytest.approx(-0.4073, abs=1e-12)


@pytest.mark.parametrize("fixed", [frozenset({0}), frozenset({1})])
def test_bounds_refuse_a_value_outside_its_domain(fixed):
    # "green" is outside colour's domain, whether colour is free or fixed
    space = FeatureSpace((
        FeatureSpec(0, "a", "boolean"),
        FeatureSpec(1, "colour", "categorical", values=("red", "blue")),
    ))
    root = MembershipSplit(1, frozenset({"red"}), yes=Leaf(1.0), no=Leaf(0.5))
    model = TreeEnsemble(space, ("f", "t"), (Tree(1, root),))
    with pytest.raises(ValidationError, match="outside declared domain"):
        score_bounds(model, PartialAssignment(Instance((True, "green")), fixed))


def test_bounds_single_boolean_split():
    space = FeatureSpace((FeatureSpec(0, "a", "boolean"),))
    model = TreeEnsemble(
        space, ("n", "y"), (Tree(1, BooleanSplit(0, yes=Leaf(0.7), no=Leaf(-0.2))),)
    )
    pa = PartialAssignment(instance=Instance((True,)), fixed=frozenset())
    assert score_bounds(model, pa) == ScoreBounds(lo=-0.2, hi=0.7)


def test_bounds_multiclass_pairwise(rng):
    space = random_space(rng, 4)
    model = random_ensemble(rng, space, n_trees=6, depth=2, k=3)
    v = random_instance(rng, space)
    cells = CellSystem(model)
    from itertools import product

    pa = PartialAssignment(instance=v, fixed=frozenset({0}))
    fixed_cell = cells.cell_of(0, v.values[0])
    for plus, minus in ((1, 0), (2, 1)):
        bounds = score_bounds(model, pa, pair=(plus, minus))
        diffs = []
        for combo in product(*(range(n) for n in cells.sizes)):
            if combo[0] != fixed_cell:
                continue
            values = list(cells.cell_point(combo))
            values[0] = v.values[0]
            s = evaluate(model, Instance(tuple(values))).scores
            diffs.append(s[plus] - s[minus])
        assert bounds.hi == max(diffs)
        assert bounds.lo == min(diffs)


@pytest.mark.parametrize("pair", [(5, 0), (-1, 0), (0, None), (True, 0), (1, 1)])
def test_bounds_refuse_a_bad_pair(interop, pair):
    model, points = interop
    with pytest.raises(ContractError, match="two distinct class ids in 0..1"):
        score_bounds(model, PartialAssignment(points[0], frozenset()), pair=pair)


def test_one_sided_bounds_are_the_sides_of_the_two_sided(rng):
    space = random_space(rng, 5)
    model = random_ensemble(rng, space, n_trees=8, depth=3, k=3)
    v = random_instance(rng, space)
    for fixed in (frozenset(), frozenset({0, 2})):
        pa = PartialAssignment(v, fixed)
        for pair in ((1, 0), (0, 2)):
            both = score_bounds(model, pa, pair=pair)
            assert score_bounds(model, pa, pair=pair, _side="hi") == ScoreBounds(-math.inf, both.hi)
            assert score_bounds(model, pa, pair=pair, _side="lo") == ScoreBounds(both.lo, math.inf)


# --- brute force and agreement fuzz ---------------------------------------------


def test_brute_force_trivial_cases(adult_model, adult_instance):
    assert brute_force_decide(adult_model, adult_instance, 0, set(range(6))).sufficient
    model = conjunction_model()
    v = Instance((True, True))
    result = brute_force_decide(model, v, 1, {0})
    assert not result.sufficient


def test_brute_force_capacity_error(rng):
    space = random_space(rng, 30, kinds=("boolean",))
    model = random_ensemble(rng, space, n_trees=1, depth=1)
    v = random_instance(rng, space)
    c = evaluate(model, v).class_id
    with pytest.raises(CapacityError) as err:
        brute_force_decide(model, v, c, set())
    assert err.value.size == 2**30


TREE_ONLY = {
    "score_bounds": lambda model, v, c: score_bounds(model, PartialAssignment(v, frozenset())),
    "brute_force_decide": lambda model, v, c: brute_force_decide(model, v, c, set()),
    "brute_force_all_xps": brute_force_all_xps,
}


@pytest.mark.parametrize("entry", sorted(TREE_ONLY))
def test_tree_only_operations_reject_linear_models(rng, entry):
    # m = 21 is past brute_force_all_xps's subset cap: the model kind is still decided first
    for m in (3, 21):
        model, _ = random_linear(rng, m)
        v = Instance((1.0,) * m)  # in every boolean and [0, 1] ordinal domain
        with pytest.raises(CapabilityError):
            TREE_ONLY[entry](model, v, evaluate(model, v).class_id)


def test_decide_agrees_with_brute_force_on_fixture(adult_model, adult_instance):
    from itertools import combinations

    for size in range(7):
        for subset in combinations(range(6), size):
            fast = decide_sufficiency(adult_model, adult_instance, 0, set(subset))
            slow = brute_force_decide(adult_model, adult_instance, 0, set(subset))
            assert fast.sufficient == slow.sufficient, subset


def test_decide_agrees_with_brute_force_fuzz(rng):
    for trial in range(60):
        m = rng.randint(2, 8)
        space = random_space(rng, m)
        model = random_ensemble(
            rng, space, n_trees=rng.randint(1, 6), depth=rng.randint(1, 3),
            k=rng.choice((2, 2, 3)),
        )
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        for _ in range(6):
            subset = {fid for fid in range(m) if rng.random() < 0.5}
            fast = decide_sufficiency(model, v, c, subset)
            slow = brute_force_decide(model, v, c, subset)
            assert fast.sufficient == slow.sufficient
            if not fast.sufficient:
                w = fast.witness
                assert all(w.values[f] == v.values[f] for f in subset)
                assert naive_class(model, w.values) != c


def test_sufficiency_is_monotone(rng):
    for _ in range(30):
        m = rng.randint(2, 7)
        space = random_space(rng, m)
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 5), depth=2)
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        small = {fid for fid in range(m) if rng.random() < 0.4}
        grow = small | {fid for fid in range(m) if rng.random() < 0.5}
        if decide_sufficiency(model, v, c, small).sufficient:
            assert decide_sufficiency(model, v, c, grow).sufficient


# --- linear oracle ---------------------------------------------------------------


def linear_unit_square():
    space = FeatureSpace((
        FeatureSpec(0, "x0", "ordinal", lo=0.0, hi=1.0),
        FeatureSpec(1, "x1", "ordinal", lo=0.0, hi=1.0),
    ))
    from ffax.model import LinearModel

    return LinearModel(space=space, weights=(1.0, 1.0), bias=-1.5)


def test_linear_worst_case_endpoint():
    model = linear_unit_square()
    v = Instance((1.0, 1.0))
    assert evaluate(model, v).class_id == 1
    result = decide_sufficiency(model, v, 1, {0})
    assert not result.sufficient
    assert result.witness.values == (1.0, 0.0)
    assert evaluate(model, result.witness).class_id == 0


def test_linear_fully_fixed_sufficient():
    model = linear_unit_square()
    v = Instance((1.0, 1.0))
    assert decide_sufficiency(model, v, 1, {0, 1}).sufficient


def test_linear_agrees_with_corner_enumeration(rng):
    for _ in range(120):
        model, space = random_linear(rng, rng.randint(1, 8))
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        fixed = {fid for fid in range(space.m) if rng.random() < 0.5}
        result = decide_sufficiency(model, v, c, fixed)
        assert result.sufficient == (not linear_corner_flip(model, v, c, fixed))
        if not result.sufficient:
            w = result.witness
            assert all(w.values[f] == v.values[f] for f in fixed)
            assert evaluate(model, w).class_id != c


def test_generic_ops_dispatch_to_linear():
    model = linear_unit_square()
    v = Instance((1.0, 1.0))
    assert not decide_sufficiency(model, v, 1, {0}).sufficient
    assert find_counterexample(model, v, 1, {1}) is not None


def test_unsupported_model_kind():
    with pytest.raises(CapabilityError):
        find_counterexample(object(), Instance((1,)), 0, set())


# --- feature ids outside the model ----------------------------------------------------


ENTRY_POINTS = {
    "decide_sufficiency": lambda model, v, fids: decide_sufficiency(model, v, 0, fids),
    "find_counterexample": lambda model, v, fids: find_counterexample(model, v, 0, fids),
    "score_bounds": lambda model, v, fids: score_bounds(
        model, PartialAssignment(v, frozenset(fids))
    ),
    "brute_force_decide": lambda model, v, fids: brute_force_decide(model, v, 0, fids),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("fids", [{99}, {-1}, {0, 6}])
def test_entry_points_reject_out_of_range_feature_ids(adult_model, adult_instance, entry, fids):
    with pytest.raises(ContractError, match="outside feature universe"):
        ENTRY_POINTS[entry](adult_model, adult_instance, fids)


def test_linear_entry_points_reject_out_of_range_feature_ids():
    model = linear_unit_square()
    v = Instance((1.0, 1.0))
    with pytest.raises(ContractError, match="outside feature universe"):
        decide_sufficiency(model, v, 1, {0, 2})
    with pytest.raises(ContractError, match="outside feature universe"):
        find_counterexample(model, v, 1, {-1})


# --- inputs every public operation refuses -------------------------------------------


# Each operation gets (model, v, c, fids): fids is every feature id, or one
# more for the bad-feature case. Enumeration takes feature ids only as its
# scan order; brute_force_all_xps takes none.
PUBLIC_OPERATIONS = {
    "find_counterexample": lambda model, v, c, fids: find_counterexample(model, v, c, fids),
    "decide_sufficiency": lambda model, v, c, fids: decide_sufficiency(model, v, c, fids),
    "brute_force_decide": lambda model, v, c, fids: brute_force_decide(model, v, c, fids),
    "enumerate_explanations": lambda model, v, c, fids: enumerate_explanations(
        model, v, c, order=tuple(fids)
    ),
    "extract_axp": lambda model, v, c, fids: extract_axp(model, v, c, fids),
    "extract_cxp": lambda model, v, c, fids: extract_cxp(model, v, c, fids),
    "brute_force_all_xps": lambda model, v, c, fids: brute_force_all_xps(model, v, c),
}

# bad input -> (its error, the message it matches)
BAD_INPUTS = {
    "wrong-class": (ContractError, "predicted class 1, not 0"),
    "categorical-outside-domain": (ValidationError, "'x2': value 'purple' outside declared domain"),
    "ordinal-outside-domain": (ValidationError, "'x0': value 1000000000.0 outside declared domain"),
    "feature-id-m": (ContractError, "outside feature universe 0..4|permutation of the feature ids 0..4"),
}


@pytest.mark.parametrize("operation, bad", [
    (operation, bad) for operation in sorted(PUBLIC_OPERATIONS) for bad in sorted(BAD_INPUTS)
    if (operation, bad) != ("brute_force_all_xps", "feature-id-m")
])
def test_public_operations_refuse_bad_inputs(operation, bad):
    # Seed 0 draws x0 ordinal on [0, 10], x2 categorical over red/green/blue,
    # and a point predicted class 1.
    rng = random.Random(0)
    space = random_space(rng, 5)
    model = random_ensemble(rng, space, 6)
    v = random_instance(rng, space)
    assert evaluate(model, v).class_id == 1
    c, fids = 1, range(5)
    if bad == "wrong-class":
        c = 0
    elif bad == "categorical-outside-domain":
        v = Instance(v.values[:2] + ("purple",) + v.values[3:])
    elif bad == "ordinal-outside-domain":
        v = Instance((1e9,) + v.values[1:])
    else:
        fids = range(6)
    error, message = BAD_INPUTS[bad]
    with pytest.raises(error, match=message):
        PUBLIC_OPERATIONS[operation](model, v, c, fids)


# --- tie boundaries of the early stop ------------------------------------------------


def _two_booleans():
    return FeatureSpace((FeatureSpec(0, "a", "boolean"), FeatureSpec(1, "b", "boolean")))


def _agrees_with_brute_force(model, v, c, subset):
    fast = decide_sufficiency(model, v, c, subset)
    slow = brute_force_decide(model, v, c, subset)
    assert fast.sufficient == slow.sufficient
    if not fast.sufficient:
        assert naive_class(model, fast.witness.values) != c
    return fast


def test_class_0_flips_on_a_best_completion_of_exactly_zero():
    # best completion (a, b) = (1, 1): 0.25 + -0.25 = 0.0, which is class 1
    space = _two_booleans()
    model = TreeEnsemble(space, ("n", "y"), (
        Tree(1, BooleanSplit(0, yes=Leaf(0.25), no=Leaf(-0.5))),
        Tree(1, BooleanSplit(1, yes=Leaf(-0.25), no=Leaf(-0.75))),
    ))
    v = Instance((False, False))
    assert evaluate(model, v).class_id == 0
    result = _agrees_with_brute_force(model, v, 0, set())
    assert not result.sufficient
    assert evaluate(model, result.witness).scores[1] == 0.0


def test_class_1_stays_on_a_worst_completion_of_exactly_zero():
    # worst completion (a, b) = (0, 0): -0.25 + 0.25 = 0.0, still class 1
    space = _two_booleans()
    model = TreeEnsemble(space, ("n", "y"), (
        Tree(1, BooleanSplit(0, yes=Leaf(0.5), no=Leaf(-0.25))),
        Tree(1, BooleanSplit(1, yes=Leaf(0.75), no=Leaf(0.25))),
    ))
    v = Instance((True, True))
    assert evaluate(model, v).class_id == 1
    assert min(
        naive_class(model, (a, b)) for a in (False, True) for b in (False, True)
    ) == 1
    assert _agrees_with_brute_force(model, v, 1, set()).sufficient


@pytest.mark.parametrize("rival, flips", [(2, False), (0, True)])
def test_multiclass_tie_goes_to_the_lower_class_id(rival, flips):
    # Class 1 scores 1.0 throughout; the rival reaches exactly 1.0 when a holds.
    space = _two_booleans()
    trees = [Tree(1, BooleanSplit(1, yes=Leaf(1.0), no=Leaf(1.0)))]
    trees.append(Tree(rival, BooleanSplit(0, yes=Leaf(1.0), no=Leaf(0.0))))
    model = TreeEnsemble(space, ("c0", "c1", "c2"), tuple(trees))
    v = Instance((False, True))
    assert evaluate(model, v).class_id == 1
    result = _agrees_with_brute_force(model, v, 1, {1})
    assert result.sufficient == (not flips)
    if flips:
        assert evaluate(model, result.witness).class_id == rival


# --- incremental branch and bound against the full-recompute search ------------------


def _reference_compile(cells, node):
    """A tree in the set-based compiled form: ("leaf", w), ("ord", fid, p, yes, no)
    with yes iff cell <= p, or ("set", fid, idx, yes, no) with yes iff the
    value's cell is in the frozenset ``idx``. Only the cell partition comes
    from ``cells``.
    """
    if isinstance(node, Leaf):
        return ("leaf", node.weight)
    yes = _reference_compile(cells, node.yes)
    no = _reference_compile(cells, node.no)
    spec = cells.model.space[node.fid]
    if isinstance(node, ThresholdSplit):
        if node.threshold >= spec.hi:
            return yes
        if node.threshold < spec.lo:
            return no
        return ("ord", node.fid, bisect_left(cells.boundaries[node.fid], node.threshold), yes, no)
    if isinstance(node, MembershipSplit):
        idx = frozenset(i for i, value in enumerate(spec.values) if value in node.values)
        if not idx:
            return no
        if len(idx) == len(spec.values):
            return yes
        return ("set", node.fid, idx, yes, no)
    return ("set", node.fid, frozenset((1,)), yes, no)


def _reference_objective(model, pos, neg):
    """The objective's trees in the set-based form, and its base scores."""
    cells = CellSystem(model)
    trees = [(tree.class_id, _reference_compile(cells, tree.root)) for tree in model.trees]
    return SimpleNamespace(
        neg=neg,
        pos_base=model.base_score[pos] if pos is not None else 0.0,
        neg_base=model.base_score[neg] if neg is not None else 0.0,
        pos_trees=tuple(root for cid, root in trees if cid == pos),
        neg_trees=tuple(root for cid, root in trees if cid == neg),
    )


def _reference_box_for(cells, v, fixed):
    """An ordinal domain is a cell range (a, b), any other a frozenset of cells."""
    box = []
    for fid, size in enumerate(cells.sizes):
        ordinal = cells.kinds[fid] == "ordinal"
        if fid in fixed:
            i = cells.cell_of(fid, v.values[fid])
            box.append((i, i) if ordinal else frozenset((i,)))
        else:
            box.append((0, size - 1) if ordinal else frozenset(range(size)))
    return tuple(box)


def _as_masks(box):
    """Each domain of ``box`` as a cell bitmask; a domain already a mask is kept."""
    masks = []
    for dom in box:
        if isinstance(dom, tuple):
            masks.append((1 << dom[1] + 1) - (1 << dom[0]))
        elif isinstance(dom, frozenset):
            masks.append(sum(1 << cell for cell in dom))
        else:
            masks.append(dom)
    return tuple(masks)


def _reference_tree_range(node, box):
    """(min leaf, max leaf, ambiguous features) reachable under box."""
    tag = node[0]
    if tag == "leaf":
        return node[1], node[1], None
    if tag == "ord":
        _, fid, p, yes, no = node
        a, b = box[fid]
        if b <= p:
            return _reference_tree_range(yes, box)
        if a > p:
            return _reference_tree_range(no, box)
    else:
        _, fid, idx, yes, no = node
        allowed = box[fid]
        if allowed <= idx:
            return _reference_tree_range(yes, box)
        if allowed.isdisjoint(idx):
            return _reference_tree_range(no, box)
    lo_y, hi_y, amb_y = _reference_tree_range(yes, box)
    lo_n, hi_n, amb_n = _reference_tree_range(no, box)
    amb = {fid}
    if amb_y:
        amb |= amb_y
    if amb_n:
        amb |= amb_n
    return min(lo_y, lo_n), max(hi_y, hi_n), amb


def _reference_analyze(obj, box):
    """The bound, the floor and the gaps of ``box``.

    The bound adds the positive trees' max leaves and the negative trees'
    min leaves, the floor the other extremes, each per class in tree order.
    """
    gaps = {}
    pos_hi = pos_lo = obj.pos_base
    for root in obj.pos_trees:
        lo, hi, amb = _reference_tree_range(root, box)
        pos_hi = pos_hi + hi
        pos_lo = pos_lo + lo
        if amb:
            for fid in amb:
                gaps[fid] = gaps.get(fid, 0.0) + (hi - lo)
    neg_lo = neg_hi = obj.neg_base
    for root in obj.neg_trees:
        lo, hi, amb = _reference_tree_range(root, box)
        neg_lo = neg_lo + lo
        neg_hi = neg_hi + hi
        if amb:
            for fid in amb:
                gaps[fid] = gaps.get(fid, 0.0) + (hi - lo)
    if obj.neg is None:
        return pos_hi, pos_lo, gaps
    return pos_hi - neg_lo, pos_lo - neg_hi, gaps


def _reference_first_ambiguous_test(obj, box, fid):
    for root in obj.pos_trees + obj.neg_trees:
        stack = [root]
        while stack:
            node = stack.pop()
            tag = node[0]
            if tag == "leaf":
                continue
            if tag == "ord":
                _, nfid, p, yes, no = node
                a, b = box[nfid]
                yes_ok, no_ok = a <= p, b > p
                if nfid == fid and yes_ok and no_ok:
                    return ("ord", p)
            else:
                _, nfid, idx, yes, no = node
                allowed = box[nfid]
                yes_ok, no_ok = bool(allowed & idx), not allowed <= idx
                if nfid == fid and yes_ok and no_ok:
                    return ("set", idx)
            if no_ok:
                stack.append(no)
            if yes_ok:
                stack.append(yes)
    raise AssertionError("no ambiguous test found for branch feature")


def _reference_split_box(box, fid, test):
    if test[0] == "ord":
        a, b = box[fid]
        p = test[1]
        lo_box = list(box)
        hi_box = list(box)
        lo_box[fid] = (a, p)
        hi_box[fid] = (p + 1, b)
        return tuple(lo_box), tuple(hi_box)
    allowed = box[fid]
    in_box = list(box)
    out_box = list(box)
    in_box[fid] = allowed & test[1]
    out_box[fid] = allowed - test[1]
    return tuple(in_box), tuple(out_box)


def _reference_maximize(obj, box, fail_below=None, strict=False, pops=None):
    """The search before per-tree range reuse: every node re-walks every tree.

    It shares no code with ``oracle``: the compiled trees, the boxes, the
    tree walk, the branching test and the split are frozen copies of the
    set-based originals over the same cell partition. With ``fail_below``
    set it follows the threshold rule: the root, or else the first child
    whose floor reaches the target, is returned as soon as it is made,
    boxes pop by bound plus floor, and a box whose bound cannot reach the
    target is dropped.
    """

    def reaches(x):
        return x > fail_below if strict else x >= fail_below

    def key(bound, floor):
        return -bound if fail_below is None else -(bound + floor)

    bound, floor, gaps = _reference_analyze(obj, box)
    if fail_below is not None:
        if reaches(floor):
            return floor, box
        if not reaches(bound):
            return None, None
    heap = [(key(bound, floor), 0, box, bound, gaps)]
    seq = 1
    while heap:
        _, _, cur, bound, gaps = heapq.heappop(heap)
        if pops is not None:
            pops.append(cur)
        if not gaps:
            return bound, cur
        fid = max(gaps, key=lambda f: (gaps[f], -f))
        children = _reference_split_box(cur, fid, _reference_first_ambiguous_test(obj, cur, fid))
        for child in children:
            cbound, cfloor, cgaps = _reference_analyze(obj, child)
            if fail_below is not None:
                if reaches(cfloor):
                    return cfloor, child
                if not reaches(cbound):
                    continue
            heapq.heappush(heap, (key(cbound, cfloor), seq, child, cbound, cgaps))
            seq += 1
    if fail_below is None:
        raise AssertionError("search exhausted without a determined box")
    return None, None


def _recording_heapq(pops):
    """A stand-in for the oracle's heapq that records each popped box."""
    def heappop(heap):
        entry = heapq.heappop(heap)
        pops.append(entry[2])
        return entry

    return SimpleNamespace(heappush=heapq.heappush, heappop=heappop)


def _bit_exact(result):
    bound, box = result
    return (None if bound is None else bound.hex(), None if box is None else _as_masks(box))


def _reaches(x, fail_below, strict):
    return x > fail_below if strict else x >= fail_below


def _target(fail_below, strict):
    """``_maximize``'s target for a search that reaches ``fail_below`` (strictly if ``strict``)."""
    if fail_below is None or not strict:
        return fail_below
    return math.nextafter(fail_below, math.inf)


def _box_objectives(model, cells, box, pos, neg):
    """The objective at every cell representative of ``box``, under evaluate."""
    cell_lists = [[i for i in range(size) if dom >> i & 1] for dom, size in zip(box, cells.sizes)]
    for indices in product(*cell_lists):
        scores = evaluate(model, Instance(cells.cell_point(indices))).scores
        pos_score = scores[pos] if pos is not None else 0.0
        yield pos_score - scores[neg] if neg is not None else pos_score


def _random_searches(rng):
    """Random searches over random ensembles: ``(model, cells, compiled, v,
    pos, neg, fixed, fail_below, strict)``, with ``fail_below`` None for a
    search with no threshold."""
    for _ in range(400):
        m = rng.randint(2, 9)
        space = random_space(rng, m)
        k = rng.choice((2, 2, 3))
        model = random_ensemble(
            rng, space, n_trees=rng.randint(1, 9), depth=rng.randint(1, 4), k=k
        )
        v = random_instance(rng, space)
        compiled = oracle._tree_oracle(model)
        cells = CellSystem(model)
        if model.single_score:
            pairs = [(1, None), (None, 1)]
        else:
            pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
        for pos, neg in pairs:
            fixed = {fid for fid in range(m) if rng.random() < 0.4}
            fail_below = rng.choice((None, 0.0, 0.0, round(rng.uniform(-1.5, 1.5), 2)))
            strict = rng.random() < 0.5
            yield model, cells, compiled, v, pos, neg, fixed, fail_below, strict


def test_incremental_search_matches_full_recompute(rng, monkeypatch):
    # Every search must match the frozen reference bit for bit, result and
    # pops. With no threshold the reference is the best-bound search; with
    # one, it pops by bound plus floor and returns the root or the first
    # child whose floor reaches the target as soon as it is made.
    searches = branched = made = 0
    for model, cells, compiled, v, pos, neg, fixed, fail_below, strict in _random_searches(rng):
        expected_pops, pops = [], []
        box, keep = compiled.root(v, fixed)
        expected = _reference_maximize(
            _reference_objective(model, pos, neg), _reference_box_for(cells, v, fixed),
            fail_below, strict, expected_pops,
        )
        monkeypatch.setattr(oracle, "heapq", _recording_heapq(pops))
        got = oracle._maximize(compiled.objective(pos, neg), box, keep, _target(fail_below, strict))
        monkeypatch.undo()
        assert _bit_exact(got) == _bit_exact(expected)
        assert [_as_masks(b) for b in pops] == [_as_masks(b) for b in expected_pops]
        searches += 1
        branched += len(pops) > 1
        made += fail_below is not None and got[1] is not None and got[1] != box
    assert searches > 1000 and branched > 500 and made > 300, (searches, branched, made)


class _AnyOrderHeap:
    """A stand-in for the oracle's heapq that pops a random entry."""

    def __init__(self, rng):
        self.rng = rng

    def heappush(self, heap, entry):
        heap.append(entry)

    def heappop(self, heap):
        return heap.pop(self.rng.randrange(len(heap)))


def test_threshold_search_is_exact_in_any_pop_order(rng, monkeypatch):
    # Whatever order boxes pop in, a threshold search returns a box exactly
    # when the maximum reaches the target, every point of that box reaches
    # it, and the returned floor is at most the box's least objective. Each
    # search runs with the heap and again with random pops.
    found = missed = 0
    order = random.Random(7)
    for model, cells, compiled, v, pos, neg, fixed, fail_below, strict in _random_searches(rng):
        if fail_below is None:
            continue
        obj, (box, keep) = compiled.objective(pos, neg), compiled.root(v, fixed)
        best, _ = oracle._maximize(obj, box, keep)
        for heap in (heapq, _AnyOrderHeap(order)):
            monkeypatch.setattr(oracle, "heapq", heap)
            floor, wbox = oracle._maximize(obj, box, keep, _target(fail_below, strict))
            monkeypatch.undo()
            assert (wbox is not None) == _reaches(best, fail_below, strict)
            if wbox is None:
                missed += 1
                continue
            assert all(dom & ~outer == 0 for dom, outer in zip(wbox, box))
            values = list(_box_objectives(model, cells, wbox, pos, neg))
            assert all(_reaches(x, fail_below, strict) for x in values)
            assert _reaches(floor, fail_below, strict) and floor <= min(values)
            found += 1
    assert found > 1000 and missed > 300, (found, missed)


def test_equal_gaps_split_the_lower_feature_id_first(monkeypatch):
    # Both trees leave a gap of 1.0 open; the first in tree order reads
    # feature 1, yet feature 0 must be split first.
    space = _two_booleans()
    model = TreeEnsemble(space, ("n", "y"), (
        Tree(1, BooleanSplit(1, yes=Leaf(1.0), no=Leaf(0.0))),
        Tree(1, BooleanSplit(0, yes=Leaf(1.0), no=Leaf(0.0))),
    ))
    compiled = oracle._tree_oracle(model)
    split_fids = []
    split_box = oracle._split_box

    def recording(box, node):
        split_fids.append(node[1])
        return split_box(box, node)

    monkeypatch.setattr(oracle, "_split_box", recording)
    box, keep = compiled.root(Instance((False, False)), ())
    assert oracle._maximize(compiled.objective(1, None), box, keep) == (2.0, (0b10, 0b10))
    assert split_fids == [0, 1]


SPLIT_KINDS = {
    # cells 0..3 of x, cut by the root test "x <= 5" after cell 1
    "ordinal": (
        FeatureSpec(0, "x", "ordinal", lo=0.0, hi=10.0),
        ThresholdSplit(0, 5.0, yes=ThresholdSplit(0, 2.0, yes=Leaf(0.1), no=Leaf(0.2)),
                       no=ThresholdSplit(0, 8.0, yes=Leaf(0.3), no=Leaf(0.4))),
    ),
    "membership": (
        FeatureSpec(0, "colour", "categorical", values=("a", "b", "c", "d")),
        MembershipSplit(0, frozenset({"b", "d"}), yes=Leaf(0.1), no=Leaf(0.2)),
    ),
    "boolean": (FeatureSpec(0, "a", "boolean"), BooleanSplit(0, yes=Leaf(0.1), no=Leaf(0.2))),
}


@pytest.mark.parametrize("kind", sorted(SPLIT_KINDS))
def test_mask_split_partitions_like_the_set_split(kind):
    spec, root = SPLIT_KINDS[kind]
    model = TreeEnsemble(FeatureSpace((spec,)), ("n", "y"), (Tree(1, root),))
    cells = CellSystem(model)
    node = cells.trees[0][1]
    ref_node = _reference_compile(cells, root)
    size = cells.sizes[0]
    if kind == "ordinal":
        domains = [(a, b) for a in range(size) for b in range(a, size)]
    else:
        domains = [
            frozenset(c for c in range(size) if bits >> c & 1) for bits in range(1, 1 << size)
        ]
    ambiguous = 0
    for dom in domains:
        (mask,) = _as_masks((dom,))
        if not 0 < mask & node[2] < mask:
            continue  # the test decides this domain: nothing to split
        ambiguous += 1
        yes, no = oracle._split_box((mask,), node)
        expected = _reference_split_box((dom,), 0, (ref_node[0], ref_node[2]))
        assert (yes, no) == tuple(_as_masks(box) for box in expected)
        assert yes[0] & no[0] == 0 and yes[0] | no[0] == mask
    assert ambiguous == {"ordinal": 4, "membership": 9, "boolean": 1}[kind]


def test_incremental_search_walks_fewer_trees_on_interop(monkeypatch, interop):
    # The flip search of one query with every feature free, once per engine.
    # The kernel walks a tree only to read a range it has not memoized: the
    # root's reachable leaves come from the instance's masks. It runs on a
    # fresh oracle, so no range is memoized before the query, and then again
    # on the same oracle, where the root and every box after it walk nothing.
    model, v = interop[0], interop[1][1]
    c = evaluate(model, v).class_id
    pos, neg, strict = (None, 1, True) if c == 1 else (1, None, False)
    walks = [0]

    def counting(tree_walk):
        depth = [0]

        def walk(node, arg):
            walks[0] += depth[0] == 0
            depth[0] += 1
            try:
                return tree_walk(node, arg)
            finally:
                depth[0] -= 1

        return walk

    # a walk may recurse through its module's global name; only the outer
    # call, a walk started by the search, counts
    monkeypatch.setattr(oracle, "_leaf_range", counting(oracle._leaf_range))
    monkeypatch.setitem(globals(), "_reference_tree_range", counting(_reference_tree_range))
    compiled = oracle._TreeOracle(model)
    obj, (box, keep) = compiled.objective(pos, neg), compiled.root(v, frozenset())
    got = oracle._maximize(obj, box, keep, _target(0.0, strict))
    incremental = walks[0]
    walks[0] = 0
    assert oracle._maximize(obj, *compiled.root(v, frozenset()), _target(0.0, strict)) == got
    assert walks[0] == 0
    expected = _reference_maximize(
        _reference_objective(model, pos, neg),
        _reference_box_for(CellSystem(model), v, frozenset()), 0.0, strict,
    )
    reference = walks[0]
    assert got[1] is not None and _bit_exact(got) == _bit_exact(expected)
    assert incremental < reference, (incremental, reference)


# --- the compile walk's test table, blocks and full domains ------------------------


def _reference_artifacts(cells):
    """``(tests, blocks, full)`` by a second walk of the compiled trees.

    A frozen copy of the walk the oracle made over ``cells.trees`` before
    the compile walk built these itself.
    """
    full = tuple((1 << size) - 1 for size in cells.sizes)
    blocks = []
    by_feature = {}
    offset = 0
    for t, (_, root) in enumerate(cells.trees):
        leaves = root[2] if root[0] == "leaf" else root[5] | root[6]
        blocks.append((offset, leaves))
        stack = [root]
        while stack:
            node = stack.pop()
            if node[0] == "test":
                _, fid, mask, yes, no, yes_leaves, no_leaves = node
                by_feature.setdefault(fid, {}).setdefault(t, []).append(
                    (mask, yes_leaves, no_leaves)
                )
                stack += (yes, no)
        offset += leaves.bit_length()
    tests = {fid: tuple(per_tree.items()) for fid, per_tree in by_feature.items()}
    return tests, tuple(blocks), full


def _dropping_node(rng, space, depth):
    """A random tree over every feature but the last, whose tests include
    ones compilation drops: a threshold outside [lo, hi) of its ordinal's
    [0, 10], or a membership set with all or none of its feature's values."""
    if depth == 0 or rng.random() < 0.25:
        return Leaf(rng.choice((0.5, -0.5, 1.0, 0.0)))
    spec = space[rng.randrange(space.m - 1)]
    yes, no = _dropping_node(rng, space, depth - 1), _dropping_node(rng, space, depth - 1)
    if spec.kind == "ordinal":
        return ThresholdSplit(spec.fid, rng.choice((-1.0, 0.0, 2.5, 5.0, 10.0, 12.0)), yes=yes, no=no)
    if spec.kind == "categorical":
        values = rng.choice((
            frozenset(spec.values), frozenset({"none of them"}),
            frozenset(rng.sample(spec.values, rng.randint(1, len(spec.values) - 1))),
        ))
        return MembershipSplit(spec.fid, values, yes=yes, no=no)
    return BooleanSplit(spec.fid, yes=yes, no=no)


def _splits(node):
    return 0 if isinstance(node, Leaf) else 1 + _splits(node.yes) + _splits(node.no)


def test_the_compile_walk_builds_what_the_oracle_walk_built(rng):
    # The same test table, blocks and full-domain masks as the frozen walk,
    # on random models where the last feature is never tested. Within one
    # tree the tests may come in another order: ``_shut_out`` ORs them.
    kinds = set()
    multiclass = lone = dropped = 0
    for n in range(300):
        space = random_space(rng, rng.randint(2, 6))
        k = 3 if n % 2 else 2
        model = TreeEnsemble(space, ("a", "b", "c")[:k], tuple(
            Tree(rng.randrange(k) if k == 3 else 1, _dropping_node(rng, space, rng.randint(0, 4)))
            for _ in range(rng.randint(1, 5))
        ))
        cells = CellSystem(model)
        tests, blocks, full = _reference_artifacts(cells)
        assert cells.full == full and cells.blocks == blocks
        assert {fid: [(t, sorted(found)) for t, found in per_tree]
                for fid, per_tree in cells.tests.items()} == {
            fid: [(t, sorted(found)) for t, found in per_tree] for fid, per_tree in tests.items()
        }
        assert space.m - 1 not in cells.tests
        kinds |= {space[fid].kind for fid in cells.tests}
        multiclass += not model.single_score
        lone += sum(root[0] == "leaf" for _, root in cells.trees)
        dropped += sum(_splits(tree.root) for tree in model.trees) > sum(
            len(found) for per_tree in cells.tests.values() for _, found in per_tree
        )
    assert kinds == {"ordinal", "categorical", "boolean"}
    assert multiclass > 100 and lone > 100 and dropped > 100, (multiclass, lone, dropped)
    assert set(vars(oracle._TreeOracle(model))) == {
        "model", "cells", "_objectives", "_range_memos", "_shut", "_v_masks"
    }


# --- root masks and ranges from reachable-leaf masks against the box walk ----------


def _reach(node, box):
    """The mask of the leaves reachable under box, by walking the tree.

    The reference for the reachable-leaf masks that the oracle builds
    without a walk, from the model's test table through ``_shut_out``: at the
    root by the instance's shut-out masks, below it by the leaves a child's
    split domain shuts out.
    """
    while node[0] == "test":
        _, fid, mask, yes, no = node[:5]
        dom = box[fid]
        inside = dom & mask
        if inside == dom:
            node = yes
        elif not inside:
            node = no
        else:
            return _reach(yes, box) | _reach(no, box)
    return node[2]


def test_root_masks_match_the_tree_walk(rng, monkeypatch):
    # Every tree's root mask, read from the instance's shut-out masks in the
    # model's leaf space, must equal the walk's, for random fixed sets and
    # for each one-sided slab, in each objective's tree order (a multiclass
    # (rival, c) objective puts the rival's trees first). A feature with one
    # cell shuts out nothing, and its slab is empty: no search is made. The
    # masks are those the search reads its root ranges by: a target of -inf
    # stops it at the root.
    read = []
    range_of = oracle._range

    def recording(obj, t, reach):
        read.append((t, reach))
        return range_of(obj, t, reach)

    monkeypatch.setattr(oracle, "_range", recording)
    checked = slabs = one_cell = reordered = 0
    for _ in range(300):
        m = rng.randint(1, 8)
        space = random_space(rng, m)
        k = rng.choice((2, 2, 3))
        model = random_ensemble(
            rng, space, n_trees=rng.randint(1, 8), depth=rng.randint(1, 4), k=k
        )
        compiled = oracle._TreeOracle(model)
        sizes = compiled.cells.sizes
        if model.single_score:
            pairs = [(1, None), (None, 1)]
        else:
            pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
        objectives = [compiled.objective(pos, neg) for pos, neg in pairs]
        order = tuple(root for _, root in compiled.cells.trees)
        reordered += sum(obj.trees != order[:len(obj.trees)] for obj in objectives)
        for _ in range(3):
            v = random_instance(rng, space)
            cells, at, away_masks = compiled.instance_masks(v)
            for fid, size in enumerate(sizes):
                if size == 1:
                    assert at[fid] == away_masks[fid] == 0
                    one_cell += 1
            fixed = frozenset(fid for fid in range(m) if rng.random() < 0.5)
            for away in [None, *sorted(set(range(m)) - fixed)]:
                box, keep = compiled.root(v, fixed)
                assert box == tuple(
                    cells[fid] if fid in fixed else (1 << size) - 1
                    for fid, size in enumerate(sizes)
                )
                if away is not None:
                    keep &= ~away_masks[away]
                    slab = box[away] & ~cells[away]
                    if not slab:
                        continue
                    box = box[:away] + (slab,) + box[away + 1:]
                    slabs += 1
                for obj in objectives:
                    read.clear()
                    assert oracle._maximize(obj, box, keep, -math.inf)[1] == box
                    assert read == [(t, _reach(root, box)) for t, root in enumerate(obj.trees)]
                    checked += len(read)
    assert checked > 25000 and slabs > 1500, (checked, slabs)
    assert one_cell > 300 and reordered > 400, (one_cell, reordered)
    assert not hasattr(oracle, "_reach")  # the walk above is the only root walk left


# --- ranges from reachable-leaf masks against the box walk -------------------------


def _box_walk_range(node, box):
    """(min leaf, max leaf, first splits) reachable under box, by walking the box.

    A frozen copy of the walk that each child box made before reachable-leaf
    masks: the same tie rules and the same first-split map.
    """
    while node[0] == "test":
        _, fid, mask, yes, no = node[:5]
        dom = box[fid]
        inside = dom & mask
        if inside == dom:
            node = yes
        elif not inside:
            node = no
        else:
            lo_y, hi_y, first_y = _box_walk_range(yes, box)
            lo_n, hi_n, first_n = _box_walk_range(no, box)
            first = first_n | first_y
            first[fid] = node
            return lo_n if lo_n < lo_y else lo_y, hi_n if hi_n > hi_y else hi_y, first
    return node[1], node[1], {}


def _tie_node(rng, space, depth):
    """A random tree over few features, so that paths test a feature twice,
    with leaves drawn from a small pool that holds both signed zeros."""
    if depth == 0 or rng.random() < 0.2:
        return Leaf(rng.choice((0.0, -0.0, 0.0, -0.0, 0.5, -0.5, 1.0)))
    spec = space[rng.randrange(space.m)]
    yes, no = _tie_node(rng, space, depth - 1), _tie_node(rng, space, depth - 1)
    if spec.kind == "ordinal":
        return ThresholdSplit(spec.fid, float(rng.randint(1, 6)), yes=yes, no=no)
    if spec.kind == "categorical":
        values = frozenset(rng.sample(spec.values, rng.randint(1, len(spec.values) - 1)))
        return MembershipSplit(spec.fid, values, yes=yes, no=no)
    return BooleanSplit(spec.fid, yes=yes, no=no)


def _tests_twice_on_a_path(node, seen=()):
    if node[0] == "leaf":
        return False
    fid = node[1]
    return fid in seen or any(_tests_twice_on_a_path(child, seen + (fid,)) for child in node[3:5])


def _leaf_values(node):
    """(bit, weight) of each leaf of a compiled tree, in preorder."""
    if node[0] == "leaf":
        return [(node[2], node[1])]
    return _leaf_values(node[3]) + _leaf_values(node[4])


def _same_range(got, expected):
    (lo, hi, first), (elo, ehi, efirst) = got, expected
    return (
        lo.hex() == elo.hex() and hi.hex() == ehi.hex()
        and math.copysign(1.0, lo) == math.copysign(1.0, elo)
        and math.copysign(1.0, hi) == math.copysign(1.0, ehi)
        and list(first) == list(efirst) and all(first[f] is efirst[f] for f in first)
    )


def test_leaf_masks_give_the_box_walk_ranges(rng):
    # Root boxes are random sub-domains; each child narrows one feature's
    # domain to a random non-empty part of it, three times in a row. A
    # child's mask must be the parent's with the leaves its domain shuts out
    # cleared, read from the model's shared table through the objective's
    # slots, and the range read from a mask must equal the box walk's bit for
    # bit. Half the models have 3 classes, searched by a (rival, c)
    # objective that puts the rival's trees first, so slots reorder them.
    space = FeatureSpace((
        FeatureSpec(0, "x", "ordinal", lo=0.0, hi=10.0),
        FeatureSpec(1, "y", "ordinal", lo=0.0, hi=10.0),
        FeatureSpec(2, "colour", "categorical", values=("a", "b", "c", "d")),
        FeatureSpec(3, "flag", "boolean"),
    ))
    checked = twice = zero_ties = split = shrunk = reordered = 0
    for n in range(300):
        if n % 2:
            classes, pair = ("a", "b", "c"), tuple(rng.sample(range(3), 2))
            class_ids = [rng.randrange(3) for _ in range(6)]
        else:
            classes, pair, class_ids = ("n", "y"), (1, None), [1, 1, 1]
        model = TreeEnsemble(space, classes, tuple(
            Tree(cid, _tie_node(rng, space, rng.randint(1, 5))) for cid in class_ids
        ))
        compiled = oracle._TreeOracle(model)
        obj = compiled.objective(*pair)
        order = [t for _, t in sorted((i, t) for t, i in enumerate(obj.slots) if i is not None)]
        assert obj.trees == tuple(compiled.cells.trees[t][1] for t in order)
        reordered += order != sorted(order)
        sizes = compiled.cells.sizes
        for _ in range(4):
            box = tuple(rng.randrange(1, 1 << size) for size in sizes)
            reach = [_reach(root, box) for root in obj.trees]
            for step in range(4):
                if step:
                    fid = rng.randrange(len(sizes))
                    dom = box[fid] & rng.randrange(1, 1 << sizes[fid]) or box[fid]
                    split += dom != box[fid]
                    box = box[:fid] + (dom,) + box[fid + 1:]
                    narrowed = reach.copy()
                    for t, shut in oracle._shut_out(compiled.cells.tests, compiled._shut, fid, dom):
                        if obj.slots[t] is not None:
                            narrowed[obj.slots[t]] &= ~shut
                    shrunk += narrowed != reach
                    reach = narrowed
                for t, root in enumerate(obj.trees):
                    assert reach[t] == _reach(root, box)
                    expected = _box_walk_range(root, box)
                    assert _same_range(oracle._leaf_range(root, reach[t]), expected)
                    values = {math.copysign(1.0, w) for bit, w in _leaf_values(root)
                              if reach[t] & bit and w == 0.0}
                    zero_ties += len(values) == 2 and 0.0 in expected[:2]
                    twice += _tests_twice_on_a_path(root)
                    checked += 1
    assert checked > 12000 and twice > 6000 and zero_ties > 1500, (checked, twice, zero_ties)
    assert split > 1000 and shrunk > 600 and reordered > 60, (split, shrunk, reordered)


# --- the compiled oracle's lifetime ---------------------------------------------


def test_a_replaced_oracle_is_freed_by_reference_counting():
    # The module keeps one compiled oracle, the last model's. Its objectives
    # and memos must hold no reference back to it: with one, each replaced
    # oracle and all its memos would wait for the cyclic collector, and peak
    # memory would grow with the number of models compiled between its runs.
    rng = random.Random(5)
    space = random_space(rng, 6)
    a, b = (random_ensemble(rng, space, n_trees=6, depth=3, k=3) for _ in range(2))
    gc.disable()
    try:
        compiled = weakref.ref(oracle._tree_oracle(a))
        for _ in range(20):
            v = random_instance(rng, space)
            c = evaluate(a, v).class_id
            for fixed in ({0}, {0, 1, 2}, set()):
                decide_sufficiency(a, v, c, fixed)
        assert len(compiled()._objectives) >= 2 and compiled()._shut
        assert any(len(memo) > 1 for memo in compiled()._range_memos)
        oracle._tree_oracle(b)
        assert compiled() is None
    finally:
        gc.enable()


# --- the threshold search accepts and prunes by bounds ---------------------------


def test_flip_search_accepts_a_box_whose_floor_flips(monkeypatch):
    # Once a holds, every b flips (1.0 - 0.1 >= 0), so the search accepts
    # the box a = True, b open, as soon as the root's split makes it: only
    # the root pops. The witness keeps v's b = False, where a search down to
    # a determined box would have taken the better b = True.
    model = TreeEnsemble(_two_booleans(), ("n", "y"), (
        Tree(1, BooleanSplit(0, yes=Leaf(1.0), no=Leaf(-1.0))),
        Tree(1, BooleanSplit(1, yes=Leaf(0.1), no=Leaf(-0.1))),
    ))
    v = Instance((False, False))
    assert evaluate(model, v).class_id == 0
    pops = []
    monkeypatch.setattr(oracle, "heapq", _recording_heapq(pops))
    witness = find_counterexample(model, v, 0, {0, 1})
    assert pops == [(0b11, 0b11)]
    assert witness == Instance((True, False))
    assert evaluate(model, witness).class_id == 1


def test_threshold_search_with_every_child_pruned_finds_nothing(monkeypatch):
    # The root's bound (1 + 1) reaches 1.5, but each value of a leaves 1.0:
    # both children are dropped, and the emptied heap answers "unreachable".
    model = TreeEnsemble(_two_booleans(), ("n", "y"), (
        Tree(1, BooleanSplit(0, yes=Leaf(1.0), no=Leaf(0.0))),
        Tree(1, BooleanSplit(0, yes=Leaf(0.0), no=Leaf(1.0))),
    ))
    compiled = oracle._tree_oracle(model)
    box, keep = compiled.root(Instance((False, False)), ())
    pops = []
    monkeypatch.setattr(oracle, "heapq", _recording_heapq(pops))
    assert oracle._maximize(compiled.objective(1, None), box, keep, 1.5) == (None, None)
    assert pops == [box]
    monkeypatch.undo()
    assert oracle._maximize(compiled.objective(1, None), box, keep) == (1.0, (0b10, 0b11))


# --- one-sided AXp trials -----------------------------------------------------------


@st.composite
def one_sided_trials(draw):
    """A tree ensemble (single-score, two-score binary or 3-class), an instance,
    and a set that forces its prediction, grown from a random subset."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 6))
    space = random_space(rng, m)
    shape = draw(st.sampled_from(("single-score", "binary", "multiclass")))
    model = random_ensemble(
        rng, space, n_trees=rng.randint(1, 6), depth=rng.randint(1, 3),
        k=3 if shape == "multiclass" else 2,
    )
    if shape == "binary":  # one score per class
        model = TreeEnsemble(space, model.class_names, tuple(
            Tree(t % 2, tree.root) for t, tree in enumerate(model.trees)
        ))
    v = random_instance(rng, space)
    c = evaluate(model, v).class_id
    fixed = set(draw(st.frozensets(st.integers(0, m - 1))))
    for fid in draw(st.permutations(range(m))):
        if brute_force_decide(model, v, c, fixed).sufficient:
            break
        fixed.add(fid)
    return model, v, c, frozenset(fixed)


@given(one_sided_trials())
def test_one_sided_trial_agrees_with_the_full_box(trial):
    model, v, c, sufficient = trial
    assert brute_force_decide(model, v, c, sufficient).sufficient
    cells = oracle._tree_oracle(model).cells
    for away in sufficient:
        fixed = sufficient - {away}
        slab = oracle._find_counterexample_unchecked(model, v, c, fixed, away)
        full = find_counterexample(model, v, c, model.space.all_features() - fixed)
        assert (slab is None) == (full is None) == brute_force_decide(model, v, c, fixed).sufficient
        if slab is None:
            continue
        assert validate_instance(model.space, slab) == []
        assert naive_class(model, slab.values) != c
        assert evaluate(model, slab).class_id != c
        assert all(slab.values[fid] == v.values[fid] for fid in fixed)
        assert cells.cell_of(away, slab.values[away]) != cells.cell_of(away, v.values[away])


@given(one_sided_trials())
def test_one_sided_trial_with_no_reachable_test_on_its_feature_searches_nothing(trial):
    # A trial that drops f from a forcing set is answered "no flip" without a
    # search exactly when fixing f narrows no tree's reachable leaves under
    # the rest of the set (the walk decides that here): then every point of
    # the trial's box scores like a point of the forcing box. Every other
    # trial searches, and agrees with the full box.
    model, v, c, sufficient = trial
    cells = oracle._tree_oracle(model).cells
    searches = []
    maximize = oracle._maximize

    def counting(*args, **kwargs):
        searches.append(None)
        return maximize(*args, **kwargs)

    for away in sufficient:
        fixed = sufficient - {away}
        loose, tight = (
            _as_masks(_reference_box_for(cells, v, s)) for s in (fixed, sufficient)
        )
        unnarrowed = all(
            _reach(root, loose) == _reach(root, tight) for _, root in cells.trees
        )
        searches.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_maximize", counting)
            slab = oracle._find_counterexample_unchecked(model, v, c, fixed, away)
        if unnarrowed:
            assert slab is None and searches == []
            assert brute_force_decide(model, v, c, fixed).sufficient
        else:
            assert searches
            full = find_counterexample(model, v, c, model.space.all_features() - fixed)
            assert (slab is None) == (full is None)


def test_one_sided_trial_on_a_feature_with_one_cell_searches_nothing(monkeypatch):
    # No tree tests x, so x has one cell and the slab that moves it off v's
    # cell is empty: "no flip" without a search, but still one oracle call.
    space = FeatureSpace((FeatureSpec(0, "a", "boolean"), FeatureSpec(1, "x", "ordinal", lo=0.0, hi=10.0)))
    model = TreeEnsemble(space, ("f", "t"), (Tree(1, BooleanSplit(0, yes=Leaf(1.0), no=Leaf(-1.0))),))
    v = Instance((True, 7.25))
    assert oracle._tree_oracle(model).cells.sizes[1] == 1
    searches = []
    maximize = oracle._maximize

    def counting(obj, box, *args, **kwargs):
        searches.append(box)
        return maximize(obj, box, *args, **kwargs)

    monkeypatch.setattr(oracle, "_maximize", counting)
    assert oracle._find_counterexample_unchecked(model, v, 1, frozenset({0}), 1) is None
    assert searches == []
    # the seed check and the trial that drops a search, the trial that drops x does not
    clock = _Clock(Budget.unlimited())
    assert extract_axp(model, v, 1, {0, 1}, _clock=clock) == frozenset({0})
    assert (clock.calls, len(searches)) == (3, 2)
    # the calls of the enumeration are those of a search per trial
    report = enumerate_explanations(model, v, budget=Budget.unlimited())
    assert [(e.kind, e.features, e.oracle_calls) for e in report.events()] == [
        ("axp", frozenset({0}), 3), ("cxp", frozenset({0}), 4),
    ]
    assert report.oracle_calls == 4


def test_one_sided_trials_pop_fewer_boxes_on_interop(monkeypatch, interop):
    # The AXp deletion trials of interop row 7's cxp-first enumeration, each
    # searched twice on a fresh oracle: on the slab, and on the whole box of
    # the trial. The verdicts agree and the slab pops fewer boxes. The counts
    # were (6329, 8048) before the flip search popped by bound plus floor and
    # accepted a child whose floor flips as soon as it was made, and
    # (5607, 7313) before a trial with no reachable test on its dropped
    # feature was answered without a search.
    model, v = interop[0], interop[1][7]
    trials = []
    unchecked = enumeration._find_counterexample_unchecked

    def recording(model, v, c, fixed, away=None):
        if away is not None:
            trials.append((c, fixed, away))
        return unchecked(model, v, c, fixed, away)

    monkeypatch.setattr(enumeration, "_find_counterexample_unchecked", recording)
    enumerate_explanations(model, v, budget=Budget.unlimited())
    monkeypatch.undo()
    pops, verdicts, unsearched = {}, {}, {}
    maximize = oracle._maximize
    for one_sided in (True, False):
        popped, searches = [], []

        def counting(*args, **kwargs):
            searches.append(None)
            return maximize(*args, **kwargs)

        monkeypatch.setattr(oracle, "heapq", _recording_heapq(popped))
        monkeypatch.setattr(oracle, "_maximize", counting)
        compiled = oracle._TreeOracle(model)
        verdicts[one_sided], unsearched[one_sided] = [], 0
        for c, fixed, away in trials:
            before = len(searches)
            verdicts[one_sided].append(
                compiled.find_class_change(v, c, fixed, away if one_sided else None) is None
            )
            unsearched[one_sided] += len(searches) == before
        pops[one_sided] = len(popped)
        monkeypatch.undo()
    assert len(trials) == 2294
    assert verdicts[True] == verdicts[False]
    assert (pops[True], pops[False]) == (4385, 7313)
    assert (unsearched[True], unsearched[False]) == (1135, 0)

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ffax import enumeration
from ffax.enumeration import (
    AXP,
    CXP,
    Budget,
    DualityViolation,
    brute_force_all_xps,
    check_duality,
    enumerate_explanations,
    extract_axp,
    extract_cxp,
    minimal_hs,
    _Clock,
    _HittingSets,
)
from ffax.errors import CapacityError, ContractError
from ffax.model import (
    BooleanSplit,
    FeatureSpace,
    FeatureSpec,
    Instance,
    Leaf,
    Tree,
    TreeEnsemble,
    evaluate,
)
from ffax.oracle import decide_sufficiency, find_counterexample
from ffax.synth import random_ensemble, random_instance, random_linear, random_space


def boolean_space(m):
    return FeatureSpace(tuple(FeatureSpec(fid, f"b{fid}", "boolean") for fid in range(m)))


def conjunction_model():
    space = boolean_space(2)
    root = BooleanSplit(0, yes=BooleanSplit(1, yes=Leaf(1.0), no=Leaf(-1.0)), no=Leaf(-1.0))
    return TreeEnsemble(space, ("f", "t"), (Tree(1, root),))


def disjunction_model():
    space = boolean_space(2)
    root = BooleanSplit(0, yes=Leaf(1.0), no=BooleanSplit(1, yes=Leaf(1.0), no=Leaf(-1.0)))
    return TreeEnsemble(space, ("f", "t"), (Tree(1, root),))


def constant_model():
    space = boolean_space(2)
    return TreeEnsemble(space, ("f", "t"), (Tree(1, Leaf(1.0)),))


# --- extract_axp / extract_cxp -------------------------------------------------


def test_extract_axp_from_full_seed_on_fixture(adult_model, adult_instance):
    # ascending-id scan drops Status before Hours/w, so this pick is forced
    axp = extract_axp(adult_model, adult_instance, 0, seed=range(6))
    assert axp == frozenset({0, 5})


def test_extract_axp_respects_scan_order(adult_model, adult_instance):
    # scanning Hours/w before Status drops Hours/w and keeps {Education, Status}
    order = (5, 4, 3, 2, 1, 0)
    axp = extract_axp(adult_model, adult_instance, 0, seed=range(6), order=order)
    assert axp == frozenset({0, 1})


@pytest.mark.parametrize("order", [(0, 1), (1, 0, 2, 3, 4, 5, 6), (0, 0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 6)])
def test_scan_order_must_permute_every_feature(adult_model, adult_instance, order):
    # a permutation of only 0..1 would leave features 2-5 unscanned and the result non-minimal
    with pytest.raises(ContractError, match="permutation of the feature ids 0..5"):
        extract_axp(adult_model, adult_instance, 0, seed=range(6), order=order)
    with pytest.raises(ContractError, match="permutation of the feature ids 0..5"):
        enumerate_explanations(adult_model, adult_instance, order=order)


def test_extract_axp_nothing_droppable():
    model = conjunction_model()
    axp = extract_axp(model, Instance((True, True)), 1, seed={0, 1})
    assert axp == frozenset({0, 1})


def test_extract_axp_on_disjunction():
    model = disjunction_model()
    axp = extract_axp(model, Instance((True, True)), 1, seed={0, 1})
    assert axp == frozenset({1})  # dropping feature 0 first keeps sufficiency


def test_extract_axp_seed_precondition():
    model = conjunction_model()
    with pytest.raises(ContractError, match="seed"):
        extract_axp(model, Instance((True, True)), 1, seed={0})


def test_unverified_axp_seed_must_force_the_prediction():
    # Class 1 unless a holds and b does not. The seed {a} does not force
    # class 1 (b = False flips it). Unverified, the trial that drops a
    # searches only a = False, where nothing flips, and drops it: the result
    # is then not sufficient. Verified, the seed is refused.
    model = TreeEnsemble(boolean_space(2), ("f", "t"), (Tree(1, BooleanSplit(
        0, yes=BooleanSplit(1, yes=Leaf(1.0), no=Leaf(-1.0)), no=Leaf(1.0),
    )),))
    v = Instance((True, True))
    with pytest.raises(ContractError, match="seed"):
        extract_axp(model, v, 1, seed={0})
    assert extract_axp(model, v, 1, seed={0}, _verify_seed=False) == frozenset()
    assert not decide_sufficiency(model, v, 1, ()).sufficient


def test_extract_axp_on_linear_models_ignores_the_slab(rng):
    # a linear model answers every trial on its whole box, as it did before
    # trials were one-sided: the same sets with the same calls
    unchecked = enumeration._find_counterexample_unchecked
    for _ in range(40):
        m = rng.randint(1, 7)
        model, space = random_linear(rng, m)
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        order = rng.sample(range(m), m)
        expected = _reference_extract(AXP, model, v, c, range(m), order)
        clock = _Clock(Budget.unlimited())
        assert (extract_axp(model, v, c, range(m), order, _clock=clock), clock.calls) == expected
        for fid in range(m):
            fixed = model.space.all_features() - {fid}
            assert unchecked(model, v, c, fixed, fid) == unchecked(model, v, c, fixed)


def test_extract_axp_result_is_minimal_and_sufficient(rng):
    for _ in range(25):
        m = rng.randint(2, 7)
        space = random_space(rng, m)
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 5), depth=2)
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        axp = extract_axp(model, v, c, seed=range(m))
        assert decide_sufficiency(model, v, c, axp).sufficient
        for fid in axp:
            assert not decide_sufficiency(model, v, c, axp - {fid}).sufficient


def test_extract_cxp_is_minimal(rng):
    for _ in range(25):
        m = rng.randint(2, 7)
        space = random_space(rng, m)
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 5), depth=2)
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        if find_counterexample(model, v, c, set(range(m))) is None:
            continue  # constant prediction: no contrastive explanation exists
        cxp = extract_cxp(model, v, c, seed=range(m))
        assert find_counterexample(model, v, c, cxp) is not None
        for fid in cxp:
            assert find_counterexample(model, v, c, cxp - {fid}) is None


# --- the call-per-trial deletion loop, frozen as the reference for _extract -----
#
# The loop as it was before it kept the last counterexample: one oracle call
# per trial. The witness-guided loop must return the same set from the same
# seed and scan order, with no more oracle calls (the same number for an AXp).


def _reference_extract(kind, model, v, c, seed, order=None):
    """(the extracted set, its oracle calls with the seed check), or None if
    ``seed`` does not hold as ``kind``."""
    calls = 0

    def holds(features):
        nonlocal calls
        calls += 1
        free = features if kind == CXP else model.space.all_features() - features
        flips = find_counterexample(model, v, c, free) is not None
        return flips if kind == CXP else not flips

    current = frozenset(seed)
    if not holds(current):
        return None
    scan = sorted(current) if order is None else [fid for fid in order if fid in current]
    for fid in scan:
        trial = current - {fid}
        if holds(trial):
            current = trial
    return current, calls


@st.composite
def extraction_problems(draw):
    """A tree ensemble (k = 2 or 3) or linear model, an instance, and a scan order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 7))
    if draw(st.booleans()):
        model, space = random_linear(rng, m)
    else:
        space = random_space(rng, m, kinds=draw(st.sampled_from(
            (("categorical", "ordinal", "boolean"), ("ordinal",), ("categorical",), ("boolean",))
        )))
        model = random_ensemble(
            rng, space, n_trees=rng.randint(1, 6), depth=rng.randint(1, 3),
            k=draw(st.sampled_from((2, 3))),
        )
    order = draw(st.none() | st.permutations(range(m)))
    seed = draw(st.frozensets(st.integers(0, m - 1)))
    return model, random_instance(rng, space), order, seed


@settings(max_examples=150)
@given(extraction_problems())
def test_extract_matches_call_per_trial_reference(problem):
    model, v, order, seed = problem
    c = evaluate(model, v).class_id
    for kind, extract in ((AXP, extract_axp), (CXP, extract_cxp)):
        for start in (model.space.all_features(), seed):
            reference = _reference_extract(kind, model, v, c, start, order)
            if reference is None:
                continue  # the seed does not hold (no seed holds as a CXp if c is constant)
            expected, reference_calls = reference
            clock = _Clock(Budget.unlimited())
            assert extract(model, v, c, start, order, _clock=clock) == expected
            if kind == AXP:
                assert clock.calls == reference_calls
                continue
            assert clock.calls <= reference_calls
            # as the enumeration loop calls it: no seed check, and the features
            # where the seed's counterexample differs from v handed in
            w = find_counterexample(model, v, c, start)
            moved = frozenset(fid for fid, x in enumerate(v.values) if w.values[fid] != x)
            clock = _Clock(Budget.unlimited())
            got = extract(model, v, c, start, order, _clock=clock, _verify_seed=False, _moved=moved)
            assert got == expected and clock.calls < reference_calls


# --- trials refuted by collected targets ----------------------------------------


def _target_masks(targets, m):
    """``blocks_with`` of a hitting-set state whose blocked family is ``targets``."""
    state = _HittingSets(m)
    state.absorb([], targets, m)
    return state.blocks_with


def test_a_trial_that_misses_a_collected_target_costs_no_oracle_call():
    # conjunction: the AXp {0, 1} against the CXp's {0} and {1}; disjunction:
    # the CXp {0, 1} against the AXp's {0} and {1}. Dropping an id from the
    # seed misses the target that holds only it, so that trial fails uncalled.
    v = Instance((True, True))
    for model, extract in ((conjunction_model(), extract_axp), (disjunction_model(), extract_cxp)):
        for targets, calls in (([], 2), ([{0}], 1), ([{0, 1}], 2), ([{0}, {1}], 0)):
            clock = _Clock(Budget.unlimited())
            got = extract(
                model, v, 1, {0, 1}, _clock=clock, _verify_seed=False,
                _targets=_target_masks([frozenset(t) for t in targets], 2),
            )
            assert (got, clock.calls) == (frozenset({0, 1}), calls)


def test_extract_with_every_target_collected_calls_only_on_kept_drops(rng):
    # With the whole other family as targets, every failing trial misses one of
    # them, so the oracle answers only the seed check and the drops that hold.
    for _ in range(60):
        m = rng.randint(1, 7)
        space = random_space(rng, m)
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 5), depth=rng.randint(1, 3))
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        axps, cxps = brute_force_all_xps(model, v, c)
        order = rng.sample(range(m), m)
        for kind, extract, targets in ((AXP, extract_axp, cxps), (CXP, extract_cxp, axps)):
            reference = _reference_extract(kind, model, v, c, range(m), order)
            if reference is None:
                continue
            expected, _ = reference
            clock = _Clock(Budget.unlimited())
            got = extract(model, v, c, range(m), order, _clock=clock, _targets=_target_masks(targets, m))
            assert got == expected
            dropped = m - len(got)
            if kind == AXP:
                assert clock.calls == 1 + dropped
            else:  # the witness may decide some kept drops as well
                assert clock.calls <= 1 + dropped


def _without_targets(extract):
    """``extract`` as it was before the loop handed it the collected targets."""

    def reference(*args, _targets=None, **kwargs):
        return extract(*args, **kwargs)

    return reference


def _events(report):
    return [(e.kind, sorted(e.features), e.discovery_index) for e in report.events()]


@pytest.mark.parametrize("mode", ["cxp-first", "axp-first"])
def test_skipping_refuted_trials_moves_only_call_counts(
    adult_model, adult_instance, interop, mode, monkeypatch
):
    runs = [(adult_model, adult_instance)] + [(interop[0], interop[1][row]) for row in (4, 7)]

    def enumerate_all(budget):
        return [enumerate_explanations(model, v, budget=budget, mode=mode) for model, v in runs]

    budget = Budget(max_oracle_calls=1500)
    complete, budgeted = enumerate_all(None), enumerate_all(budget)
    # the reference: the same loop, extracting with a call on every trial
    monkeypatch.setattr(enumeration, "extract_axp", _without_targets(extract_axp))
    monkeypatch.setattr(enumeration, "extract_cxp", _without_targets(extract_cxp))
    complete_ref, budgeted_ref = enumerate_all(None), enumerate_all(budget)

    for got, ref in zip(complete, complete_ref):
        assert got.complete and ref.complete
        assert _events(got) == _events(ref)
        assert all(g.oracle_calls <= r.oracle_calls for g, r in zip(got.events(), ref.events()))
    assert sum(r.oracle_calls for r in complete) < sum(r.oracle_calls for r in complete_ref)
    for got, ref in zip(budgeted, budgeted_ref):
        assert _events(got)[: len(ref.events())] == _events(ref)


# --- minimal_hs ------------------------------------------------------------------


def test_minimal_hs_empty_problem():
    assert minimal_hs([], [], 4) == frozenset()


def test_minimal_hs_forced_by_singletons():
    out = minimal_hs([frozenset({1}), frozenset({2})], [], 4)
    assert out == frozenset({1, 2})


def test_minimal_hs_respects_blocking(adult_space):
    axps = [frozenset({0, 5}), frozenset({0, 1})]
    assert minimal_hs(axps, [], 6) == frozenset({0})
    assert minimal_hs(axps, [frozenset({0})], 6) == frozenset({1, 5})
    assert minimal_hs(axps, [frozenset({0}), frozenset({1, 5})], 6) is None


def test_minimal_hs_blocked_empty_set():
    assert minimal_hs([frozenset({0})], [frozenset()], 2) is None


def test_minimal_hs_needs_exact_fallback():
    # the search branches on {2} first (one option), which forbids 0, so {0,1}
    # is hit by 1; taking 0 for {0,1} first would swallow the block with 2
    to_hit = [frozenset({0, 1}), frozenset({2})]
    blocked = [frozenset({0, 2})]
    assert minimal_hs(to_hit, blocked, 3) == frozenset({1, 2})


# --- the replaced engine, frozen as the reference for minimal_hs ----------------
#
# A copy of the frozenset engine that minimal_hs replaced, without the greedy
# pre-pass it once ran first: a from-scratch exact search and an ascending-id
# shrink. The bitmask engine must return the same candidate on every call, not
# just a valid one, so that discovery order and oracle-call counts do not move.


class _ReferenceBlockTracker:
    """Incremental 'would adding this feature swallow a blocked set' queries."""

    def __init__(self, blocked):
        self.remaining = [len(b) for b in blocked]
        self.containing = {}
        for idx, b in enumerate(blocked):
            for fid in b:
                self.containing.setdefault(fid, []).append(idx)

    def forbidden(self, fid):
        return any(self.remaining[idx] == 1 for idx in self.containing.get(fid, ()))

    def add(self, fid):
        for idx in self.containing.get(fid, ()):
            self.remaining[idx] -= 1

    def remove(self, fid):
        for idx in self.containing.get(fid, ()):
            self.remaining[idx] += 1


def _reference_minimal_hs(to_hit, blocked, m):
    for s in to_hit:
        if not s <= frozenset(range(m)):
            raise ContractError(f"set {sorted(s)} outside feature universe 0..{m - 1}")
    if any(len(b) == 0 for b in blocked):
        return None
    if any(len(s) == 0 for s in to_hit):
        return None
    candidate = _reference_exact_hs(to_hit, blocked)
    if candidate is None:
        return None
    for fid in sorted(candidate):
        trial = candidate - {fid}
        if all(trial & s for s in to_hit):
            candidate = trial
    return frozenset(candidate)


def _reference_exact_hs(to_hit, blocked):
    tracker = _ReferenceBlockTracker(blocked)
    chosen = set()

    def dfs(unhit):
        if not unhit:
            return set(chosen)
        target_options, target_key = None, None
        for s in unhit:
            options = sorted(fid for fid in s if not tracker.forbidden(fid))
            key = (len(options), len(s), tuple(options))
            if target_key is None or key < target_key:
                target_key, target_options = key, options
                if not options:
                    return None
        for fid in target_options:
            chosen.add(fid)
            tracker.add(fid)
            found = dfs([s for s in unhit if fid not in s])
            if found is not None:
                return found
            tracker.remove(fid)
            chosen.discard(fid)
        return None

    return dfs(list(to_hit))


@st.composite
def hitting_problems(draw):
    m = draw(st.integers(2, 5))
    universe = list(range(m))
    families = st.lists(
        st.frozensets(st.sampled_from(universe), min_size=1, max_size=m),
        min_size=0, max_size=4,
    )
    return m, draw(families), draw(families)


def _valid_hs(candidate, to_hit, blocked):
    """Does ``candidate`` hit every to-hit set and contain no blocked set?"""
    return all(candidate & s for s in to_hit) and not any(b <= candidate for b in blocked)


def _assert_minimal_hs(answer, to_hit, blocked):
    assert _valid_hs(answer, to_hit, blocked)
    for fid in answer:  # subset-minimal w.r.t. hitting
        shrunk = answer - {fid}
        assert any(not (shrunk & s) for s in to_hit)


@given(hitting_problems())
def test_minimal_hs_contract_vs_subset_scan(problem):
    m, to_hit, blocked = problem
    answer = minimal_hs(to_hit, blocked, m)
    all_valid = [
        frozenset(sub)
        for size in range(m + 1)
        for sub in combinations(range(m), size)
        if _valid_hs(frozenset(sub), to_hit, blocked)
    ]
    if answer is None:
        assert not all_valid
    else:
        _assert_minimal_hs(answer, to_hit, blocked)


@st.composite
def larger_hitting_problems(draw):
    # many short sets, so that the search often backtracks and meets ties
    m = draw(st.integers(1, 12))
    width = draw(st.integers(1, m))
    sets = st.frozensets(st.integers(0, m - 1), min_size=min(2, width), max_size=width)

    def family():
        return [draw(sets) for _ in range(draw(st.integers(0, 25)))]

    return m, family(), family()


@settings(max_examples=300)
@given(larger_hitting_problems())
def test_minimal_hs_matches_reference_engine(problem):
    m, to_hit, blocked = problem
    assert minimal_hs(to_hit, blocked, m) == _reference_minimal_hs(to_hit, blocked, m)


def test_minimal_hs_exclusion_prune_keeps_the_answer():
    # The three sets tie on options and size, so the search branches on
    # {0,1,2}, the one holding the lowest id. Branch 0 forbids 3, 4 and 5, so
    # {3,4,5} cannot be hit, and 0 is excluded from its siblings. Under
    # branch 1, ids 6 and 7 are forbidden and {0,6,7} can only be hit by the
    # excluded 0, so that node is cut at once. Under branch 2 the search skips
    # the excluded 0 in {0,6,7} and takes 6, then 3.
    to_hit = [frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({0, 6, 7})]
    blocked = [frozenset(b) for b in ({0, 3}, {0, 4}, {0, 5}, {1, 6}, {1, 7})]
    assert minimal_hs(to_hit, blocked, 8) == frozenset({2, 3, 6})
    assert _reference_minimal_hs(to_hit, blocked, 8) == frozenset({2, 3, 6})


@pytest.mark.parametrize("to_hit, blocked, m, expected", [
    # After 5 and 4, {1,2} and {0,1} tie on option count and size; the branching
    # set is {0,1}, the one holding the lowest differing id (0), not the first.
    ([{1, 2}, {0, 1}, {5}, {3, 4}], [{3, 5}, {0, 1}], 6, {0, 2, 4, 5}),
    # Under 3 and 1, {4,5} and {0,2,4} both have two options (0 is forbidden);
    # {4,5} wins on size although {2,4} is the smaller option list.
    ([{4, 5}, {0, 2, 4}, {0, 3}, {1, 2}], [{0, 5}, {0, 4}, {0, 3}], 6, {1, 3, 4}),
], ids=["lowest-option-breaks-ties", "size-breaks-ties"])
def test_minimal_hs_branching_set_tie_breaks(to_hit, blocked, m, expected):
    to_hit, blocked = [frozenset(s) for s in to_hit], [frozenset(b) for b in blocked]
    assert minimal_hs(to_hit, blocked, m) == frozenset(expected)
    assert _reference_minimal_hs(to_hit, blocked, m) == frozenset(expected)


@st.composite
def growing_families(draw):
    """A feature count and a run of additions: (to-hit or blocked, the set, call after it)."""
    m = draw(st.integers(1, 12))
    width = draw(st.integers(1, min(m, 4)))  # short sets, so that the search often backtracks
    sets = st.frozensets(st.integers(0, m - 1), min_size=1, max_size=width)
    return m, draw(st.lists(st.tuples(st.booleans(), sets, st.booleans()), max_size=30))


@settings(max_examples=200)
@given(growing_families())
def test_state_answers_are_minimal_hitting_sets_at_every_prefix(problem):
    # the families grow one set at a time, as in the enumeration loop; a state
    # that skips a call absorbs several sets at once. A state tries its last
    # answer's ids first, so it may return another minimal hitting set than a
    # stateless call, but it finds one exactly when the reference does.
    m, steps = problem
    state = _HittingSets(m)
    to_hit, blocked = [], []
    for is_hit, s, call in steps:
        (to_hit if is_hit else blocked).append(s)
        if call:
            expected = _reference_minimal_hs(to_hit, blocked, m)
            answer = minimal_hs(to_hit, blocked, m, _state=state)
            assert (answer is None) == (expected is None)
            if answer is not None:
                _assert_minimal_hs(answer, to_hit, blocked)
            assert minimal_hs(to_hit, blocked, m) == expected


def test_state_tries_the_last_answer_first():
    # A fresh search branches on {2}, then on {0,1} in ascending order, and
    # returns {0,2}. The state's last answer was {1}, so it tries 1 first and
    # returns {1,2}, another minimal hitting set.
    state = _HittingSets(3)
    to_hit = [frozenset({1, 2})]
    assert minimal_hs(to_hit, [], 3, _state=state) == frozenset({1})
    to_hit += [frozenset({2}), frozenset({0, 1})]
    assert minimal_hs(to_hit, [], 3) == frozenset({0, 2})
    assert _reference_minimal_hs(to_hit, [], 3) == frozenset({0, 2})
    assert minimal_hs(to_hit, [], 3, _state=state) == frozenset({1, 2})


def test_state_refuses_families_that_shrink_or_another_m():
    state = _HittingSets(3)
    to_hit, blocked = [frozenset({0}), frozenset({1})], [frozenset({2})]
    assert minimal_hs(to_hit, blocked, 3, _state=state) == frozenset({0, 1})
    with pytest.raises(ContractError, match="can only grow"):
        minimal_hs(to_hit[:1], blocked, 3, _state=state)
    with pytest.raises(ContractError, match="can only grow"):
        minimal_hs(to_hit, [], 3, _state=state)
    with pytest.raises(ContractError, match="built for m = 3"):
        minimal_hs(to_hit, blocked, 4, _state=state)
    assert minimal_hs(to_hit, blocked, 3, _state=state) == frozenset({0, 1})


def test_state_checks_the_universe_of_sets_added_late():
    state = _HittingSets(3)
    to_hit, blocked = [frozenset({0, 1})], []
    assert minimal_hs(to_hit, blocked, 3, _state=state) == frozenset({0})
    blocked.append(frozenset({0, 5}))  # reaches outside, so it can never be completed
    assert minimal_hs(to_hit, blocked, 3, _state=state) == frozenset({0})
    blocked.append(frozenset({0}))
    assert minimal_hs(to_hit, blocked, 3, _state=state) == frozenset({1})
    to_hit.append(frozenset({2, 3}))
    with pytest.raises(ContractError, match="outside feature universe"):
        minimal_hs(to_hit, blocked, 3, _state=state)
    to_hit[-1] = frozenset({2})  # the refused set was not absorbed
    assert minimal_hs(to_hit, blocked, 3, _state=state) == frozenset({1, 2})


def test_minimal_hs_universe_check():
    with pytest.raises(ContractError, match="outside feature universe"):
        minimal_hs([frozenset({0, 3})], [], 3)
    with pytest.raises(ContractError, match="outside feature universe"):
        minimal_hs([frozenset({-1})], [], 3)
    # a blocked set reaching outside the universe can never be completed
    assert minimal_hs([frozenset({0})], [frozenset({0, 5}), frozenset({-1})], 2) == frozenset({0})


# --- enumerate -------------------------------------------------------------------


def test_enumerate_fixture_complete(adult_model, adult_instance):
    report = enumerate_explanations(adult_model, adult_instance)
    assert report.complete
    assert set(report.axp_sets()) == {frozenset({0, 5}), frozenset({0, 1})}
    assert set(report.cxp_sets()) == {frozenset({0}), frozenset({1, 5})}
    kinds = [e.kind for e in report.events()]
    assert kinds == ["axp", "cxp", "axp", "cxp"]


def test_enumerate_conjunction():
    model = conjunction_model()
    report = enumerate_explanations(model, Instance((True, True)))
    assert report.complete
    assert set(report.axp_sets()) == {frozenset({0, 1})}
    assert set(report.cxp_sets()) == {frozenset({0}), frozenset({1})}


def test_enumerate_constant_prediction():
    model = constant_model()
    report = enumerate_explanations(model, Instance((True, False)))
    assert report.complete
    assert report.axp_sets() == [frozenset()]
    assert report.cxp_sets() == []


def test_enumerate_class_precondition(adult_model, adult_instance):
    with pytest.raises(ContractError):
        enumerate_explanations(adult_model, adult_instance, c=1)


def test_budget_invariants():
    with pytest.raises(ContractError):
        Budget()
    with pytest.raises(ContractError):
        Budget(seconds=1.0, unbounded=True)
    assert Budget.unlimited().unbounded
    assert Budget(seconds=0.0, max_axps=0).seconds == 0.0


@pytest.mark.parametrize("limits", [
    {"seconds": float("nan")}, {"seconds": float("inf")}, {"seconds": -1.0},
    {"max_axps": -2}, {"max_cxps": -1}, {"max_oracle_calls": -5},
])
def test_budget_rejects_non_finite_or_negative_limits(limits):
    with pytest.raises(ContractError, match="finite and >= 0"):
        Budget(**limits)


def test_budget_max_axps(adult_model, adult_instance):
    report = enumerate_explanations(
        adult_model, adult_instance, budget=Budget(max_axps=1)
    )
    assert not report.complete
    assert len(report.axps) == 1
    assert report.axp_sets() == [frozenset({0, 5})]


def test_budget_zero_seconds(adult_model, adult_instance):
    report = enumerate_explanations(
        adult_model, adult_instance, budget=Budget(seconds=0.0)
    )
    assert not report.complete
    assert report.axps == () and report.cxps == ()


def test_budget_oracle_calls_interrupts_cleanly(adult_model, adult_instance):
    full = enumerate_explanations(adult_model, adult_instance)
    for cap in range(full.oracle_calls + 1):
        partial = enumerate_explanations(
            adult_model, adult_instance, budget=Budget(max_oracle_calls=cap)
        )
        assert partial.oracle_calls <= cap
        # every recorded explanation is complete and a prefix of the full run
        n_a, n_c = len(partial.axps), len(partial.cxps)
        assert partial.axp_sets() == full.axp_sets()[:n_a]
        assert partial.cxp_sets() == full.cxp_sets()[:n_c]


def test_anytime_prefix_property(adult_model, adult_instance):
    full = enumerate_explanations(adult_model, adult_instance)
    for k in range(1, 3):
        partial = enumerate_explanations(
            adult_model, adult_instance, budget=Budget(max_axps=k)
        )
        assert partial.axp_sets() == full.axp_sets()[: len(partial.axps)]
        assert partial.cxp_sets() == full.cxp_sets()[: len(partial.cxps)]


def test_axp_first_mode_reaches_the_same_sets(adult_model, adult_instance):
    a = enumerate_explanations(adult_model, adult_instance, mode="cxp-first")
    b = enumerate_explanations(adult_model, adult_instance, mode="axp-first")
    assert set(a.axp_sets()) == set(b.axp_sets())
    assert set(a.cxp_sets()) == set(b.cxp_sets())


def _report_digest(reports) -> str:
    """sha256 over every event's kind, features, index and oracle-call count."""
    summary = [
        (
            [(e.kind, sorted(e.features), e.discovery_index, e.oracle_calls) for e in r.events()],
            r.oracle_calls,
            r.complete,
        )
        for r in reports
    ]
    return hashlib.sha256(repr(summary).encode()).hexdigest()


# Reports are pinned byte for byte: discovery order and the oracle-call count at
# each event, not only the final sets. The axp-first digests were re-pinned
# when witness-guided CXp extraction cut their oracle calls (sets and order
# are pinned apart, by test_axp_first_discovery_order_is_pinned). Both interop
# digests were re-pinned when minimal_hs dropped its greedy pre-pass: a call
# that greedy used to answer now gets the exact search's first solution, so
# the interop candidates, hence order and call counts, moved; complete runs
# still find the same sets. Three were re-pinned again when dual extraction
# began to skip the trials that a collected target refutes: only call counts
# moved (adult cxp-first 15 -> 14 calls; under the 1500-call budget, interop
# cxp-first records more events and axp-first row 4 completes in 1305 calls;
# test_skipping_refuted_trials_moves_only_call_counts checks the rest). Both
# interop digests were re-pinned when the hitting-set state began to try its
# last answer's ids first: some candidates, hence order and call counts, moved
# (under the 1500-call budget cxp-first records 59 + 66 and 59 + 66 events,
# was 58 + 65 and 59 + 60; axp-first rows 4 and 7 complete in 1255 and 887
# calls); test_phase_saving_finds_the_sets_of_the_stateless_engine checks
# that complete runs find the same sets. The interop axp-first digest was
# re-pinned when the flip search began to stop at the first box whose lower
# bound flips: its witnesses keep the instance's value on more features, so
# extraction decides more trials without a call; only call counts moved
# (rows 4 and 7 complete in 1175 and 708 calls). Sets and order are the
# pinned ones, and cxp-first does not move: an AXp trial uses no witness.
# The interop axp-first digest was re-pinned again when the flip search
# began to pop by bound plus floor and to accept a child whose floor flips
# as soon as it is made: it returns other witness boxes, so extraction
# decides other CXp trials without a call; only call counts moved (rows 4
# and 7 complete in 1137 and 729 calls). cxp-first does not move.
@pytest.mark.parametrize("source, mode, digest", [
    ("adult", "cxp-first",
     "2a223f2db3c81e762907772e0d4005faf31ba97c317492687919f15c6e180d3f"),
    ("adult", "axp-first",
     "9ec6cedc1c8ef60093b79b96ccdd93185db63eae510dcaf1e6c37f35ce1d77bb"),
    ("interop", "cxp-first",
     "2d0a510a66cae255f3278c8762cd1d93d4a18b27ae622cd1fdf551880f9925df"),
    ("interop", "axp-first",
     "10bda3ab4bb1667ad7bc8d0d488186e99165b48cc7b5b7a1090b8f5b5fd3d1b8"),
], ids=["adult-cxp-first", "adult-axp-first", "interop-cxp-first", "interop-axp-first"])
def test_reports_are_pinned(adult_model, adult_instance, interop, source, mode, digest):
    if source == "adult":
        model, points, budget = adult_model, [adult_instance], None
    else:
        model, points = interop[0], [interop[1][4], interop[1][7]]
        budget = Budget(max_oracle_calls=1500)
    reports = [enumerate_explanations(model, v, budget=budget, mode=mode) for v in points]
    assert _report_digest(reports) == digest


@pytest.fixture(scope="module")
def complete_axp_first(adult_model, adult_instance, interop):
    """Complete axp-first reports: the adult fixture, then interop rows 4 and 7."""
    runs = [(adult_model, adult_instance)] + [(interop[0], interop[1][row]) for row in (4, 7)]
    return [enumerate_explanations(model, v, mode="axp-first") for model, v in runs]


def test_axp_first_discovery_order_is_pinned(complete_axp_first):
    # Sets and discovery order only, with no oracle-call counts: whatever an
    # extraction saves in calls, it must record the same sets in the same order.
    # Re-pinned when minimal_hs dropped its greedy pre-pass, which changed some
    # candidates and so the order; each run's final sets did not change.
    # Re-pinned again when the hitting-set state began to try its last
    # answer's ids first, for the same reason and with the same sets.
    summary = [
        ([(e.kind, sorted(e.features), e.discovery_index) for e in r.events()], r.complete)
        for r in complete_axp_first
    ]
    digest = hashlib.sha256(repr(summary).encode()).hexdigest()
    assert digest == "26d654b1cd2e6a48f53f053463764431e08c285c26af14edeff02874907d3e34"


def test_axp_first_call_totals_are_pinned(complete_axp_first):
    # interop row 7 was 1081 calls before minimal_hs dropped its greedy
    # pre-pass; the exact search's first solutions cost it 14 fewer. Rows 4
    # and 7 took 1595 and 1067 calls before dual extraction skipped the
    # trials that a collected target refutes. Rows 4 and 7 took 1305 and 869
    # calls before the hitting-set state tried its last answer's ids first,
    # which moved the candidates. They took 1255 and 887 calls before the
    # flip search stopped at the first box whose lower bound flips; its
    # witnesses keep the instance's value on more features, so more CXp
    # trials are decided without a call. They took 1175 and 708 calls before
    # the flip search popped by bound plus floor and accepted a child whose
    # floor flips as soon as it was made; its witnesses moved, and with them
    # the CXp trials decided without a call (1883 -> 1866 in total).
    assert [r.oracle_calls for r in complete_axp_first] == [9, 1137, 729]


@pytest.mark.parametrize("mode", ["cxp-first", "axp-first"])
def test_phase_saving_finds_the_sets_of_the_stateless_engine(
    adult_model, adult_instance, interop, monkeypatch, mode
):
    # Differential: the same complete runs with the phase cleared before every
    # call, so each candidate is the one a stateless call gives (ids in
    # ascending order only). The state is kept, so the loop's masks, and the
    # extraction trials they refute, are as in the run with phase saving. The
    # loop reads minimal_hs from the module at call time, so the wrapper is
    # the engine.
    runs = [(adult_model, adult_instance)] + [(interop[0], interop[1][row]) for row in (4, 7)]
    saved = [enumerate_explanations(model, v, mode=mode) for model, v in runs]
    original = enumeration.minimal_hs

    def stateless(to_hit, blocked, m, _state=None):
        _state.phase = 0
        return original(to_hit, blocked, m, _state=_state)

    monkeypatch.setattr(enumeration, "minimal_hs", stateless)
    stateless = [enumerate_explanations(model, v, mode=mode) for model, v in runs]
    for report, fresh in zip(saved, stateless):
        assert report.complete and fresh.complete
        assert set(report.axp_sets()) == set(fresh.axp_sets())
        assert set(report.cxp_sets()) == set(fresh.cxp_sets())
    # the two engines took different paths, so the comparison tests something
    assert any(
        [e.features for e in r.events()] != [e.features for e in f.events()]
        for r, f in zip(saved, stateless)
    )


def test_enumerate_matches_brute_force_fuzz(rng):
    for _ in range(40):
        m = rng.randint(2, 8)
        space = random_space(rng, m)
        model = random_ensemble(
            rng, space, n_trees=rng.randint(1, 6), depth=rng.randint(1, 3),
            k=rng.choice((2, 2, 3)),
        )
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        report = enumerate_explanations(model, v, mode=rng.choice(("cxp-first", "axp-first")))
        assert report.complete
        ref_axps, ref_cxps = brute_force_all_xps(model, v, c)
        assert set(report.axp_sets()) == set(ref_axps)
        assert set(report.cxp_sets()) == set(ref_cxps)
        assert check_duality(report.axp_sets(), report.cxp_sets()) is None


# --- brute_force_all_xps / check_duality --------------------------------------------


def test_brute_force_all_xps_trivial_cases(adult_model, adult_instance):
    axps, cxps = brute_force_all_xps(adult_model, adult_instance, 0)
    assert set(axps) == {frozenset({0, 5}), frozenset({0, 1})}
    assert set(cxps) == {frozenset({0}), frozenset({1, 5})}

    model = disjunction_model()
    axps, cxps = brute_force_all_xps(model, Instance((True, True)), 1)
    assert set(axps) == {frozenset({0}), frozenset({1})}
    assert set(cxps) == {frozenset({0, 1})}

    model = conjunction_model()
    axps, cxps = brute_force_all_xps(model, Instance((True, True)), 1)
    assert set(axps) == {frozenset({0, 1})}
    assert set(cxps) == {frozenset({0}), frozenset({1})}


def test_brute_force_all_xps_capacity(rng):
    space = random_space(rng, 22, kinds=("boolean",))
    model = random_ensemble(rng, space, n_trees=1, depth=1)
    v = random_instance(rng, space)
    with pytest.raises(CapacityError):
        brute_force_all_xps(model, v, evaluate(model, v).class_id)


def test_check_duality_ok_and_violation():
    assert check_duality([{0, 1}], [{0}, {1}]) is None
    violation = check_duality([{0}], [{0}, {1}])
    assert violation is not None
    assert violation.reason == "misses"
    assert violation.offender == frozenset({0})
    assert violation.counterpart == frozenset({1})
    not_minimal = check_duality([{0, 1}], [{0}])
    assert not_minimal is not None and not_minimal.reason == "not-minimal"
    # each set is a minimal hitting set of the other side, yet {1, 4} hits both
    # CXp's and contains no reported AXp, so an AXp is missing
    unreported = check_duality([{1, 3}, {2, 4}], [{1, 2}, {3, 4}])
    assert unreported == DualityViolation("axp", frozenset({1, 4}), None, "unreported")
    assert check_duality([frozenset()], []) is None  # constant prediction


def test_check_duality_sizes_its_search_by_the_ids_that_occur(monkeypatch):
    original = enumeration.minimal_hs
    universes = []

    def recording(to_hit, blocked, m, **kwargs):
        universes.append(m)
        assert m <= 4, "the search was sized by the largest id"
        return original(to_hit, blocked, m, **kwargs)

    monkeypatch.setattr(enumeration, "minimal_hs", recording)
    assert check_duality([frozenset({10**6})], [frozenset({10**6})]) is None
    assert universes == [1, 1]
    # the same unreported AXp as {1, 4} in the test above, under far-off ids
    unreported = check_duality([{10, 30}, {20, 10**6}], [{10, 20}, {30, 10**6}])
    assert unreported == DualityViolation("axp", frozenset({10, 10**6}), None, "unreported")


def test_enumeration_soundness_fuzz(rng):
    for _ in range(15):
        m = rng.randint(2, 6)
        space = random_space(rng, m)
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 4), depth=2)
        v = random_instance(rng, space)
        c = evaluate(model, v).class_id
        report = enumerate_explanations(model, v)
        for axp in report.axp_sets():
            assert decide_sufficiency(model, v, c, axp).sufficient
            for fid in axp:
                assert not decide_sufficiency(model, v, c, axp - {fid}).sufficient
        for cxp in report.cxp_sets():
            assert find_counterexample(model, v, c, cxp) is not None
            for fid in cxp:
                assert find_counterexample(model, v, c, cxp - {fid}) is None

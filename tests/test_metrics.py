import math
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from ffax.attribution import AttributionVector
from ffax.errors import ContractError, UndefinedMetricError
from ffax.metrics import (
    Ranking,
    average_rows,
    compare_vectors,
    kendall_tau,
    manhattan_error,
    normalize_abs,
    rbo,
)

ADULT_FFA = AttributionVector(
    values=(1.0, 0.5, 0.0, 0.0, 0.0, 0.5), source="ffa", basis=2, complete=True
)


def external(values, name="x"):
    return AttributionVector(values=tuple(values), source=f"external:{name}")


# --- reference implementations (independent, deliberately naive) -----------------


def tau_pair_count_reference(a, b):
    m = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(m):
        for j in range(i + 1, m):
            sa = (a[i] > a[j]) - (a[i] < a[j])
            sb = (b[i] > b[j]) - (b[i] < b[j])
            if sa == 0:
                ties_a += 1
            if sb == 0:
                ties_b += 1
            if sa * sb > 0:
                concordant += 1
            elif sa * sb < 0:
                discordant += 1
    pairs = m * (m - 1) // 2
    denominator = math.sqrt((pairs - ties_a) * (pairs - ties_b))
    return (concordant - discordant) / denominator


def rbo_direct_reference(a, b, p):
    ra = sorted(range(len(a)), key=lambda i: (-a[i], i))
    rb = sorted(range(len(b)), key=lambda i: (-b[i], i))
    m = len(ra)
    total = 0.0
    for depth in range(1, m + 1):
        overlap = len(set(ra[:depth]) & set(rb[:depth]))
        total += (overlap / depth) * p**depth
    final_agreement = len(set(ra) & set(rb)) / m
    return final_agreement * p**m + (1 - p) / p * total


# --- normalize_abs ---------------------------------------------------------------


def test_normalize_takes_absolute_values_and_scales():
    vec = external((-2.0, 1.0, 0.0))
    assert normalize_abs(vec).values == (1.0, 0.5, 0.0)


def test_normalize_keeps_complete_ffa_fixed():
    assert normalize_abs(ADULT_FFA).values == ADULT_FFA.values


def test_normalize_all_zero():
    assert normalize_abs(external((0.0, 0.0))).values == (0.0, 0.0)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_normalize_is_idempotent(values):
    once = normalize_abs(external(values))
    assert normalize_abs(once).values == once.values


@given(
    # zero or at least 1e-300 in magnitude, so that no v * scale underflows to
    # zero or a subnormal and the scaled vector really is a rescaling of the base
    st.lists(st.floats(-10, 10).filter(lambda x: x == 0.0 or abs(x) >= 1e-300),
             min_size=2, max_size=8),
    st.floats(0.1, 50.0),
)
def test_scaling_never_changes_rankings_or_metrics(values, scale):
    base = external(values)
    scaled = external([v * scale for v in values])
    assert Ranking.of(normalize_abs(base)).order == Ranking.of(normalize_abs(scaled)).order
    reference = external([float(i) for i in range(len(values))])
    rows_a = compare_vectors(reference, [("a", base)])
    rows_b = compare_vectors(reference, [("b", scaled)])
    assert rows_a[0].error == pytest.approx(rows_b[0].error, abs=1e-9)
    if rows_a[0].tau is not None:
        assert rows_a[0].tau == pytest.approx(rows_b[0].tau, abs=1e-12)
    assert rows_a[0].rbo == pytest.approx(rows_b[0].rbo, abs=1e-12)


# --- manhattan_error --------------------------------------------------------------


def test_manhattan_basics():
    assert manhattan_error(ADULT_FFA, ADULT_FFA) == 0.0
    other = external((1.0, 0.0, 0.0, 0.0, 0.0, 0.5))
    assert manhattan_error(ADULT_FFA, other) == pytest.approx(0.5)
    with pytest.raises(ContractError):
        manhattan_error(ADULT_FFA, external((1.0,)))


@given(
    st.lists(st.floats(0, 1), min_size=2, max_size=8),
    st.lists(st.floats(0, 1), min_size=2, max_size=8),
    st.lists(st.floats(0, 1), min_size=2, max_size=8),
)
def test_manhattan_is_a_metric(a, b, c):
    m = min(len(a), len(b), len(c))
    a, b, c = a[:m], b[:m], c[:m]
    assert manhattan_error(a, b) == pytest.approx(manhattan_error(b, a))
    assert manhattan_error(a, b) <= m
    assert manhattan_error(a, c) <= manhattan_error(a, b) + manhattan_error(b, c) + 1e-12


# --- kendall_tau -------------------------------------------------------------------


def test_tau_perfect_agreement_and_reversal():
    a = (4.0, 3.0, 2.0, 1.0)
    assert kendall_tau(a, a) == pytest.approx(1.0)
    assert kendall_tau(a, tuple(reversed(a))) == pytest.approx(-1.0)


def test_tau_undefined_on_constant_vectors():
    with pytest.raises(UndefinedMetricError):
        kendall_tau((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(ContractError):
        kendall_tau((1.0,), (1.0,))


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=10),
    st.lists(st.floats(-5, 5), min_size=2, max_size=10),
)
def test_tau_matches_quadratic_reference(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    pairs = m * (m - 1) // 2
    ties_a = sum(1 for i in range(m) for j in range(i + 1, m) if a[i] == a[j])
    ties_b = sum(1 for i in range(m) for j in range(i + 1, m) if b[i] == b[j])
    if ties_a == pairs or ties_b == pairs:
        with pytest.raises(UndefinedMetricError):
            kendall_tau(a, b)
        return
    assert kendall_tau(a, b) == pytest.approx(tau_pair_count_reference(a, b), abs=1e-12)
    assert kendall_tau(b, a) == pytest.approx(kendall_tau(a, b), abs=1e-12)


# --- rbo ----------------------------------------------------------------------------


def test_rbo_identical_rankings_for_any_p():
    for p in (0.1, 0.5, 0.9, 0.99):
        assert rbo(ADULT_FFA, ADULT_FFA, p) == pytest.approx(1.0, abs=1e-12)


def test_rbo_single_feature_is_one():
    assert rbo((3.0,), (5.0,), 0.9) == pytest.approx(1.0, abs=1e-15)


def test_rbo_reversed_matches_reference():
    a = tuple(float(i) for i in range(6))
    b = tuple(reversed(a))
    assert rbo(a, b, 0.9) == pytest.approx(rbo_direct_reference(a, b, 0.9), abs=1e-12)
    assert rbo(a, b, 0.9) < 1.0


def test_rbo_p_contract():
    with pytest.raises(ContractError):
        rbo((1.0, 2.0), (1.0, 2.0), p=1.0)
    with pytest.raises(ContractError):
        rbo((1.0, 2.0), (1.0, 2.0), p=0.0)


@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=9),
    st.lists(st.floats(-5, 5), min_size=1, max_size=9),
    st.floats(0.05, 0.95),
)
def test_rbo_matches_direct_reference(a, b, p):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    assert rbo(a, b, p) == pytest.approx(rbo_direct_reference(a, b, p), abs=1e-12)
    assert rbo(a, b, p) == pytest.approx(rbo(b, a, p), abs=1e-12)


def test_rbo_is_one_iff_rankings_match():
    for perm in permutations(range(4)):
        values = tuple(float(4 - perm.index(i)) for i in range(4))
        identity = (4.0, 3.0, 2.0, 1.0)
        score = rbo(identity, values, 0.9)
        if Ranking.of(values).order == Ranking.of(identity).order:
            assert score == pytest.approx(1.0, abs=1e-12)
        else:
            assert score < 1.0 - 1e-9


def test_ranking_tie_rule_is_ascending_id():
    assert Ranking.of((0.5, 0.9, 0.5)).order == (1, 0, 2)


# --- compare_vectors / averaging ------------------------------------------------------


def test_compare_self_is_perfect():
    rows = compare_vectors(ADULT_FFA, [("self", ADULT_FFA)])
    assert rows[0].error == 0.0
    assert rows[0].tau == pytest.approx(1.0)
    assert rows[0].rbo == pytest.approx(1.0)


def test_compare_relationship_only_vector():
    # weight on an irrelevant feature: large error, non-positive tau, rbo < 1
    candidate = external((0.0, 0.0, 0.0, 0.8, 0.0, 0.0), name="heuristic")
    rows = compare_vectors(ADULT_FFA, [("heuristic", candidate)])
    assert rows[0].error == pytest.approx(2.0 + 1.0)  # normalized weight becomes 1
    assert rows[0].tau is not None and rows[0].tau <= 0.0
    assert rows[0].rbo < 1.0


def test_compare_records_undefined_tau_as_missing():
    rows = compare_vectors(ADULT_FFA, [("flat", external((0.2,) * 6))])
    assert rows[0].tau is None
    averaged = average_rows([rows])
    assert averaged[0].tau is None and averaged[0].tau_defined == 0


def test_averaging_across_instances_is_arithmetic():
    first = compare_vectors(ADULT_FFA, [("a", external((1.0, 0.5, 0.0, 0.0, 0.0, 0.5)))])
    second = compare_vectors(ADULT_FFA, [("a", external((0.0, 0.0, 0.0, 0.8, 0.0, 0.0)))])
    averaged = average_rows([first, second])
    assert averaged[0].error == pytest.approx((first[0].error + second[0].error) / 2)
    assert averaged[0].instances == 2
    assert averaged[0].rbo == pytest.approx((first[0].rbo + second[0].rbo) / 2)


def test_compare_rejects_length_mismatch():
    with pytest.raises(ContractError):
        compare_vectors(ADULT_FFA, [("bad", external((1.0, 2.0)))])

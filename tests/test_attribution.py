import math
import random

import pytest
from hypothesis import given, strategies as st

from ffax.attribution import (
    AttributionVector,
    conversion_check,
    convergence_series,
    ffa,
    manhattan,
    wffa,
)
from ffax.enumeration import Budget, EnumerationReport, Explanation, enumerate_explanations
from ffax.errors import DegenerateExplanationError, UndefinedAttributionError
from ffax.model import Instance, evaluate
from ffax.synth import random_ensemble, random_instance, random_space

ADULT_AXPS = [frozenset({0, 5}), frozenset({0, 1})]  # {Education, Hours/w}, {Education, Status}


def set_families(min_set_size=0):
    return st.lists(
        st.frozensets(st.integers(0, 7), min_size=min_set_size, max_size=6),
        min_size=1,
        max_size=10,
    )


def naive_ffa_tally(axps, m):
    """Independent recount: per feature, scan the collection one set at a time."""
    out = []
    for fid in range(m):
        hits = sum(1 for s in axps if fid in s)
        out.append(hits / len(axps))
    return out


def naive_wffa_tally(axps, m):
    out = []
    for fid in range(m):
        total = 0.0
        for s in axps:
            if fid in s:
                total += 1.0 / len(s)
        out.append(total / len(axps))
    return out


def test_ffa_on_fixture_collection():
    vec = ffa(ADULT_AXPS, 6, complete=True)
    assert vec.values == (1.0, 0.5, 0.0, 0.0, 0.0, 0.5)
    assert vec.basis == 2 and vec.complete and vec.source == "ffa"


def test_ffa_constant_prediction_collection():
    assert ffa([frozenset()], 4).values == (0.0, 0.0, 0.0, 0.0)


def test_ffa_empty_collection_is_an_error():
    with pytest.raises(UndefinedAttributionError):
        ffa([], 4)


def test_ffa_matches_independent_tally(rng):
    for _ in range(50):
        m = 8
        axps = [
            frozenset(rng.sample(range(m), rng.randint(1, m)))
            for _ in range(rng.randint(1, 12))
        ]
        assert list(ffa(axps, m).values) == naive_ffa_tally(axps, m)


def test_wffa_on_fixture_collection():
    vec = wffa(ADULT_AXPS, 6)
    assert vec.values == (0.5, 0.25, 0.0, 0.0, 0.0, 0.25)


def test_wffa_symmetric_singletons():
    assert wffa([frozenset({0}), frozenset({1})], 2).values == (0.5, 0.5)


def test_wffa_errors():
    with pytest.raises(UndefinedAttributionError):
        wffa([], 3)
    with pytest.raises(DegenerateExplanationError):
        wffa([frozenset()], 3)


def test_wffa_matches_independent_tally(rng):
    for _ in range(50):
        m = 8
        axps = [
            frozenset(rng.sample(range(m), rng.randint(1, m)))
            for _ in range(rng.randint(1, 12))
        ]
        got = wffa(axps, m).values
        want = naive_wffa_tally(axps, m)
        assert all(abs(g - w) <= 1e-15 for g, w in zip(got, want))


@given(set_families(min_set_size=1))
def test_wffa_sums_to_one(axps):
    total = math.fsum(wffa(axps, 8).values)
    assert abs(total - 1.0) <= 1e-12


@given(set_families(min_set_size=1))
def test_order_of_collection_is_irrelevant(axps):
    shuffled = list(axps)
    random.Random(7).shuffle(shuffled)
    assert ffa(axps, 8).values == ffa(shuffled, 8).values
    assert wffa(axps, 8).values == wffa(shuffled, 8).values


@given(set_families(min_set_size=1))
def test_conversion_identity(axps):
    f = ffa(axps, 8)
    w = wffa(axps, 8)
    assert conversion_check(f, w, axps)


def test_conversion_identity_fixture_numbers():
    f = ffa(ADULT_AXPS, 6)
    w = wffa(ADULT_AXPS, 6)
    assert math.fsum(f.values) == pytest.approx(2.0)
    assert math.fsum(w.values) == pytest.approx(1.0)
    assert conversion_check(f, w, ADULT_AXPS)


def test_conversion_check_detects_mismatch():
    f = ffa(ADULT_AXPS, 6)
    w = wffa(ADULT_AXPS, 6)
    corrupted = AttributionVector(
        values=(0.9,) + w.values[1:], source="wffa", basis=2
    )
    assert not conversion_check(f, corrupted, ADULT_AXPS)


def test_ffa_positive_iff_feature_occurs(rng):
    for _ in range(30):
        m = rng.randint(2, 8)
        axps = [
            frozenset(rng.sample(range(m), rng.randint(1, m)))
            for _ in range(rng.randint(1, 6))
        ]
        vec = ffa(axps, m)
        occurs = set().union(*axps)
        for fid in range(m):
            assert (vec.values[fid] > 0) == (fid in occurs)


# --- convergence series -------------------------------------------------------


def fabricate_report(entries, m=6):
    """entries: list of (features, time) tuples, recorded as AXp's."""
    axps = tuple(
        Explanation(
            kind="axp",
            mask=sum(1 << fid for fid in features),
            discovery_index=i,
            discovery_time=t,
            oracle_calls=i,
        )
        for i, (features, t) in enumerate(entries)
    )
    return EnumerationReport(
        instance=Instance(values=tuple([False] * m)),
        class_id=0,
        mode="cxp-first",
        complete=True,
        axps=axps,
        cxps=(),
        oracle_calls=len(axps),
        wall_time=entries[-1][1] if entries else 0.0,
        budget=Budget.unlimited(),
    )


def test_series_is_zero_once_everything_is_discovered():
    report = fabricate_report([({0, 5}, 0.1), ({0, 1}, 0.2)])
    exact = ffa(ADULT_AXPS, 6)
    series = convergence_series(report, exact, [0.05, 0.15, 0.3])
    assert series[0] == (0.05, None)  # nothing discovered yet
    assert series[2] == (0.3, 0.0)


def test_series_single_axp_prefix_error():
    report = fabricate_report([({0, 5}, 0.1), ({0, 1}, 0.2)])
    exact = ffa(ADULT_AXPS, 6)
    series = convergence_series(report, exact, [0.15])
    # prefix {{Education, Hours/w}}: error |1-1| + |1-0.5| + |0-0.5| = 1.0
    assert series[0][1] == pytest.approx(1.0, abs=1e-12)


def test_series_final_mark_zero_on_complete_runs(rng):
    for _ in range(10):
        m = rng.randint(2, 6)
        space = random_space(rng, m)
        model = random_ensemble(rng, space, n_trees=rng.randint(1, 4), depth=2)
        v = random_instance(rng, space)
        report = enumerate_explanations(model, v)
        assert report.complete
        exact = ffa(report.axp_sets(), m)
        last_time = max(e.discovery_time for e in report.axps)
        series = convergence_series(report, exact, [last_time + 1.0])
        assert series[0][1] == 0.0


def test_manhattan_contract():
    from ffax.errors import ContractError

    with pytest.raises(ContractError):
        manhattan((0.0, 1.0), (0.0,))

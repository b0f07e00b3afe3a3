"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with output visible:  pytest -s tests/test_acceptance.py
"""

import json
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import pytest

from conftest import FIXTURES, linear_corner_flip
from ffax.attribution import conversion_check, convergence_series, ffa, wffa
from ffax.cli import main as cli_main
from ffax.enumeration import (
    brute_force_all_xps,
    check_duality,
    enumerate_explanations,
)
from ffax.errors import DegenerateExplanationError
from ffax.metrics import compare_vectors, kendall_tau, rbo
from ffax.model import Instance, evaluate
from ffax.oracle import (
    PartialAssignment,
    brute_force_decide,
    decide_sufficiency,
    score_bounds,
)
from ffax.synth import random_ensemble, random_instance, random_linear, random_space
from ffax import formats

from test_metrics import rbo_direct_reference, tau_pair_count_reference

ADULT = FIXTURES / "adult"
INTEROP = FIXTURES / "interop"


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def small_fuzz_model(rng):
    m = rng.randint(3, 12)
    space = random_space(rng, m, max_categories=3)
    model = random_ensemble(
        rng, space,
        n_trees=rng.randint(1, 8),
        depth=rng.randint(1, 3),
        k=rng.choice((2, 2, 2, 3)),
    )
    return space, model, random_instance(rng, space)


# --- 1: worked-example reproduction ------------------------------------------------


def test_criterion_1_worked_example(adult_model, adult_instance):
    with criterion(1, "worked-example reproduction"):
        start = time.perf_counter()

        pred = evaluate(adult_model, adult_instance)
        assert abs(pred.scores[1] - (-0.4073)) <= 1e-9
        assert adult_model.class_names[pred.class_id] == "<50k"

        result = decide_sufficiency(adult_model, adult_instance, 0, {0, 5})
        assert result.sufficient
        bounds = score_bounds(
            adult_model, PartialAssignment(instance=adult_instance, fixed=frozenset({0, 5}))
        )
        assert abs(bounds.hi - (-0.0010)) <= 1e-9

        report = enumerate_explanations(adult_model, adult_instance)
        assert report.complete
        assert set(report.axp_sets()) == {frozenset({0, 5}), frozenset({0, 1})}

        f = ffa(report.axp_sets(), 6, complete=True)
        assert f.values == (1.0, 0.5, 0.0, 0.0, 0.0, 0.5)
        w = wffa(report.axp_sets(), 6, complete=True)
        assert w.values == (0.5, 0.25, 0.0, 0.0, 0.0, 0.25)

        assert time.perf_counter() - start < 1.0


# --- 2: enumerate equals brute force on fuzzed models --------------------------------


def test_criterion_2_brute_force_equivalence():
    with criterion(2, "enumeration equals exhaustive subset search"):
        start = time.perf_counter()
        rng = random.Random(52001)
        checked = 0
        while checked < 200:
            space, model, v = small_fuzz_model(rng)
            c = evaluate(model, v).class_id
            mode = "cxp-first" if checked % 2 == 0 else "axp-first"
            report = enumerate_explanations(model, v, mode=mode)
            assert report.complete
            ref_axps, ref_cxps = brute_force_all_xps(model, v, c)
            assert set(report.axp_sets()) == set(ref_axps)
            assert set(report.cxp_sets()) == set(ref_cxps)
            assert check_duality(report.axp_sets(), report.cxp_sets()) is None
            checked += 1
        assert time.perf_counter() - start < 300.0


# --- 3: oracle agreement --------------------------------------------------------------


def test_criterion_3_oracle_agreement():
    with criterion(3, "oracle agrees with exhaustive deciders"):
        rng = random.Random(52002)
        triples = 0
        while triples < 5000:
            space, model, v = small_fuzz_model(rng)
            c = evaluate(model, v).class_id
            for _ in range(20):
                subset = {fid for fid in range(space.m) if rng.random() < rng.random()}
                fast = decide_sufficiency(model, v, c, subset)
                slow = brute_force_decide(model, v, c, subset)
                assert fast.sufficient == slow.sufficient
                if not fast.sufficient:
                    witness = fast.witness
                    assert all(witness.values[f] == v.values[f] for f in subset)
                    assert evaluate(model, witness).class_id != c
                triples += 1

        linear_cases = 0
        while linear_cases < 1000:
            model, space = random_linear(rng, rng.randint(1, 8))
            v = random_instance(rng, space)
            c = evaluate(model, v).class_id
            fixed = {fid for fid in range(space.m) if rng.random() < 0.5}
            result = decide_sufficiency(model, v, c, fixed)
            assert result.sufficient == (not linear_corner_flip(model, v, c, fixed))
            if not result.sufficient:
                assert evaluate(model, result.witness).class_id != c
            linear_cases += 1


# --- 4: attribution identities ----------------------------------------------------------


def test_criterion_4_attribution_identities():
    with criterion(4, "attribution identities on complete runs"):
        rng = random.Random(52003)
        runs = 0
        while runs < 80:
            space, model, v = small_fuzz_model(rng)
            report = enumerate_explanations(model, v)
            assert report.complete
            axps = report.axp_sets()
            if not axps:
                continue
            m = space.m
            f = ffa(axps, m, complete=True)
            occurs = set().union(*axps) if axps else set()
            for fid in range(m):
                assert (f.values[fid] > 0) == (fid in occurs)
            if any(len(s) == 0 for s in axps):
                with pytest.raises(DegenerateExplanationError):
                    wffa(axps, m)
            else:
                w = wffa(axps, m, complete=True)
                assert abs(math.fsum(w.values) - 1.0) <= 1e-12
                assert conversion_check(f, w, axps, tolerance=1e-9)
            runs += 1


# --- 5: anytime convergence ---------------------------------------------------------------

# Twenty pinned fuzz models whose complete enumeration lands inside the 10-60 s
# window, chosen by runtime alone (32 features x 24 trees) by
# scripts/calibrate_convergence_pins.py --seeds 0:3000 --features 32 --trees 24
# on a 2-vCPU Intel Xeon box under Python 3.11, after the flip search began to
# pop by bound plus floor and to accept a child whose floor flips, which took
# the fastest earlier pins to the 10 s floor. It scanned seeds 0-315 and kept
# each pin in its 17-35 s band both in the scan and in a re-run of all twenty
# in one two-worker pool, in this map order. The two times after each pin are
# its scan and that re-run. When a pin leaves the window, re-run the script
# and paste its output here; do not widen the window.
CONVERGENCE_MODELS: tuple[tuple[int, int, int], ...] = (  # (seed, features, trees)
    (7, 32, 24),  # 24.1 s, 29.3 s
    (26, 32, 24),  # 23.5 s, 24.9 s
    (106, 32, 24),  # 17.7 s, 19.4 s
    (114, 32, 24),  # 25.1 s, 26.9 s
    (117, 32, 24),  # 22.1 s, 19.7 s
    (119, 32, 24),  # 22.9 s, 24.5 s
    (125, 32, 24),  # 21.9 s, 22.0 s
    (143, 32, 24),  # 26.0 s, 30.3 s
    (182, 32, 24),  # 17.0 s, 19.5 s
    (205, 32, 24),  # 23.3 s, 25.8 s
    (213, 32, 24),  # 29.8 s, 26.8 s
    (223, 32, 24),  # 26.0 s, 27.2 s
    (228, 32, 24),  # 27.6 s, 25.5 s
    (280, 32, 24),  # 33.7 s, 33.6 s
    (281, 32, 24),  # 29.7 s, 26.7 s
    (298, 32, 24),  # 23.9 s, 27.0 s
    (299, 32, 24),  # 20.3 s, 20.8 s
    (302, 32, 24),  # 20.7 s, 23.1 s
    (303, 32, 24),  # 17.5 s, 19.2 s
    (315, 32, 24),  # 23.0 s, 23.4 s
)
CONVERGENCE_MARKS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _convergence_case(spec):
    """The (space, model, instance) that a ``(seed, features, trees)`` pin names."""
    seed, m, trees = spec
    rng = random.Random(seed * 7919 + m * 31 + trees)
    space = random_space(rng, m, kinds=("boolean",))
    model = random_ensemble(rng, space, n_trees=trees, depth=3)
    v = random_instance(rng, space)
    return space, model, v


def _convergence_job(spec):
    space, model, v = _convergence_case(spec)
    start = time.perf_counter()
    report = enumerate_explanations(model, v)
    runtime = time.perf_counter() - start
    exact = ffa(report.axp_sets(), space.m)
    series = convergence_series(report, exact, CONVERGENCE_MARKS)
    return runtime, report.complete, [err for _, err in series]


def test_criterion_5_anytime_convergence():
    with criterion(5, "anytime attribution converges monotonically"):
        assert len(CONVERGENCE_MODELS) == 20
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_convergence_job, CONVERGENCE_MODELS))
        error_rows = []
        for (runtime, complete, errors), spec in zip(results, CONVERGENCE_MODELS):
            print(f"[acceptance] criterion 5 pin {spec}: {runtime:.1f} s")
            assert complete, spec
            assert 10.0 <= runtime <= 60.0, (
                f"pin {spec} ran {runtime:.1f} s, outside the 10-60 s window: re-run "
                "scripts/calibrate_convergence_pins.py and paste its pins; "
                "do not widen the window"
            )
            assert all(err is not None for err in errors), spec
            assert errors[-1] == 0.0, spec
            error_rows.append(errors)
        means = [
            math.fsum(row[j] for row in error_rows) / len(error_rows)
            for j in range(len(CONVERGENCE_MARKS))
        ]
        for earlier, later in zip(means, means[1:]):
            assert later <= earlier, means


# --- 6: metric correctness ------------------------------------------------------------------


def test_criterion_6_metric_correctness():
    with criterion(6, "rank metrics match quadratic references"):
        rng = random.Random(52006)
        pairs = 0
        while pairs < 1000:
            m = rng.randint(2, 12)
            # integer-heavy values force plenty of ties
            a = [float(rng.choice((0, 0, 1, 2, rng.uniform(-3, 3)))) for _ in range(m)]
            b = [float(rng.choice((0, 0, 1, 2, rng.uniform(-3, 3)))) for _ in range(m)]
            all_ties_a = all(x == a[0] for x in a)
            all_ties_b = all(x == b[0] for x in b)
            if all_ties_a or all_ties_b:
                continue
            assert abs(kendall_tau(a, b) - tau_pair_count_reference(a, b)) <= 1e-12
            p = rng.choice((0.5, 0.8, 0.9, 0.95))
            assert abs(rbo(a, b, p) - rbo_direct_reference(a, b, p)) <= 1e-12
            pairs += 1

        identity = ffa([frozenset({0, 2}), frozenset({0, 1})], 5)
        rows = compare_vectors(identity, [("self", identity)])
        assert rows[0].error == 0.0
        assert abs(rows[0].tau - 1.0) <= 1e-12
        assert abs(rows[0].rbo - 1.0) <= 1e-12


# --- 7: determinism ---------------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "identical configurations give identical reports"):
        outputs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            code = cli_main([
                "enumerate",
                "--model", str(ADULT / "model.json"),
                "--space", str(ADULT / "feature_space.json"),
                "--instances", str(ADULT / "instances.csv"),
                "--order", "0,1,2,3,4,5",
                "--output", str(path),
            ])
            assert code == 0
            outputs.append(json.loads(path.read_text()))
        for doc in outputs:
            doc.pop("timing")
        first, second = outputs
        assert first["axps"] == second["axps"]  # discovery order included
        assert first["cxps"] == second["cxps"]
        assert first["events"] == second["events"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# --- 8: dump interop ---------------------------------------------------------------------------


def test_criterion_8_dump_interop():
    with criterion(8, "trained toolkit dump scores identically"):
        meta = json.loads((INTEROP / "meta.json").read_text())
        assert meta["n_trees"] == 25 and meta["max_depth"] == 3
        space = formats.parse_feature_space((INTEROP / "feature_space.json").read_text())
        model = formats.parse_ensemble_dump(
            (INTEROP / "model_dump.json").read_text(),
            space,
            class_names=tuple(meta["classes"]),
        )
        assert len(model.trees) == 25 and model.single_score
        points = formats.parse_instances((INTEROP / "points.csv").read_text(), space)
        margins = [
            float(line)
            for line in (INTEROP / "expected_margins.csv").read_text().splitlines()[1:]
        ]
        assert len(points) == 100 and len(margins) == 100
        for inst, expected in zip(points, margins):
            assert abs(evaluate(model, inst).scores[1] - expected) <= 1e-6

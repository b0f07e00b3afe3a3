"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ffax import formats  # noqa: E402
from ffax.enumeration import enumerate_explanations  # noqa: E402


def test_every_hook_resolves():
    _, missing = spans.resolve_hooks()
    assert missing == []


@pytest.mark.parametrize("row", sorted(workloads.PINS))
def test_pinned_digests_match(row):
    model, points = workloads.load_interop()
    report = enumerate_explanations(model, points[row], mode="cxp-first")
    axps, cxps = report.axp_sets(), report.cxp_sets()
    assert report.complete
    assert (len(axps), len(cxps), workloads.xp_digest(axps, cxps)) == workloads.PINS[row]


def _synth_texts(seed):
    return [(formats.write_model(m), v.values) for m, v in workloads.synth_units(seed)]


def test_seed_changes_only_synth_models():
    assert _synth_texts(3) == _synth_texts(3)
    assert not set(_synth_texts(3)) & set(_synth_texts(4))

    interop = workloads.WORKLOADS["interop-complete"]
    (model_a, points_a), (model_b, points_b) = interop.setup(3), interop.setup(4)
    assert formats.write_model(model_a) == formats.write_model(model_b)
    assert points_a == points_b

    cli = workloads.WORKLOADS["cli-explain"]
    assert cli.setup(3) == cli.setup(4)


def test_missing_hook_gives_null_metrics(monkeypatch):
    monkeypatch.setattr(
        spans, "HOOKS", spans.HOOKS + (("ffax.enumeration", "no_such_name", "enumeration.minimal_hs"),)
    )
    tracer = spans.Tracer(enabled=True)
    workload = workloads.WORKLOADS["cli-explain"]
    argv = workload.setup(0)
    with tracer.hooked():
        workload.run_pass(argv + ["--rows", "0-1"], tracer)
    assert tracer.missing == ["ffax.enumeration.no_such_name"]
    layer = spans.per_layer(tracer, traced_s=1.0, untraced_s=1.0, axps=2)
    assert layer["enumeration.hs_calls"]["value"] is None
    assert layer["formats.parse_calls"]["value"] == 9
    assert layer["cells.compile_calls"]["value"] == 2
    assert set(layer) == set(spans.PER_LAYER)


def test_self_time_subtracts_direct_children():
    spans_ = [
        ["outer", 0.0, 10.0, None, None],
        ["child", 1.0, 4.0, 0, None],
        ["grandchild", 2.0, 3.0, 1, None],
        ["child", 5.0, 6.0, 0, None],
    ]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_explain_output_parses():
    text = (
        "row 3: class 'benign' (score 1.5)\n"
        "  AXp: {mean radius=10.08, worst area=437}\n"
        "  certified: min attainable score 0.1 >= 0\n"
        "row 4: class 'malignant'\n"
        "  AXp: (empty set) -- prediction is domain-constant\n"
    )
    assert workloads.parse_explain(text) == {
        3: ("benign", ["mean radius", "worst area"]),
        4: ("malignant", []),
    }


def test_ref_clock_rescales_by_probe_speed():
    clock = refclock.RefClock()
    ref = refclock.REF_PROBE_S
    # Probes of 2x the reference, then 1x; stretches of 1 s between them.
    clock.samples = [(0.0, 2 * ref), (1 + 2 * ref, 1 + 3 * ref), (2 + 3 * ref, 2 + 4 * ref)]
    ref_s, wall_s = clock.between(0, 3)
    assert wall_s == pytest.approx(2.0)
    assert ref_s == pytest.approx(1 / 1.5 + 1.0)


def test_ref_clock_restores_the_alarm():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock(period=0.01)
    with clock.running():
        _, ref_s, wall_s = clock.measure(sum, range(10**6))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert ref_s > 0 and wall_s > 0 and len(clock.samples) >= 2

#!/usr/bin/env python3
"""Record the oracle calls of enumerations, then replay and time them.

Runs enumerations, either complete ones of interop rows or the budgeted
ones of one ``synth-oracle`` seed (the models, points, call budget and mode
of ``perfbench/workloads.py``), with ``_find_counterexample_unchecked``
wrapped in ``ffax.enumeration`` so that every call's model, point, class,
fixed features, ``away`` feature (the dropped feature of a one-sided AXp
trial, else None) and answer are kept. The calls are then replayed in order,
as the enumerations made them, and every verdict and witness must equal the
recorded one.

Each replay starts with no compiled model, so it compiles each model's cell
system at that model's first call, as an enumeration does, and builds the
oracle's per-model memos from empty; that work is timed with the calls.
Prints one JSON object: the calls, how many found a flip, how many searches
a replay makes (``oracle._maximize`` calls, counted in one more, untimed
replay; a one-sided trial may be answered with none), and the time per call
from the minimum and the median of ``--repeats`` replays. The minimum, the
replay least disturbed by the rest of the machine, is the steadier figure to
compare. The enumerations themselves are not timed. Examples:

    python scripts/replay_oracle_calls.py --interop 4,7,8 --mode cxp-first
    python scripts/replay_oracle_calls.py --synth 3
"""

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ffax import enumeration, formats, oracle  # noqa: E402
from ffax.enumeration import Budget, enumerate_explanations  # noqa: E402


def interop_runs(rows):
    folder = ROOT / "fixtures" / "interop"
    meta = json.loads((folder / "meta.json").read_text())
    space = formats.parse_feature_space((folder / "feature_space.json").read_text())
    model = formats.parse_ensemble_dump(
        (folder / "model_dump.json").read_text(), space, class_names=tuple(meta["classes"])
    )
    points = formats.parse_instances((folder / "points.csv").read_text(), space)
    return [(model, points[row]) for row in rows]


def record(runs, mode, budget=None):
    """Every ``_find_counterexample_unchecked`` call as ``(model, v, c, fixed, away, answer)``."""
    original = enumeration._find_counterexample_unchecked
    calls = []

    def recording(model, v, c, fixed, away=None):
        answer = original(model, v, c, fixed, away)
        calls.append((model, v, c, fixed, away, answer))
        return answer

    enumeration._find_counterexample_unchecked = recording
    try:
        for model, v in runs:
            report = enumerate_explanations(model, v, budget=budget, mode=mode)
            if budget is None and not report.complete:
                raise SystemExit("an enumeration stopped before completion")
    finally:
        enumeration._find_counterexample_unchecked = original
    return calls


def replay(calls):
    """Seconds spent in the replayed calls, from no compiled model. Checks every answer."""
    oracle._last_oracle = None
    spent = 0.0
    for model, v, c, fixed, away, expected in calls:
        start = time.perf_counter()
        answer = oracle._find_counterexample_unchecked(model, v, c, fixed, away)
        spent += time.perf_counter() - start
        if answer != expected:
            raise SystemExit(f"replayed answer {answer} differs from recorded {expected}")
    return spent


def count_searches(calls):
    """The ``oracle._maximize`` calls of one untimed replay."""
    maximize = oracle._maximize
    searches = 0

    def counting(*args, **kwargs):
        nonlocal searches
        searches += 1
        return maximize(*args, **kwargs)

    oracle._maximize = counting
    try:
        replay(calls)
    finally:
        oracle._maximize = maximize
    return searches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--interop", help="comma-separated interop row ids, run to completion")
    source.add_argument("--synth", type=int, help="seed of the synth-oracle models")
    parser.add_argument("--mode", choices=("cxp-first", "axp-first"), default="cxp-first",
                        help="interop enumeration mode (synth-oracle runs cxp-first)")
    parser.add_argument("--repeats", type=int, default=5, help="replays timed")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.synth is not None:
        from workloads import SYNTH_CALLS, synth_units

        calls = record(synth_units(args.synth), "cxp-first", Budget(max_oracle_calls=SYNTH_CALLS))
        name, mode = f"synth-oracle seed {args.synth}", "cxp-first"
    else:
        rows = [int(x) for x in args.interop.split(",")]
        calls = record(interop_runs(rows), args.mode)
        name, mode = f"interop rows {rows}", args.mode
    totals = [replay(calls) for _ in range(args.repeats)]
    print(json.dumps({
        "source": name,
        "mode": mode,
        "python": platform.python_version(),
        "calls": len(calls),
        "flips": sum(answer is not None for *_, answer in calls),
        "one_sided": sum(away is not None for *_, away, _ in calls),
        "searches": count_searches(calls),
        "us_per_call_min": round(1e6 * min(totals) / len(calls), 1),
        "us_per_call_median": round(1e6 * statistics.median(totals) / len(calls), 1),
        "replay_s_each": [round(t, 4) for t in totals],
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

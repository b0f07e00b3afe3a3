#!/usr/bin/env python3
"""Record the hitting-set calls of complete enumerations, then replay and time them.

Runs complete enumerations, either of interop rows or of one criterion-5 pin
(``tests/test_acceptance.py``; ``--pin`` names its seed, and its grid is the
one ``CONVERGENCE_MODELS`` lists for that seed), with
``ffax.enumeration.minimal_hs`` wrapped so that every call's to-hit family,
blocked family and answer are kept. Each run's calls are then replayed in
order through one fresh hitting-set state, as the enumeration loop makes
them, and every answer must equal the recorded one (the state's last answer
orders its next search, so the calls are replayed in order and through one
state).

Prints one JSON object: the calls, the median and the minimum of ``--repeats``
replay times, and the time per call from the median. Replays of one recording
spread widely, and the minimum, the replay least disturbed by the rest of the
machine, is the steadier figure to compare. The enumerations themselves are
not timed. Examples:

    python scripts/replay_hitting_sets.py --interop 4,7 --mode axp-first
    python scripts/replay_hitting_sets.py --pin 280 --mode cxp-first
"""

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from ffax import enumeration  # noqa: E402
from ffax.enumeration import enumerate_explanations  # noqa: E402
from workloads import load_interop  # noqa: E402


def pin_spec(seed):
    """The ``(seed, features, trees)`` pin of ``seed``, or None if none is pinned."""
    from test_acceptance import CONVERGENCE_MODELS

    return next((spec for spec in CONVERGENCE_MODELS if spec[0] == seed), None)


def pin_runs(spec):
    from test_acceptance import _convergence_case

    _, model, v = _convergence_case(spec)
    return [(model, v)]


def record(runs, mode):
    """Per run, every ``minimal_hs`` call as ``(to_hit, blocked, m, answer)``."""
    original = enumeration.minimal_hs
    calls = []

    def recording(to_hit, blocked, m, **kwargs):
        answer = original(to_hit, blocked, m, **kwargs)
        calls.append((tuple(to_hit), tuple(blocked), m, answer))
        return answer

    recorded = []
    enumeration.minimal_hs = recording
    try:
        for model, v in runs:
            calls = []
            report = enumerate_explanations(model, v, mode=mode)
            if not report.complete:
                raise SystemExit("an enumeration stopped before completion")
            recorded.append(calls)
    finally:
        enumeration.minimal_hs = original
    return recorded


def replay(recorded):
    """Seconds spent in the replayed ``minimal_hs`` calls. Checks every answer."""
    spent = 0.0
    for calls in recorded:
        state = enumeration._HittingSets(calls[0][2])
        for to_hit, blocked, m, expected in calls:
            start = time.perf_counter()
            answer = enumeration.minimal_hs(to_hit, blocked, m, _state=state)
            spent += time.perf_counter() - start
            if answer != expected:
                raise SystemExit(f"replayed answer {answer} differs from recorded {expected}")
    return spent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--interop", help="comma-separated interop row ids")
    source.add_argument("--pin", type=int, help="seed of a criterion-5 pin")
    parser.add_argument("--mode", choices=("cxp-first", "axp-first"), default="cxp-first")
    parser.add_argument("--repeats", type=int, default=3, help="replays timed; the median is kept")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.pin is not None:
        spec = pin_spec(args.pin)
        if spec is None:
            parser.error(f"--pin {args.pin}: no criterion-5 pin has that seed")
        runs, name = pin_runs(spec), f"pin {spec}"
    else:
        rows = [int(x) for x in args.interop.split(",")]
        model, points = load_interop()
        runs, name = [(model, points[row]) for row in rows], f"interop rows {rows}"
    recorded = record(runs, args.mode)
    totals = [replay(recorded) for _ in range(args.repeats)]
    total, calls = statistics.median_low(totals), sum(map(len, recorded))
    print(json.dumps({
        "source": name,
        "mode": args.mode,
        "python": platform.python_version(),
        "calls": calls,
        "replay_s": round(total, 4),
        "replay_s_min": round(min(totals), 4),
        "replay_s_each": [round(t, 4) for t in totals],
        "us_per_call": round(1e6 * total / calls, 1),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

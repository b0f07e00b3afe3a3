#!/usr/bin/env python3
"""Record the oracle calls of enumerations or of ``ffax explain``, then replay and time them.

Runs enumerations, either complete ones of interop rows or the budgeted
ones of one ``synth-oracle`` seed (the models, points, call budget and mode
of ``perfbench/workloads.py``), with ``_find_counterexample_unchecked``
wrapped in ``ffax.enumeration`` so that every call's model, point, class,
fixed features, ``away`` feature (the dropped feature of a one-sided AXp
trial, else None) and answer are kept. With ``--explain ROWS`` it runs
``ffax explain`` in-process over those interop rows instead, and also keeps
the certificate's bound calls (``score_bounds`` wrapped in ``ffax.cli``,
the name the benchmark times), with their arguments and answers. The calls
are then replayed in order, as they were made, and every verdict, witness
and bound must equal the recorded one.

Each replay starts with no compiled model, so it compiles each model's cell
system at that model's first call, as a run does, and builds the oracle's
per-model memos from empty; that work is timed with the calls. Prints one
JSON object: the oracle calls, how many found a flip, the bound calls, how
many searches a replay makes (``oracle._maximize`` calls, counted in one
more, untimed replay: ``searches`` with a threshold, where a one-sided trial
may be answered with none, and ``bound_searches`` with none), and the time
per call, oracle and bound calls together, from the minimum and the median
of ``--repeats`` replays. The minimum, the replay least disturbed by the
rest of the machine, is the steadier figure to compare. The recorded runs
themselves are not timed. Examples:

    python scripts/replay_oracle_calls.py --interop 4,7,8 --mode cxp-first
    python scripts/replay_oracle_calls.py --synth 3
    python scripts/replay_oracle_calls.py --explain 0-99
"""

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ffax import cli, enumeration, oracle  # noqa: E402
from ffax.enumeration import Budget, enumerate_explanations  # noqa: E402
from workloads import INTEROP, SYNTH_CALLS, load_interop, synth_units  # noqa: E402

DECIDE = "_find_counterexample_unchecked"


@contextlib.contextmanager
def recording(module, name, calls):
    """Within the block, every call of ``module.name`` appends ``(name, args, kwargs, answer)``."""
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        answer = original(*args, **kwargs)
        calls.append((name, args, kwargs, answer))
        return answer

    setattr(module, name, recorded)
    try:
        yield
    finally:
        setattr(module, name, original)


def record(runs, mode, budget=None):
    """Every oracle call of the enumerations of ``runs``."""
    calls = []
    with recording(enumeration, DECIDE, calls):
        for model, v in runs:
            report = enumerate_explanations(model, v, budget=budget, mode=mode)
            if budget is None and not report.complete:
                raise SystemExit("an enumeration stopped before completion")
    return calls


def record_explain(rows: str):
    """Every oracle call and certificate bound call of ``ffax explain --rows rows`` on interop."""
    meta = json.loads((INTEROP / "meta.json").read_text())
    argv = [
        "explain",
        "--model", str(INTEROP / "model_dump.json"),
        "--space", str(INTEROP / "feature_space.json"),
        "--instances", str(INTEROP / "points.csv"),
        "--classes", ",".join(meta["classes"]),
        "--rows", rows,
    ]
    calls = []
    with recording(enumeration, DECIDE, calls), recording(cli, "score_bounds", calls):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"explain exited with {code}")
    return calls


def replay(calls):
    """Seconds spent in the replayed calls, from no compiled model. Checks every answer."""
    oracle._last_oracle = None
    spent = 0.0
    for name, args, kwargs, expected in calls:
        call = getattr(oracle, name)
        start = time.perf_counter()
        answer = call(*args, **kwargs)
        spent += time.perf_counter() - start
        if answer != expected:
            raise SystemExit(f"replayed {name} answer {answer} differs from recorded {expected}")
    return spent


def count_searches(calls):
    """The ``oracle._maximize`` calls of one untimed replay: with a threshold, and with none."""
    maximize = oracle._maximize
    counts = {"searches": 0, "bound_searches": 0}

    def counting(obj, box, keep, target=None):
        counts["searches" if target is not None else "bound_searches"] += 1
        return maximize(obj, box, keep, target)

    oracle._maximize = counting
    try:
        replay(calls)
    finally:
        oracle._maximize = maximize
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--interop", help="comma-separated interop row ids, run to completion")
    source.add_argument("--synth", type=int, help="seed of the synth-oracle models")
    source.add_argument("--explain", metavar="ROWS", help="interop rows for ffax explain, e.g. 0-99")
    parser.add_argument("--mode", choices=("cxp-first", "axp-first"), default="cxp-first",
                        help="interop enumeration mode (synth-oracle runs cxp-first)")
    parser.add_argument("--repeats", type=int, default=5, help="replays timed")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.synth is not None:
        calls = record(synth_units(args.synth), "cxp-first", Budget(max_oracle_calls=SYNTH_CALLS))
        name, mode = f"synth-oracle seed {args.synth}", "cxp-first"
    elif args.explain is not None:
        calls = record_explain(args.explain)
        name, mode = f"explain interop rows {args.explain}", "explain"
    else:
        rows = [int(x) for x in args.interop.split(",")]
        model, points = load_interop()
        calls = record([(model, points[row]) for row in rows], args.mode)
        name, mode = f"interop rows {rows}", args.mode
    decisions = [call for call in calls if call[0] == DECIDE]
    totals = [replay(calls) for _ in range(args.repeats)]
    print(json.dumps({
        "source": name,
        "mode": mode,
        "python": platform.python_version(),
        "calls": len(decisions),
        "flips": sum(answer is not None for *_, answer in decisions),
        "one_sided": sum(call_args[4] is not None for _, call_args, _, _ in decisions),
        "bound_calls": len(calls) - len(decisions),
        **count_searches(calls),
        "us_per_call_min": round(1e6 * min(totals) / len(calls), 1),
        "us_per_call_median": round(1e6 * statistics.median(totals) / len(calls), 1),
        "replay_s_each": [round(t, 4) for t in totals],
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

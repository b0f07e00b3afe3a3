#!/usr/bin/env python3
"""Select the pinned models of acceptance criterion 5 by runtime alone.

Criterion 5 (``tests/test_acceptance.py``) runs twenty complete enumerations
of pinned ``(seed, features, trees)`` models in a two-worker process pool and
requires each to take 10-60 s. This script scans candidates in order (seed by
seed over the ``--features`` x ``--trees`` grid), builds each with the test's
own ``_convergence_case``, and times a complete enumeration under the same
two-worker pool. A run is capped at ``CAP`` seconds so that one heavy seed
cannot stall the scan; a capped run is out of band. A candidate is in band
when its runtime lies in ``BAND``, 17-35 s: geometrically centred in the
test's window, with a 1.7x margin each way for speed drift.

The first twenty in-band candidates are then run once more, all together and
in a fresh two-worker pool, as the test runs them. Any that leave the band are
dropped, the scan resumes after the last candidate it consumed to refill the
list, and the whole list is run again, until one pass keeps all twenty.
Convergence errors are never computed. The pins go to stdout as a tuple
literal to paste over ``CONVERGENCE_MODELS``; the per-candidate log and a
summary go to stderr.

Re-run it when a change to the engine moves a pin out of the test's window,
and record the result in CHANGES.md. On the 32-feature x 24-tree grid about
one seed in 13 is in band (25 of seeds 0-315), and runs near a band edge
drop out of re-run passes (5 of those 25 did), so give it a wide seed range:
seeds 0-315 took 43 minutes on two cores, with three re-run passes. Example:

    python scripts/calibrate_convergence_pins.py --seeds 0:3000 --features 32 --trees 24
"""

import argparse
import multiprocessing
import os
import platform
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ffax.enumeration import Budget, enumerate_explanations  # noqa: E402
from test_acceptance import _convergence_case  # noqa: E402

COUNT = 20  # pins criterion 5 asserts
WORKERS = 2  # the criterion's process pool
BAND = (17.0, 35.0)  # in-band runtime (s) inside the criterion's 10-60 s window
CAP = 40.0  # give up on a run after this (s); above BAND, so a capped run is out
LOOKAHEAD = 4 * WORKERS  # scan runs kept submitted, so a slow run does not idle a worker


def time_candidate(spec):
    """Runtime and completeness of one capped enumeration of a pinned model."""
    _, model, v = _convergence_case(spec)
    start = time.perf_counter()
    report = enumerate_explanations(model, v, budget=Budget(seconds=CAP))
    return spec, time.perf_counter() - start, report.complete


def verdict(runtime, complete):
    if not complete:
        return "capped"
    if runtime < BAND[0]:
        return "fast"
    return "slow" if runtime > BAND[1] else "in"


def ordered_runs(pool, specs):
    """Results for ``specs`` in order, keeping ``LOOKAHEAD`` runs submitted."""
    specs = iter(specs)
    pending = deque(pool.submit(time_candidate, spec) for _, spec in zip(range(LOOKAHEAD), specs))
    while pending:
        result = pending.popleft().result()
        spec = next(specs, None)
        if spec is not None:
            pending.append(pool.submit(time_candidate, spec))
        yield result


def new_pool():
    return ProcessPoolExecutor(max_workers=WORKERS, mp_context=multiprocessing.get_context("spawn"))


def scan(candidates, start, need, counts):
    """Consume ``candidates[start:]`` until ``need`` are in band.

    Returns the in-band ``(spec, runtime)`` pairs and the index after the last
    candidate consumed. Runs submitted ahead of that index are discarded, and
    the pool is shut down before returning so that the recheck has the box to
    itself.
    """
    found = []
    index = start
    with new_pool() as pool:
        for spec, runtime, complete in ordered_runs(pool, candidates[start:]):
            index += 1
            kind = verdict(runtime, complete)
            counts[kind] += 1
            print(f"scan    {spec!s:>16}  {runtime:7.2f} s  {kind}", file=sys.stderr, flush=True)
            if kind == "in":
                found.append((spec, runtime))
                if len(found) == need:
                    pool.shutdown(cancel_futures=True)
                    break
    return found, index


def recheck(specs):
    """Runtime and completeness of each of ``specs``, run as the test runs them."""
    with new_pool() as pool:
        return [(runtime, complete) for _, runtime, complete in pool.map(time_candidate, specs)]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def int_list(text):
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0:1000", help="seed range START:STOP, scanned in order")
    parser.add_argument("--features", type=int_list, default=[32], help="comma-separated")
    parser.add_argument("--trees", type=int_list, default=[24], help="comma-separated")
    args = parser.parse_args()
    first, stop = (int(x) for x in args.seeds.split(":"))

    print(
        f"box: {os.cpu_count()} CPUs, {cpu_model()}, Python {platform.python_version()}",
        file=sys.stderr,
    )
    candidates = list(product(range(first, stop), args.features, args.trees))
    counts = dict.fromkeys(("in", "fast", "slow", "capped"), 0)
    pins = []  # (spec, scan runtime, recheck runtime), in scan order
    dropped = []
    index = 0
    while True:
        found, index = scan(candidates, index, COUNT - len(pins), counts)
        pins = [(spec, runtime) for spec, runtime, _ in pins] + found
        if len(pins) < COUNT:
            break
        kept = []
        for (spec, runtime), (again, complete) in zip(pins, recheck([s for s, _ in pins])):
            ok = verdict(again, complete) == "in"
            print(
                f"recheck {spec!s:>16}  {runtime:7.2f} s -> {again:7.2f} s  "
                f"{'kept' if ok else 'dropped'}",
                file=sys.stderr,
                flush=True,
            )
            if ok:
                kept.append((spec, runtime, again))
            else:
                dropped.append(spec)
        pins = kept
        if len(pins) == COUNT:
            break

    last = candidates[index - 1][0] if index else first
    print(
        f"scanned {index} candidates (seeds {first}..{last}): "
        + ", ".join(f"{n} {kind}" for kind, n in counts.items())
        + f"; {len(dropped)} dropped on recheck {dropped}",
        file=sys.stderr,
    )
    if len(pins) < COUNT:
        print(f"only {len(pins)} of {COUNT} pins found; widen --seeds", file=sys.stderr)
        return 1
    print("CONVERGENCE_MODELS: tuple[tuple[int, int, int], ...] = (  # (seed, features, trees)")
    for spec, runtime, again in pins:
        print(f"    {spec},  # {runtime:.1f} s, {again:.1f} s")
    print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The ffax benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interop-complete --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process

One process, one thread: BLAS pools are pinned to one thread and the CLI runs
with ``--workers 1``. A run sets the workload up five to 25 times (``setup_s`` is
the median), then repeats whole timed passes while the next one still fits
in ``--seconds`` (at least one), then checks every output outside the timed
section. Set-ups and passes are timed in reference seconds by
``refclock.RefClock``, which rescales wall time by the speed of a fixed probe
run alongside, so that drift in the host's speed cancels; the raw wall time
is printed too. With ``--trace 1`` it adds one traced pass and reports
per-layer metrics instead, in wall seconds; the spans go to
``perfbench/out/`` as JSONL.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the box, the checks, and figures that are not gated. The exit code is 0
only if every check passed.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "ffax" / "__init__.py", ROOT / "fixtures" / "interop" / "model_dump.json")
# Set-ups per run: at least SETUPS_MIN, and more while they total under
# SETUP_SECONDS, so that a set-up of a few milliseconds gets a steady median.
SETUPS_MIN, SETUPS_MAX, SETUP_SECONDS = 5, 25, 1.0


def box_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time, optionally trace, and check one workload."""
    from refclock import RefClock
    from spans import Tracer, per_layer
    from workloads import Checks

    clock = RefClock()
    untraced = Tracer(enabled=False)
    setup_times, passes, times, walls = [], [], [], []
    with clock.running():
        while len(setup_times) < SETUPS_MIN or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUPS_MAX
        ):
            state, ref_s, _ = clock.measure(workload.setup, seed)
            setup_times.append(ref_s)

        first_probe = len(clock.samples)
        start = perf_counter()
        while True:
            result, ref_s, wall_s = clock.measure(workload.run_pass, state, untraced)
            passes.append(result)
            times.append(ref_s)
            walls.append(wall_s)
            if perf_counter() - start + statistics.median(walls) > seconds:
                break
        slowdown = clock.slowdown(first_probe)
    run_s = statistics.median(times)
    wall_run_s = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    axps = workload.axps(passes[0])

    if trace:
        tracer = Tracer(enabled=True)
        with tracer.hooked():
            t0 = perf_counter()
            passes.append(workload.run_pass(state, tracer))
            traced_s = perf_counter() - t0
        for name in tracer.missing:
            print(f"warning: hook {name} not found; its per-layer metrics are null", file=sys.stderr)
        metrics = per_layer(tracer, traced_s, wall_run_s, workload.axps(passes[-1]))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(
            out_dir / f"trace-{workload.name}-seed{seed}.jsonl",
            {"workload": workload.name, "seed": seed, "traced_s": traced_s,
             "untraced_s": wall_run_s},
        )
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "axps_per_s": {"value": axps / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    checks = Checks()
    workload.check(state, passes, checks)
    details = {
        "wall_run_s": (wall_run_s, "s"),
        "probe_slowdown": (slowdown, "x"),
        **workload.details(state, passes, run_s),
    }
    return {
        "workload": workload.name,
        "passes": len(times),
        "setups": len(setup_times),
        "checks": checks,
        "details": details,
        "metrics": metrics,
    }


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(result: dict, seed: int) -> None:
    checks = result["checks"]
    ratio = len(checks.failures) / checks.attempted if checks.attempted else 0.0
    print(
        f"{result['workload']}  seed={seed}  timed passes={result['passes']}"
        f"  set-ups={result['setups']}  checks={checks.attempted}"
        f"  failed={len(checks.failures)}  fail_ratio={ratio:.6g}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {_fmt(metric['value']):>14} {metric['unit']}")
    for name, (value, unit) in result["details"].items():
        print(f"  ({name:<28} {_fmt(value):>14} {unit}, not gated)")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ffax benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not an ffax checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2

    box = box_info()
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in chosen]
    box["loadavg_end"] = os.getloadavg()
    print("box " + json.dumps(box))
    for result in results:
        report(result, args.seed)

    attempted = sum(r["checks"].attempted for r in results)
    failed = sum(len(r["checks"].failures) for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface for the whole pipeline.

Subcommands:

* explain    one subset-minimal abductive explanation per selected instance,
             with the proven score bound behind it
* enumerate  anytime AXp/CXp enumeration under a budget, emitting a report
* attribute  enumerate, then turn the collected AXp's into attribution
             vectors (optionally with a budget-checkpoint convergence series
             and a grid matrix export)
* compare    score external attribution vectors against a reference
* verify     cross-check an enumeration against exhaustive subset search and
             the hitting-set duality (small inputs only)

``ffax --schema FORMAT`` prints any document format's schema. Exit codes:
0 success, 2 input error, 3 capability, 4 empty attribution, 5 data mismatch,
6 capacity.

Flag values are converted while the arguments are parsed, and the commands
read them straight off the ``argparse.Namespace``. Each command reads and
parses its input files once; the per-row functions get the parsed model and
instance, and ``--workers N`` hands each worker process the parsed model with
one contiguous chunk of rows.
"""

import argparse
import math
import sys
from functools import partial

from . import attribution as attr
from . import formats, metrics
from .enumeration import (
    Budget,
    brute_force_all_xps,
    check_duality,
    enumerate_explanations,
    extract_axp,
)
from .errors import (
    CapabilityError,
    CapacityError,
    DataMismatchError,
    FfaxError,
    ParseError,
    UndefinedAttributionError,
)
from .model import Instance, evaluate
from .oracle import PartialAssignment, score_bounds

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_EMPTY_ATTRIBUTION = 4
EXIT_DATA_MISMATCH = 5
EXIT_CAPACITY = 6

# Most specific type first; the first match decides the exit code.
_EXIT_CODES = (
    (CapabilityError, EXIT_CAPABILITY),
    (UndefinedAttributionError, EXIT_EMPTY_ATTRIBUTION),
    (DataMismatchError, EXIT_DATA_MISMATCH),
    (CapacityError, EXIT_CAPACITY),
    (FfaxError, EXIT_INPUT),
    (OSError, EXIT_INPUT),
)


def _budget(args: argparse.Namespace) -> Budget:
    limits = (args.seconds, args.max_axps, args.max_cxps, args.max_calls)
    if all(l is None for l in limits):
        return Budget.unlimited()
    return Budget(
        seconds=args.seconds,
        max_axps=args.max_axps,
        max_cxps=args.max_cxps,
        max_oracle_calls=args.max_calls,
    )


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_inputs(args: argparse.Namespace):
    space = formats.parse_feature_space(_read(args.space))
    model = formats.parse_ensemble_dump(
        _read(args.model), space, class_names=args.classes, base_score=args.base_score
    )
    instances = formats.parse_instances(_read(args.instances), space)
    rows = args.rows if args.rows is not None else tuple(range(len(instances)))
    for row in rows:
        if not 0 <= row < len(instances):
            raise ParseError(f"row {row} out of range (file has {len(instances)} instances)")
    return space, model, instances, rows


def _format_assignment(space, v: Instance, features) -> str:
    if not features:
        return "(empty set)"
    parts = []
    for fid in sorted(features):
        parts.append(f"{space[fid].name}={v.values[fid]}")
    return "{" + ", ".join(parts) + "}"


def _certified_bound(model, v: Instance, c: int, subset: frozenset[int]) -> str:
    """Human-readable proof obligation the explanation satisfies.

    Only the printed side of the bound is searched: one search for a
    single-score model, one per rival class for a multiclass one.
    """
    pa = PartialAssignment(instance=v, fixed=subset)
    if model.single_score:
        if c == 0:
            return f"max attainable score {score_bounds(model, pa, _side='hi').hi:.6g} < 0"
        return f"min attainable score {score_bounds(model, pa, _side='lo').lo:.6g} >= 0"
    worst = max(
        score_bounds(model, pa, pair=(rival, c), _side="hi").hi
        for rival in range(model.k)
        if rival != c
    )
    return f"max rival margin {worst:.6g} cannot overtake class {c}"


# --- per-row work (top-level functions so worker processes can pickle them) ----


def _explain_row(args: argparse.Namespace, model, row: int, v: Instance) -> str:
    pred = evaluate(model, v)
    c = pred.class_id
    axp = extract_axp(model, v, c, seed=range(model.space.m), order=args.order)
    lines = [f"row {row}: class {model.class_names[c]!r}"]
    if len(pred.scores) == 2:
        lines[0] += f" (score {pred.scores[1]:.6g})"
    if not axp:
        lines.append("  AXp: (empty set) -- prediction is domain-constant")
    else:
        lines.append(f"  AXp: {_format_assignment(model.space, v, axp)}")
    lines.append(f"  certified: {_certified_bound(model, v, c, axp)}")
    return "\n".join(lines)


def _enumerate_row(args: argparse.Namespace, model, row: int, v: Instance) -> str:
    report = enumerate_explanations(
        model, v, budget=_budget(args), mode=args.mode, order=args.order
    )
    return formats.write_enumeration_report(
        report, class_name=model.class_names[report.class_id]
    )


def _attribute_row(args: argparse.Namespace, model, row: int, v: Instance) -> list[dict]:
    report = enumerate_explanations(
        model, v, budget=_budget(args), mode=args.mode, order=args.order
    )
    axps = report.axp_sets()
    if not axps:
        raise UndefinedAttributionError(
            f"row {row}: no explanations within budget"
        )
    m = model.space.m
    entries = []
    kinds = ("ffa", "wffa") if args.kind == "both" else (args.kind,)
    for kind in kinds:
        maker = attr.ffa if kind == "ffa" else attr.wffa
        vec = maker(axps, m, complete=report.complete)
        entry = {"row": row, "class_id": report.class_id, "vector": vec}
        if kind == "ffa" and args.checkpoints:
            entry["convergence"] = attr.convergence_series(report, vec, args.checkpoints)
        entries.append(entry)
    return entries


def _verify_row(loaded, args: argparse.Namespace, model, row: int, v: Instance):
    """The row's verdict lines and failure count; checks ``loaded`` when it is a report."""
    c = evaluate(model, v).class_id
    if loaded is not None:
        if loaded.instance_values != v.values:
            raise DataMismatchError(f"row {row}: the report explains a different instance")
        if loaded.class_id != c:
            raise DataMismatchError(
                f"row {row}: the report explains class {loaded.class_id}, the row predicts {c}"
            )
        axps, cxps = loaded.axps, loaded.cxps
        m = model.space.m
        if any(fid >= m for s in axps + cxps for fid in s):
            raise DataMismatchError(
                f"row {row}: the report names feature ids outside the model's 0..{m - 1}"
            )
    else:
        report = enumerate_explanations(model, v, mode=args.mode, order=args.order)
        axps, cxps = report.axp_sets(), report.cxp_sets()
    ref_axps, ref_cxps = brute_force_all_xps(model, v, c)
    violation = check_duality(axps, cxps)
    duality = ""
    if violation is not None:
        duality = f"{violation.side} {sorted(violation.offender)} {violation.reason}"
        if violation.counterpart is not None:
            duality += f" {sorted(violation.counterpart)}"
    checks = (
        ("axp sets match exhaustive search", set(axps) == set(ref_axps),
         f"got {sorted(map(sorted, axps))}, expected {sorted(map(sorted, ref_axps))}"),
        ("cxp sets match exhaustive search", set(cxps) == set(ref_cxps),
         f"got {sorted(map(sorted, cxps))}, expected {sorted(map(sorted, ref_cxps))}"),
        ("hitting-set duality", violation is None, duality),
    )
    lines = []
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL" + (f" ({detail})" if detail else "")
        lines.append(f"row {row}: {name}: {status}")
    return lines, sum(not ok for _, ok, _ in checks)


def _run_rows(args: argparse.Namespace, worker):
    """Parse the inputs once, then run ``worker`` on every selected row.

    With ``--workers N`` each process receives the parsed model with its one
    contiguous chunk of rows; no worker reads the input files.
    """
    space, model, instances, rows = _load_inputs(args)
    work = partial(worker, args, model)
    points = [instances[row] for row in rows]
    workers = min(args.workers, len(rows))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # not loaded for serial runs

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = math.ceil(len(rows) / workers)
            return space, list(pool.map(work, rows, points, chunksize=chunk))
    return space, list(map(work, rows, points))


# --- commands -------------------------------------------------------------------


def cmd_explain(args: argparse.Namespace) -> int:
    _, blocks = _run_rows(args, _explain_row)
    _emit("\n".join(blocks), args.output)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    _, docs = _run_rows(args, _enumerate_row)
    _emit(docs[0] if len(docs) == 1 else formats.write_enumeration_reports(docs), args.output)
    return EXIT_OK


def cmd_attribute(args: argparse.Namespace) -> int:
    if (args.grid is None) != (args.matrix_out is None):
        raise ParseError("--grid and --matrix-out go together: --grid lays out the --matrix-out file")
    if args.checkpoints is not None and args.kind == "wffa":
        raise ParseError("--checkpoints needs --kind ffa or both: the series is of ffa vectors")
    space, per_row = _run_rows(args, _attribute_row)
    entries = [entry for row_entries in per_row for entry in row_entries]
    if args.grid is not None and not entries:
        raise ParseError("no row was selected, so there is no vector to lay out", "--grid")
    _emit(formats.write_attribution_doc(space, entries), args.output)
    if args.grid is not None:
        rows_n, cols_n = args.grid
        first = entries[0]["vector"]
        with open(args.matrix_out, "w", encoding="utf-8") as handle:
            handle.write(formats.write_attribution_matrix(first, rows_n, cols_n))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    space = formats.parse_feature_space(_read(args.space))
    reference_entries = formats.read_attribution_doc(_read(args.reference), space)
    if not reference_entries:
        raise DataMismatchError("reference document has no entries")
    candidate_lists: list[tuple[str, list[attr.AttributionVector]]] = []
    for name, path in args.candidate:
        if path.endswith(".json"):
            entries = formats.read_attribution_doc(_read(path), space)
            if len(entries) != len(reference_entries):
                raise DataMismatchError(
                    f"candidate {name!r} covers {len(entries)} instances,"
                    f" reference covers {len(reference_entries)}"
                )
            for i, (entry, ref_entry) in enumerate(zip(entries, reference_entries)):
                got = (entry["row"], entry["class_id"])
                want = (ref_entry["row"], ref_entry["class_id"])
                if got != want:
                    raise DataMismatchError(
                        f"candidate {name!r} entry {i} is (row, class_id) {got},"
                        f" the reference's is {want}"
                    )
            candidate_lists.append((name, [e["vector"] for e in entries]))
        else:
            vec = formats.read_external_attribution(_read(path), space)
            if len(reference_entries) != 1:
                raise DataMismatchError(
                    f"candidate {name!r} is a single vector but the reference"
                    f" covers {len(reference_entries)} instances"
                )
            candidate_lists.append((name, [vec]))
    per_instance = []
    for i, ref_entry in enumerate(reference_entries):
        ref_vec = ref_entry["vector"]
        cands = [(name, vecs[i]) for name, vecs in candidate_lists]
        per_instance.append(metrics.compare_vectors(ref_vec, cands, rbo_p=args.rbo_p))
    averaged = metrics.average_rows(per_instance)
    _emit(
        formats.write_comparison_doc(reference_entries[0]["vector"].source, averaged),
        args.output,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    loaded = None
    if args.report is not None:
        loaded = formats.read_enumeration_report(_read(args.report))
    _, per_row = _run_rows(args, partial(_verify_row, loaded))
    _emit("\n".join(line for lines, _ in per_row for line in lines), args.output)
    return EXIT_OK if sum(failures for _, failures in per_row) == 0 else 1


# --- argument parsing --------------------------------------------------------------
# Flag values are converted here, at parse time: a malformed value is a usage
# error (exit 2) and the commands read typed values straight off the namespace.


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _marks(text: str) -> tuple[float, ...]:
    try:
        marks = tuple(float(x) for x in text.split(","))
        if not all(0 <= mark < math.inf for mark in marks):
            raise ValueError("mark out of range")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers >= 0, got {text!r}"
        ) from None
    return marks


def _workers(text: str) -> int:
    try:
        workers = int(text)
        if workers < 1:
            raise ValueError("no worker")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a worker count >= 1, got {text!r}") from None
    return workers


def _rows(text: str) -> tuple[int, ...]:
    rows: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part:
                lo, hi = (int(end) for end in part.split("-", 1))
                if hi < lo:
                    raise ValueError("reversed range")
                rows.extend(range(lo, hi + 1))
            elif part:
                rows.append(int(part))
        if not rows:
            raise ValueError("no row")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a row selector like 0,2-4, got {text!r}") from None
    return tuple(rows)


def _grid(text: str) -> tuple[int, int]:
    try:
        rows_n, cols_n = (int(size) for size in text.lower().split("x"))
        if rows_n < 1 or cols_n < 1:
            raise ValueError("empty grid")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, sizes >= 1, got {text!r}") from None
    return rows_n, cols_n


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _candidate(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    name, path = text.split("=", 1)
    return name, path


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, without the usage text."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model document (canonical or dump)")
    p.add_argument("--space", required=True, help="feature-space document")
    p.add_argument("--instances", required=True, help="instances CSV")
    p.add_argument("--rows", type=_rows, default=None, help="row selector, e.g. 0,2-4 (default: all)")
    p.add_argument("--classes", type=_names, default=None, help="class names of a dump model (default: 0,1)")
    p.add_argument("--base-score", type=float, default=None, help="score offset of a dump model")
    p.add_argument("--order", type=_int_list, default=None, help="feature-id permutation for scan order")
    p.add_argument("--output", default=None, help="write the document here (default: stdout)")
    p.add_argument("--workers", type=_workers, default=1, help="shard instances across processes")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--max-axps", type=int, default=None)
    p.add_argument("--max-cxps", type=int, default=None)
    p.add_argument("--max-calls", type=int, default=None, dest="max_calls")
    p.add_argument(
        "--mode", choices=("cxp-first", "axp-first"), default="cxp-first",
        help="which explanation kind the hitting-set candidates target",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ffax",
        description="Exact explanation enumeration and formal feature attribution",
    )
    parser.add_argument(
        "--schema",
        metavar="FORMAT",
        default=None,
        help=f"print a format schema and exit; one of: list, {', '.join(formats.SCHEMA_NAMES)}",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("explain", help="one AXp per instance, with its certificate")
    _add_io_flags(p)

    p = sub.add_parser("enumerate", help="anytime AXp/CXp enumeration under a budget")
    _add_io_flags(p)
    _add_budget_flags(p)

    p = sub.add_parser("attribute", help="attribution vectors from enumerated AXp's")
    _add_io_flags(p)
    _add_budget_flags(p)
    p.add_argument("--kind", choices=("ffa", "wffa", "both"), default="ffa")
    p.add_argument("--checkpoints", type=_marks, default=None, help="budget marks, e.g. 1,2,5")
    p.add_argument("--grid", type=_grid, default=None, help="ROWSxCOLS layout for the matrix export")
    p.add_argument("--matrix-out", default=None, help="matrix document path")

    p = sub.add_parser("compare", help="score attribution vectors against a reference")
    p.add_argument("--space", required=True)
    p.add_argument("--reference", required=True, help="attribution document")
    p.add_argument(
        "--candidate",
        type=_candidate,
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="attribution document (.json) or external CSV; repeatable",
    )
    p.add_argument("--rbo-p", type=float, default=0.9, dest="rbo_p")
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="cross-check enumeration against brute force")
    _add_io_flags(p)
    p.add_argument("--mode", choices=("cxp-first", "axp-first"), default="cxp-first")
    p.add_argument("--report", default=None, help="check this report document instead")

    return parser


_COMMANDS = {
    "explain": cmd_explain,
    "enumerate": cmd_enumerate,
    "attribute": cmd_attribute,
    "compare": cmd_compare,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema is not None:
        if args.schema == "list":
            print("\n".join(formats.SCHEMA_NAMES))
            return EXIT_OK
        try:
            print(formats.schema_text(args.schema))
        except ParseError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_INPUT
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    try:
        return _COMMANDS[args.command](args)
    except (FfaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

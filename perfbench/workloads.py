"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Each workload drives public entry points only (``ffax.formats.parse_*``,
``ffax.synth``, ``enumerate_explanations``, ``ffa``/``wffa``,
``ffax.metrics``, ``decide_sufficiency``/``find_counterexample`` and
``ffax.cli.main``) and stresses a different layer:

* ``interop-complete`` -- interop rows 4, 7 and 8, ``cxp-first``, run to a
  certified complete enumeration. The hitting-set engine takes over half the
  time.
* ``interop-axp-first`` -- rows 4 and 7 the other way round: candidates
  target AXp's, the oracle answers "is this sufficient", and ``extract_cxp``
  does the shrinking. A change that helps one mode at the other's cost shows
  here.
* ``synth-oracle`` -- seeded boolean ensembles (24 features, 16 trees,
  depth 3) under a small oracle-call budget each. The oracle takes nearly all
  the time and the hitting set almost none. This is the only workload the
  seed changes, so it uses many small models rather than a few large ones:
  per-model cost varies about as much as its mean, and only the average over
  hundreds of models repeats from one seed to the next.
* ``cli-explain`` -- ``ffax explain`` in-process over all 100 interop points.
  No hitting set; the CLI re-parses its inputs and recompiles the cell
  system per row, which only this workload shows.
"""

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from ffax import attribution, formats, metrics, synth
from ffax.cli import main as cli_main
from ffax.enumeration import Budget, check_duality, enumerate_explanations
from ffax.model import BOOLEAN, evaluate
from ffax.oracle import decide_sufficiency, find_counterexample
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
INTEROP = ROOT / "fixtures" / "interop"

# Sorted AXp/CXp sets of the complete enumerations, pinned from the seed
# commit: (AXp count, CXp count, sha256 of xp_digest's canonical form). The
# sets do not depend on the mode, so both interop workloads check these.
PINS = {
    4: (189, 171, "fa6bf06b5edad5f697ece52ed9a929ae7ea9adc8094aef3176ccfda294896b46"),
    7: (106, 118, "3dfbabbd0b9f7823d5013c008da4170e065f4aaf91b867d6d78bbd27c2b3d934"),
    8: (204, 181, "fe317029df8151a6643e0837aaf912f0a9480615371bddf58aaec58de581632c"),
}

# synth-oracle: many small models, each under a small call budget. Per-model
# cost has a standard deviation of about 0.8 of its mean, so steadiness
# across seeds comes from the number of models: 720 of them put the pass
# time's seed-to-seed deviation near 3%. The budget buys each model its
# first AXp and a few CXp candidates.
SYNTH_UNITS = 720
SYNTH_FEATURES = 24
SYNTH_TREES = 16
SYNTH_DEPTH = 3
SYNTH_CALLS = 30  # the first AXp takes at most 25 calls; the rest go to CXp candidates


def xp_digest(axps, cxps) -> str:
    canon = json.dumps([sorted(sorted(s) for s in axps), sorted(sorted(s) for s in cxps)])
    return hashlib.sha256(canon.encode()).hexdigest()


class Checks:
    """Counts output checks; keeps a description of each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Row:
    """One enumerated point: the inputs, the report, and the written report."""

    label: str
    model: object
    v: object
    report: object
    text: str


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def load_interop():
    meta = json.loads(_read(INTEROP / "meta.json"))
    space = formats.parse_feature_space(_read(INTEROP / "feature_space.json"))
    model = formats.parse_ensemble_dump(
        _read(INTEROP / "model_dump.json"), space, class_names=tuple(meta["classes"])
    )
    points = formats.parse_instances(_read(INTEROP / "points.csv"), space)
    return model, points


def _warm_up(model, v) -> None:
    """One cheap decision, which compiles the model's cell system."""
    c = evaluate(model, v).class_id
    decide_sufficiency(model, v, c, range(model.space.m))


def _library_row(tracer, label, model, v, budget, mode) -> Row:
    """What a library user does per point: enumerate, attribute, compare, save."""
    with tracer.span("enumeration.loop"):
        report = enumerate_explanations(model, v, budget=budget, mode=mode)
    axps, m = report.axp_sets(), model.space.m
    # WFFA divides by explanation size, so a domain-constant prediction, whose
    # only AXp is empty, has none.
    with tracer.span("attribution"):
        plain = attribution.ffa(axps, m, complete=report.complete)
        weighted = attribution.wffa(axps, m, complete=report.complete) if all(axps) else None
    if weighted is not None:
        with tracer.span("metrics"):
            metrics.compare_vectors(plain, [("wffa", weighted)])
    text = formats.write_enumeration_report(
        report, class_name=model.class_names[report.class_id]
    )
    return Row(label, model, v, report, text)


def _check_flip(checks: Checks, row: Row, cxp) -> None:
    c = row.report.class_id
    witness = find_counterexample(row.model, row.v, c, cxp)
    ok = (
        witness is not None
        and evaluate(row.model, witness).class_id != c
        and all(witness.values[f] == row.v.values[f] for f in range(len(row.v.values)) if f not in cxp)
    )
    checks.expect(ok, f"{row.label}: freeing CXp {sorted(cxp)} admits no class change")


def _check_sufficient(checks: Checks, model, v, c, axp, label) -> bool:
    ok = decide_sufficiency(model, v, c, axp).sufficient
    checks.expect(ok, f"{label}: AXp {sorted(axp)} does not force class {c}")
    return ok


def _check_round_trip(checks: Checks, row: Row) -> None:
    loaded = formats.read_enumeration_report(row.text)
    ok = (
        set(loaded.axps) == set(row.report.axp_sets())
        and set(loaded.cxps) == set(row.report.cxp_sets())
        and loaded.oracle_calls == row.report.oracle_calls
    )
    checks.expect(ok, f"{row.label}: written report does not read back to the same sets")


def _check_repeats(checks: Checks, passes, signature) -> None:
    first = signature(passes[0])
    for index, later in enumerate(passes[1:], start=1):
        checks.expect(signature(later) == first, f"pass {index} differs from pass 0")


def _rows_signature(rows) -> list[str]:
    return [xp_digest(r.report.axp_sets(), r.report.cxp_sets()) for r in rows]


def ffa_err_auc(report) -> float:
    """Mean Manhattan error of the prefix FFA against the exact FFA, at 10%,
    20%, ..., 100% of the run's oracle calls. Marks are keyed on each
    explanation's cumulative call count, so the value repeats exactly; a mark
    with no AXp yet scores the exact vector's L1 norm."""
    m = len(report.instance.values)
    exact = attribution.ffa(report.axp_sets(), m, complete=True)
    errors = []
    for tenth in range(1, 11):
        mark = report.oracle_calls * tenth / 10
        prefix = [e.features for e in report.axps if e.oracle_calls <= mark]
        if prefix:
            errors.append(metrics.manhattan_error(attribution.ffa(prefix, m), exact))
        else:
            errors.append(sum(abs(x) for x in exact.values))
    return sum(errors) / len(errors)


def _count_axps(rows) -> int:
    return sum(len(r.report.axps) for r in rows)


def _library_details(rows, pass_s: float) -> dict:
    calls = sum(r.report.oracle_calls for r in rows)
    axps = _count_axps(rows)
    return {
        "oracle_calls": (calls, "count"),
        "axps": (axps, "count"),
        "cxps": (sum(len(r.report.cxps) for r in rows), "count"),
        "calls_per_s": (calls / pass_s, "1/s"),
        "calls_per_axp": (calls / axps, "count"),
    }


class Interop:
    """Complete enumerations of pinned interop rows in one mode."""

    def __init__(self, name: str, mode: str, rows: tuple[int, ...]):
        self.name, self.mode, self.rows = name, mode, rows

    def setup(self, seed: int):
        model, points = load_interop()
        _warm_up(model, points[self.rows[0]])
        return model, points

    def run_pass(self, state, tracer) -> list[Row]:
        model, points = state
        return [
            _library_row(tracer, f"row {row}", model, points[row], Budget.unlimited(), self.mode)
            for row in self.rows
        ]

    axps = staticmethod(_count_axps)

    def check(self, state, passes, checks: Checks) -> None:
        for row_id, row in zip(self.rows, passes[0]):
            axps, cxps = row.report.axp_sets(), row.report.cxp_sets()
            checks.expect(row.report.complete, f"{row.label}: enumeration not complete")
            checks.expect(check_duality(axps, cxps) is None, f"{row.label}: duality violated")
            got = (len(axps), len(cxps), xp_digest(axps, cxps))
            checks.expect(got == PINS[row_id], f"{row.label}: sets {got} differ from pin {PINS[row_id]}")
            _check_round_trip(checks, row)
            for cxp in cxps:
                _check_flip(checks, row, cxp)
        _check_repeats(checks, passes, _rows_signature)

    def details(self, state, passes, pass_s: float) -> dict:
        out = _library_details(passes[0], pass_s)
        auc = [ffa_err_auc(r.report) for r in passes[0]]
        out["ffa_err_auc"] = (sum(auc) / len(auc), "L1")
        return out


class SynthOracle:
    """Many seeded synthetic models, each enumerated under a call budget."""

    name = "synth-oracle"

    def setup(self, seed: int):
        units = synth_units(seed)
        _warm_up(*units[0])
        return units

    def run_pass(self, units, tracer) -> list[Row]:
        budget = Budget(max_oracle_calls=SYNTH_CALLS)
        return [
            _library_row(tracer, f"model {i}", model, v, budget, "cxp-first")
            for i, (model, v) in enumerate(units)
        ]

    axps = staticmethod(_count_axps)

    def check(self, units, passes, checks: Checks) -> None:
        for row in passes[0]:
            report = row.report
            checks.expect(
                report.oracle_calls <= SYNTH_CALLS,
                f"{row.label}: {report.oracle_calls} oracle calls over a budget of {SYNTH_CALLS}",
            )
            for axp in report.axp_sets():
                _check_sufficient(checks, row.model, row.v, report.class_id, axp, row.label)
            for cxp in report.cxp_sets():
                _check_flip(checks, row, cxp)
            _check_round_trip(checks, row)
        _check_repeats(checks, passes, _rows_signature)

    def details(self, units, passes, pass_s: float) -> dict:
        return _library_details(passes[0], pass_s)


def synth_units(seed: int) -> list[tuple]:
    """The (model, point) pairs of ``synth-oracle`` for ``seed``.

    Each pair draws from its own generator, seeded from the run's seed, so
    neighbouring seeds share no models.
    """
    master = random.Random(seed)
    units = []
    for _ in range(SYNTH_UNITS):
        rng = random.Random(master.getrandbits(64))
        space = synth.random_space(rng, SYNTH_FEATURES, kinds=(BOOLEAN,))
        model = synth.random_ensemble(rng, space, n_trees=SYNTH_TREES, depth=SYNTH_DEPTH)
        v = synth.random_instance(rng, space)
        units.append((model, v))
    return units


_ROW_LINE = re.compile(r"row (\d+): class '([^']*)'")


def parse_explain(text: str) -> dict[int, tuple[str, list[str] | None]]:
    """row -> (class name, AXp feature names) from ``ffax explain`` output.

    The AXp is None when the row's AXp line is missing.
    """
    rows: dict[int, tuple[str, list[str] | None]] = {}
    current = None
    for line in text.splitlines():
        match = _ROW_LINE.match(line)
        if match:
            current = int(match.group(1))
            rows[current] = (match.group(2), None)
        elif current is not None and line.startswith("  AXp: "):
            body = line[len("  AXp: "):]
            names = [] if body.startswith("(empty set)") else [
                item.rsplit("=", 1)[0] for item in body.strip("{}").split(", ")
            ]
            rows[current] = (rows[current][0], names)
    return rows


class CliExplain:
    """``ffax explain`` over every interop point, in-process, one worker."""

    name = "cli-explain"

    def _argv(self, *extra: str) -> list[str]:
        classes = ",".join(json.loads(_read(INTEROP / "meta.json"))["classes"])
        return [
            "explain",
            "--model", str(INTEROP / "model_dump.json"),
            "--space", str(INTEROP / "feature_space.json"),
            "--instances", str(INTEROP / "points.csv"),
            "--classes", classes,
            "--workers", "1",
            *extra,
        ]

    def setup(self, seed: int):
        self.run_pass(self._argv("--rows", "0"), Tracer(enabled=False))
        return self._argv()

    def run_pass(self, argv, tracer) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), tracer.span("cli.main"):
            code = cli_main(argv)
        return code, out.getvalue()

    def axps(self, result) -> int:
        return len(parse_explain(result[1]))

    def check(self, argv, passes, checks: Checks) -> None:
        model, points = load_interop()
        code, text = passes[0]
        checks.expect(code == 0, f"explain exited with {code}")
        rows = parse_explain(text)
        checks.expect(sorted(rows) == list(range(len(points))), f"explain printed rows {sorted(rows)}")
        fid = model.space.name_to_fid
        for row, (class_name, names) in sorted(rows.items()):
            v = points[row]
            c = evaluate(model, v).class_id
            label = f"row {row}"
            checks.expect(class_name == model.class_names[c], f"{label}: class {class_name!r}")
            if names is None or any(n not in fid for n in names):
                checks.expect(False, f"{label}: unreadable AXp line")
                continue
            axp = frozenset(fid[n] for n in names)
            if _check_sufficient(checks, model, v, c, axp, label):
                minimal = all(not decide_sufficiency(model, v, c, axp - {f}).sufficient for f in axp)
                checks.expect(minimal, f"{label}: AXp {sorted(axp)} is not subset-minimal")
        _check_repeats(checks, passes, lambda result: result)

    def details(self, argv, passes, pass_s: float) -> dict:
        rows = len(parse_explain(passes[0][1]))
        return {"rows": (rows, "count"), "rows_per_s": (rows / pass_s, "1/s")}


WORKLOADS = {
    w.name: w
    for w in (
        Interop("interop-complete", "cxp-first", (4, 7, 8)),
        Interop("interop-axp-first", "axp-first", (4, 7)),
        SynthOracle(),
        CliExplain(),
    )
}

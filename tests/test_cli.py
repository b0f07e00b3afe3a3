import argparse
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, instances_held
import ffax
from ffax import cli, enumeration, formats, oracle
from ffax.cli import main
from ffax.enumeration import extract_axp
from ffax.model import evaluate
from ffax.oracle import PartialAssignment, score_bounds
from ffax.synth import random_ensemble, random_instance, random_space

ADULT = FIXTURES / "adult"
INTEROP = FIXTURES / "interop"


def adult_args(command, *extra):
    return [
        command,
        "--model", str(ADULT / "model.json"),
        "--space", str(ADULT / "feature_space.json"),
        "--instances", str(ADULT / "instances.csv"),
        *extra,
    ]


def interop_args(command, *extra):
    return [
        command,
        "--model", str(INTEROP / "model_dump.json"),
        "--space", str(INTEROP / "feature_space.json"),
        "--instances", str(INTEROP / "points.csv"),
        "--classes", "malignant,benign",
        *extra,
    ]


@pytest.fixture
def constant_inputs(tmp_path):
    space = {"features": [{"name": "a", "kind": "boolean"}, {"name": "b", "kind": "boolean"}]}
    model = {"classes": ["f", "t"], "trees": [{"class": 1, "root": {"leaf": 1.0}}]}
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "rows.csv").write_text("a,b\n1,0\n")
    return tmp_path


@pytest.fixture
def adult_two_rows(tmp_path):
    """I/O flags for the adult model over two rows of different classes."""
    instances = tmp_path / "two.csv"
    instances.write_text(
        "Education,Status,Occupation,Relationship,Sex,Hours/w\n"
        "Bachelors,Separated,Sales,Not-in-family,Male,40\n"
        "Doctorate,Married,Sales,Own-child,Male,50\n"
    )
    return [
        "--model", str(ADULT / "model.json"),
        "--space", str(ADULT / "feature_space.json"),
        "--instances", str(instances),
    ]


def test_explain_fixture(capsys):
    assert main(adult_args("explain", "--rows", "0")) == 0
    out = capsys.readouterr().out
    assert "class '<50k'" in out
    assert "{Education=Bachelors, Hours/w=40.0}" in out
    assert "-0.001" in out  # the certified max attainable score


def test_explain_constant_model(constant_inputs, capsys):
    code = main([
        "explain",
        "--model", str(constant_inputs / "model.json"),
        "--space", str(constant_inputs / "space.json"),
        "--instances", str(constant_inputs / "rows.csv"),
    ])
    assert code == 0
    assert "domain-constant" in capsys.readouterr().out


def test_explain_bad_path_exits_2():
    args = adult_args("explain")
    args[2] = "/nonexistent/model.json"
    assert main(args) == 2


def test_enumerate_complete_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(adult_args("enumerate", "--output", str(out))) == 0
    doc = json.loads(out.read_text())
    assert doc["complete"] is True
    assert sorted(map(tuple, doc["axps"])) == [(0, 1), (0, 5)]
    assert sorted(map(tuple, doc["cxps"])) == [(0,), (1, 5)]
    assert doc["class_name"] == "<50k"


def test_enumerate_budget_trip(tmp_path):
    out = tmp_path / "report.json"
    assert main(adult_args("enumerate", "--max-axps", "1", "--output", str(out))) == 0
    doc = json.loads(out.read_text())
    assert doc["complete"] is False
    assert len(doc["axps"]) == 1


def test_enumerate_zero_seconds_empty_partial(tmp_path):
    out = tmp_path / "report.json"
    assert main(adult_args("enumerate", "--seconds", "0", "--output", str(out))) == 0
    doc = json.loads(out.read_text())
    assert doc["complete"] is False and doc["axps"] == [] and doc["cxps"] == []


def test_enumerate_determinism_excluding_timing(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(adult_args("enumerate", "--output", str(path))) == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc.pop("timing")
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_attribute_ffa_and_wffa(tmp_path):
    out = tmp_path / "attr.json"
    assert main(adult_args("attribute", "--kind", "both", "--output", str(out))) == 0
    doc = json.loads(out.read_text())
    by_source = {e["source"]: e for e in doc["entries"]}
    assert by_source["ffa"]["values"] == [1.0, 0.5, 0.0, 0.0, 0.0, 0.5]
    assert by_source["wffa"]["values"] == [0.5, 0.25, 0.0, 0.0, 0.0, 0.25]
    assert by_source["ffa"]["complete"] is True


def test_attribute_empty_budget_exits_4(tmp_path, capsys):
    out = tmp_path / "attr.json"
    code = main(adult_args("attribute", "--seconds", "0", "--output", str(out)))
    assert code == 4
    assert "no explanations within budget" in capsys.readouterr().err


def test_attribute_grid_matrix(tmp_path):
    space = {"features": [{"name": f"p{i}", "kind": "boolean"} for i in range(4)]}
    model = {
        "classes": ["f", "t"],
        "trees": [{"class": 1, "root": {
            "feature": "p0", "test": "is", "yes": {"leaf": 1.0}, "no": {"leaf": -1.0},
        }}],
    }
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "rows.csv").write_text("p0,p1,p2,p3\n1,0,1,0\n")
    matrix = tmp_path / "matrix.txt"
    code = main([
        "attribute",
        "--model", str(tmp_path / "model.json"),
        "--space", str(tmp_path / "space.json"),
        "--instances", str(tmp_path / "rows.csv"),
        "--grid", "2x2",
        "--matrix-out", str(matrix),
        "--output", str(tmp_path / "attr.json"),
    ])
    assert code == 0
    lines = matrix.read_text().strip().split("\n")
    assert len(lines) == 2
    assert [float(x) for x in lines[0].split()] == [1.0, 0.0]


def test_attribute_convergence_checkpoints(tmp_path):
    out = tmp_path / "attr.json"
    assert main(adult_args(
        "attribute", "--checkpoints", "5,10", "--output", str(out)
    )) == 0
    doc = json.loads(out.read_text())
    series = doc["entries"][0]["convergence"]
    assert [point["mark"] for point in series] == [5.0, 10.0]
    assert series[-1]["error"] == 0.0  # the run finished well inside the mark


def test_compare_self_and_external(tmp_path, capsys):
    ref = tmp_path / "ref.json"
    assert main(adult_args("attribute", "--output", str(ref))) == 0
    out = tmp_path / "cmp.json"
    code = main([
        "compare",
        "--space", str(ADULT / "feature_space.json"),
        "--reference", str(ref),
        "--candidate", f"self={ref}",
        "--candidate", f"heuristic-a={ADULT / 'external_relationship_only.csv'}",
        "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    rows = {r["name"]: r for r in doc["rows"]}
    assert rows["self"]["error"] == 0.0
    assert rows["self"]["tau"] == pytest.approx(1.0)
    assert rows["self"]["rbo"] == pytest.approx(1.0)
    assert rows["heuristic-a"]["error"] == pytest.approx(3.0)
    assert rows["heuristic-a"]["tau"] <= 0.0
    assert rows["heuristic-a"]["rbo"] < 1.0


def test_compare_refuses_a_badly_typed_reference_entry(tmp_path, capsys):
    # Read as given, these would reach the comparison document as a
    # "reference" that is not a string, or compare 4 of the 6 features.
    ref = tmp_path / "ref.json"
    assert main(adult_args("attribute", "--output", str(ref))) == 0
    doc = json.loads(ref.read_text())
    good = doc["entries"][0]
    for field, bad in (("source", 7), ("basis", True), ("complete", "no"), ("values", [0.0] * 4)):
        doc["entries"][0] = {**good, field: bad}
        ref.write_text(json.dumps(doc))
        out = tmp_path / "cmp.json"
        code = main([
            "compare",
            "--space", str(ADULT / "feature_space.json"),
            "--reference", str(ref),
            "--candidate", f"self={ref}",
            "--output", str(out),
        ])
        assert code == 2 and not out.exists()
        assert "entries[0]: " in capsys.readouterr().err


def test_compare_checks_the_features_of_each_document_against_the_space(tmp_path, capsys):
    # A features list cut or reordered against --space, in the reference or
    # in a candidate, would be compared value by value over another order.
    ref = tmp_path / "ref.json"
    assert main(adult_args("attribute", "--output", str(ref))) == 0
    good = json.loads(ref.read_text())
    changed = tmp_path / "changed.json"
    for features in (good["features"][:3], good["features"][::-1]):
        changed.write_text(json.dumps({**good, "features": features}))
        for reference, candidate in ((changed, ref), (ref, changed)):
            out = tmp_path / "cmp.json"
            code = main([
                "compare",
                "--space", str(ADULT / "feature_space.json"),
                "--reference", str(reference),
                "--candidate", f"c={candidate}",
                "--output", str(out),
            ])
            assert code == 5 and not out.exists()
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "not the space's names in order" in err, err


def test_compare_refuses_a_candidate_whose_entries_name_other_rows(tmp_path, capsys):
    # Paired by position, the reversed document would be compared row 0
    # against row 1 and exit 0 with a nonzero error.
    ref = tmp_path / "ref.json"
    assert main(interop_args("attribute", "--rows", "0,1", "--max-calls", "40",
                             "--output", str(ref))) == 0
    doc = json.loads(ref.read_text())
    assert [(e["row"], e["class_id"]) for e in doc["entries"]] != [
        (e["row"], e["class_id"]) for e in doc["entries"][::-1]
    ]
    reversed_doc = tmp_path / "reversed.json"
    reversed_doc.write_text(json.dumps({**doc, "entries": doc["entries"][::-1]}))
    out = tmp_path / "cmp.json"
    code = main([
        "compare",
        "--space", str(INTEROP / "feature_space.json"),
        "--reference", str(ref),
        "--candidate", f"reversed={reversed_doc}",
        "--output", str(out),
    ])
    assert code == 5 and not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "'reversed' entry 0" in err, err


def test_compare_unknown_feature_exits_5(tmp_path):
    ref = tmp_path / "ref.json"
    assert main(adult_args("attribute", "--output", str(ref))) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("Wage,1.0\n")
    code = main([
        "compare",
        "--space", str(ADULT / "feature_space.json"),
        "--reference", str(ref),
        "--candidate", f"bad={bad}",
    ])
    assert code == 5


def test_verify_fixture_passes(capsys):
    assert main(adult_args("verify", "--rows", "0")) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


def test_verify_corrupt_report_names_duality_failure(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(adult_args("enumerate", "--output", str(report))) == 0
    doc = json.loads(report.read_text())
    doc["cxps"] = [[2]]  # inject a set that hits nothing
    report.write_text(json.dumps(doc))
    code = main(adult_args("verify", "--report", str(report)))
    assert code == 1
    out = capsys.readouterr().out
    assert "hitting-set duality: FAIL" in out


def test_verify_capacity_exits_6(tmp_path, capsys):
    space = {"features": [{"name": f"b{i}", "kind": "boolean"} for i in range(30)]}
    model = {"classes": ["f", "t"], "trees": [{"class": 1, "root": {"leaf": 1.0}}]}
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "rows.csv").write_text(
        ",".join(f"b{i}" for i in range(30)) + "\n" + ",".join("0" * 30) + "\n"
    )
    code = main([
        "verify",
        "--model", str(tmp_path / "model.json"),
        "--space", str(tmp_path / "space.json"),
        "--instances", str(tmp_path / "rows.csv"),
    ])
    assert code == 6
    assert "subsets exceed" in capsys.readouterr().err


def test_schema_flag(capsys):
    assert main(["--schema", "list"]) == 0
    names = capsys.readouterr().out.strip().split("\n")
    assert "model" in names
    assert main(["--schema", "enumeration-report"]) == 0
    assert "enumeration-report/1" in capsys.readouterr().out
    assert main(["--schema", "nope"]) == 2


def test_explain_order_override(capsys):
    assert main(adult_args("explain", "--order", "5,4,3,2,1,0")) == 0
    out = capsys.readouterr().out
    assert "{Education=Bachelors, Status=Separated}" in out


def test_workers_shard_rows(tmp_path, adult_two_rows):
    out = tmp_path / "reports.json"
    code = main(["enumerate", *adult_two_rows, "--workers", "2", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "enumeration-reports/1"
    assert len(doc["reports"]) == 2
    assert all(r["complete"] for r in doc["reports"])


@pytest.mark.parametrize("command, flag, value", [
    ("explain", "--rows", "x"),
    ("explain", "--rows", "0-"),
    ("explain", "--rows", "5-3"),
    ("explain", "--rows", ""),
    ("attribute", "--rows", "5-3"),
    ("explain", "--order", "a,b"),
    ("attribute", "--checkpoints", "x"),
    ("attribute", "--checkpoints", "nan,-1"),  # a NaN mark is not valid JSON
    ("attribute", "--checkpoints", "1,inf"),
    ("attribute", "--checkpoints", "-0.5"),
    ("explain", "--workers", "0"),
    ("enumerate", "--workers", "-3"),
    ("explain", "--workers", "two"),
    ("attribute", "--grid", "3"),
    ("attribute", "--grid", "-2x-3"),
    ("attribute", "--grid", "-6x-1"),
    ("attribute", "--grid", "0x6"),
])
def test_malformed_flag_value_exits_2(command, flag, value, capsys):
    # The FLAG=VALUE form: argparse reads a separate "-2x-3" as an option, not a value.
    with pytest.raises(SystemExit) as exc:
        main(adult_args(command, f"{flag}={value}"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"ffax {command}: error: argument {flag}: ")


def test_verify_report_for_another_row_exits_5(tmp_path, adult_two_rows, capsys):
    io_flags = adult_two_rows
    report = tmp_path / "row0.json"
    assert main(["enumerate", *io_flags, "--rows", "0", "--output", str(report)]) == 0
    assert main(["verify", *io_flags, "--rows", "1", "--report", str(report)]) == 5
    assert "row 1: the report explains a different instance" in capsys.readouterr().err
    doc = json.loads(report.read_text())
    doc["class_id"] = 1 - doc["class_id"]
    report.write_text(json.dumps(doc))
    assert main(["verify", *io_flags, "--rows", "0", "--report", str(report)]) == 5
    assert "row 0: the report explains class" in capsys.readouterr().err


def test_verify_report_naming_features_outside_the_model_exits_5(
    tmp_path, adult_two_rows, capsys, monkeypatch
):
    io_flags = adult_two_rows
    report = tmp_path / "row0.json"
    assert main(["enumerate", *io_flags, "--rows", "0", "--output", str(report)]) == 0
    doc = json.loads(report.read_text())
    m = len(json.loads((ADULT / "feature_space.json").read_text())["features"])

    def refuse(*args):
        raise AssertionError("the report's sets reached the checks")

    monkeypatch.setattr("ffax.cli.brute_force_all_xps", refuse)
    monkeypatch.setattr("ffax.cli.check_duality", refuse)
    for key, fid in (("axps", m), ("cxps", 10**9)):
        bad = {**doc, key: doc[key] + [[fid]]}
        report.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify", *io_flags, "--rows", "0", "--report", str(report)]) == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: row 0: the report names"), err


def test_non_finite_leaf_exits_2(constant_inputs, capsys):
    model = {"classes": ["f", "t"], "trees": [{"class": 1, "root": {"leaf": float("nan")}}]}
    (constant_inputs / "model.json").write_text(json.dumps(model))
    code = main([
        "explain",
        "--model", str(constant_inputs / "model.json"),
        "--space", str(constant_inputs / "space.json"),
        "--instances", str(constant_inputs / "rows.csv"),
    ])
    assert code == 2
    assert "not finite" in capsys.readouterr().err


def test_non_finite_ordinal_bound_exits_2(constant_inputs, capsys):
    space = {"features": [
        {"name": "a", "kind": "ordinal", "lo": -math.inf, "hi": math.inf},
        {"name": "b", "kind": "boolean"},
    ]}
    (constant_inputs / "space.json").write_text(json.dumps(space))  # JSON -Infinity/Infinity
    code = main([
        "explain",
        "--model", str(constant_inputs / "model.json"),
        "--space", str(constant_inputs / "space.json"),
        "--instances", str(constant_inputs / "rows.csv"),
    ])
    assert code == 2
    assert "not finite" in capsys.readouterr().err


def test_explain_parses_each_input_once(monkeypatch, capsys):
    calls = {}
    for name in ("parse_feature_space", "parse_ensemble_dump", "parse_instances"):
        def counted(*args, _name=name, _parse=getattr(formats, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _parse(*args, **kwargs)

        monkeypatch.setattr(formats, name, counted)
    assert main(interop_args("explain", "--rows", "0-9")) == 0
    assert capsys.readouterr().out.count("  AXp: ") == 10
    assert calls == {"parse_feature_space": 1, "parse_ensemble_dump": 1, "parse_instances": 1}


def _certificates(text: str):
    """``(row, AXp feature names, "max" or "min", printed figure)`` per explained row."""
    found = []
    for block in text.split("\nrow "):
        row = int(block.removeprefix("row ").split(":", 1)[0])
        axp_line = block.split("  AXp: ", 1)[1].split("\n", 1)[0]
        names = [] if axp_line.startswith("(empty set)") else [
            item.rsplit("=", 1)[0] for item in axp_line.strip("{}").split(", ")
        ]
        side, _, _, figure = block.split("  certified: ", 1)[1].split()[:4]
        found.append((row, names, side, figure))
    return found


def test_explain_prints_the_named_side_of_the_two_sided_bounds(
    interop, adult_model, adult_two_rows, capsys
):
    adult_csv = Path(adult_two_rows[adult_two_rows.index("--instances") + 1])
    adult_points = formats.parse_instances(adult_csv.read_text(), adult_model.space)
    cases = (
        (interop_args("explain"), *interop, {"max": 45, "min": 55}),
        (["explain", *adult_two_rows], adult_model, adult_points, {"max": 1, "min": 1}),
    )
    for argv, model, points, sides in cases:
        assert main(argv) == 0
        certificates = _certificates(capsys.readouterr().out)
        assert [row for row, *_ in certificates] == list(range(len(points)))
        seen = {"max": 0, "min": 0}
        for row, names, side, figure in certificates:
            axp = frozenset(model.space.name_to_fid[name] for name in names)
            bounds = score_bounds(model, PartialAssignment(points[row], axp))
            assert figure == f"{bounds.hi if side == 'max' else bounds.lo:.6g}", row
            seen[side] += 1
        assert seen == sides


def _three_class_rows():
    rng = random.Random(11)
    space = random_space(rng, 6)
    model = random_ensemble(rng, space, n_trees=9, depth=3, k=3)
    return model, [random_instance(rng, space) for _ in range(12)]


def test_multiclass_certificate_is_the_largest_rival_margin():
    model, points = _three_class_rows()
    classes = set()
    for v in points:
        c = evaluate(model, v).class_id
        axp = extract_axp(model, v, c, seed=range(model.space.m))
        worst = max(
            score_bounds(model, PartialAssignment(v, axp), pair=(rival, c)).hi
            for rival in range(model.k)
            if rival != c
        )
        assert cli._certified_bound(model, v, c, axp) == (
            f"max rival margin {worst:.6g} cannot overtake class {c}"
        )
        classes.add(c)
    assert len(classes) > 1


@pytest.fixture
def bound_counts(monkeypatch):
    """Counts of calls to the CLI's ``score_bounds`` and of searches with no threshold."""
    counts = {"calls": 0, "searches": 0}
    bounds, maximize = cli.score_bounds, oracle._maximize

    def counted_bounds(*args, **kwargs):
        counts["calls"] += 1
        return bounds(*args, **kwargs)

    def counted_maximize(obj, box, keep, target=None):
        counts["searches"] += target is None
        return maximize(obj, box, keep, target)

    monkeypatch.setattr(cli, "score_bounds", counted_bounds)
    monkeypatch.setattr(oracle, "_maximize", counted_maximize)
    return counts


def test_explain_searches_only_the_printed_bound(bound_counts, capsys):
    # through the name the benchmark hooks, one search per single-score row
    assert main(interop_args("explain", "--rows", "0-9")) == 0
    assert capsys.readouterr().out.count("  certified: ") == 10
    assert bound_counts == {"calls": 10, "searches": 10}


def test_multiclass_explain_searches_once_per_rival(bound_counts):
    model, points = _three_class_rows()
    args = argparse.Namespace(order=None)
    for row, v in enumerate(points):
        assert "max rival margin" in cli._explain_row(args, model, row, v)
    assert bound_counts == {"calls": 2 * len(points), "searches": 2 * len(points)}


def test_workers_output_matches_one_worker(adult_two_rows, monkeypatch, capsys):
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    cases = [
        (interop_args("explain", "--rows", "0-5"), "  AXp: ", 6),
        (["verify", *adult_two_rows], "PASS", 6),
    ]
    for argv, marker, count in cases:
        outputs = []
        for workers in ("1", "2"):
            assert main([*argv, "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(marker) == count
    # each command ran in a two-process pool with --workers 2, and serially with 1
    assert pools == [2, 2]


def test_importing_the_cli_loads_no_process_pool():
    # Only a --workers run imports the pool; a serial run does not pay for it.
    paths = [str(Path(ffax.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys, ffax.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr


@pytest.mark.parametrize("command, flag, value, message", [
    # a permutation of 0..1 only: features 2-5 would never be scanned
    ("explain", "--order", "0,1", "scan order must be a permutation of the feature ids 0..5"),
    ("enumerate", "--order", "0,1", "scan order must be a permutation of the feature ids 0..5"),
    ("enumerate", "--seconds", "nan", "budget limits must be finite and >= 0, got nan"),
    ("enumerate", "--max-axps", "-2", "budget limits must be finite and >= 0, got -2"),
])
def test_out_of_range_flag_value_exits_2(command, flag, value, message, capsys):
    assert main(adult_args(command, "--rows", "0", flag, value)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_SPACE = {"features": [{"name": "a", "kind": "ordinal", "lo": 0, "hi": 1}, {"name": "b", "kind": "boolean"}]}
_LEAF = {"leaf": 1.0}
_MODEL = {"classes": ["f", "t"], "trees": [{"class": 1, "root": _LEAF}]}


def _root(**node):
    return {**_MODEL, "trees": [{"class": 1, "root": node}]}


_REPORT = {
    "format": "enumeration-report/1", "mode": "cxp-first", "complete": True,
    "instance": {"values": [0.5, False]}, "axps": [[]], "cxps": [], "oracle_calls": 1,
}


@pytest.mark.parametrize("command, docs, extra, where", [
    ("explain", {"space.json": {"features": [1]}}, [], "features[0]"),
    ("explain", {"space.json": {"features": [{**_SPACE["features"][0], "lo": "x"}]}}, [], "features[0]"),
    ("explain", {"model.json": _root(feature="a", test="le", yes=_LEAF, no=_LEAF)}, [], "tree 0"),
    ("explain", {"model.json": _root(feature="a", test="le", threshold="x", yes=_LEAF, no=_LEAF)},
     [], "tree 0"),
    ("explain", {"model.json": _root(leaf="x")}, [], "tree 0"),
    ("explain", {"model.json": {**_MODEL, "base_score": ["x", 0]}}, [], "base_score"),
    ("explain", {"space.json": {"features": [{"name": "a", "kind": "categorical", "values": ["x"]}]},
                 "model.json": _root(feature="a", test="in", values=3, yes=_LEAF, no=_LEAF)},
     [], "tree 0"),
    ("explain", {"model.json": [{"split": "a", "yes": 1, "no": 2, "split_condition": 0.5, "children": [1, 2]}]},
     [], "tree 0"),
    ("verify", {"report.json": _REPORT}, ["--report", "report.json"], "class_id"),
    ("verify", {"report.json": [_REPORT]}, ["--report", "report.json"], "report"),
    *(("verify", {"report.json": {**_REPORT, "class_id": 1, key: [[fid]]}},
       ["--report", "report.json"], f"report {key}")
      for key, fid in (("axps", [0]), ("axps", "a"), ("cxps", 1.5), ("cxps", True), ("axps", -1))),
    *(("verify", {"report.json": {**_REPORT, "class_id": 1, key: value}},
       ["--report", "report.json"], f"report {key}")
      for key, value in (("mode", 5), ("mode", "both"), ("complete", "yes"), ("complete", 1),
                         ("oracle_calls", "many"), ("oracle_calls", -1), ("oracle_calls", True))),
    ("compare", {"ref.json": {"format": "attribution/1", "features": ["a", "b"]}},
     ["--reference", "ref.json"], "entries"),
    ("attribute", {"rows.csv": "a,b\n"}, ["--grid", "2x1", "--matrix-out", "m.txt"], "--grid"),
    # a row with fewer or more cells than the header
    ("explain", {"rows.csv": "a,b\n0.5,0\n0.5\n"}, [], "row 1 has 1 cells, the header has 2"),
    ("explain", {"rows.csv": "a,b\n0.5,0,1\n"}, [], "row 0 has 3 cells, the header has 2"),
    # options that a canonical model or the chosen output would silently ignore
    ("explain", {}, ["--base-score", "100"], "base scores"),
    ("explain", {}, ["--classes", "no,yes"], "class names"),
    ("attribute", {}, ["--kind", "wffa", "--checkpoints", "1,2"], "--checkpoints"),
    ("attribute", {}, ["--matrix-out", "m.txt"], "--matrix-out"),
    # values of the wrong JSON type: a bool is not an id, a list not a value name
    ("explain", {"model.json": [{"nodeid": 0, "split": True, "split_condition": 0.5, "yes": 1, "no": 2,
                                 "children": [{"nodeid": 1, **_LEAF}, {"nodeid": 2, **_LEAF}]}]},
     [], "tree 0"),
    *(("explain", {"model.json": [{"nodeid": 0, "split": "a", "split_condition": 0.5, **ids,
                                   "children": [{"nodeid": 1, **_LEAF}, {"nodeid": nodeid, **_LEAF}]}]},
       [], "tree 0")
      for ids, nodeid in (({"yes": True, "no": 2}, 2), ({"yes": 1.0, "no": 2}, 2),
                          ({"yes": 1, "no": 2}, 2.0), ({"yes": 1, "no": 1}, 1))),
    ("explain", {"model.json": {**_MODEL, "trees": [{"class": True, "root": _LEAF}]}}, [], "tree 0"),
    ("explain", {"space.json": {"features": [{"name": "a", "kind": "categorical", "values": [["x"]]}]}},
     [], "features[0]"),
    ("compare", {"ref.json": {"format": "attribution/1", "features": ["a", "b"],
                              "entries": [{"source": "ffa", "values": ["x", 0.0]}]}},
     ["--reference", "ref.json"], "entries[0]"),
], ids=[
    "space-entry-not-object", "space-lo-not-number", "le-without-threshold",
    "threshold-not-number", "leaf-not-number", "base-score-not-number",
    "in-values-not-list", "dump-children-not-objects",
    "report-without-class-id", "report-is-array",
    "report-id-is-list", "report-id-is-string", "report-id-is-float", "report-id-is-bool",
    "report-id-is-negative",
    "report-mode-is-number", "report-mode-unknown", "report-complete-is-string",
    "report-complete-is-number", "report-calls-is-string", "report-calls-is-negative",
    "report-calls-is-bool",
    "reference-without-entries", "grid-over-no-rows", "short-csv-row", "long-csv-row",
    "canonical-model-with-base-score", "canonical-model-with-classes",
    "checkpoints-with-wffa-only", "matrix-out-without-grid",
    "dump-split-is-bool", "dump-child-id-is-bool", "dump-child-id-is-float",
    "dump-nodeid-is-float", "dump-nodeids-repeat", "canonical-class-is-bool", "categorical-value-is-list",
    "reference-value-is-string",
])
def test_malformed_document_exits_2(tmp_path, monkeypatch, capsys, command, docs, extra, where):
    monkeypatch.chdir(tmp_path)
    for name, doc in {"space.json": _SPACE, "model.json": _MODEL, "rows.csv": "a,b\n0.5,0\n", **docs}.items():
        Path(name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if command == "compare":
        argv = [command, "--space", "space.json", *extra]
    else:
        argv = [command, "--model", "model.json", "--space", "space.json", "--instances", "rows.csv", *extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and where in err, err


def test_explain_files_and_looks_up_no_counterexample(monkeypatch):
    # Each row's AXp is one one-shot extraction, and no one-sided
    # counterexample can answer a later trial of the extraction that found
    # it, so the extraction's session keeps no store, and the oracle keeps
    # no counterexample after any row.
    stores, held = [], []
    counterexample = enumeration._Session.counterexample

    def watching(session, fixed, fixed_mask, away=None):
        if away is not None:
            stores.append(session.store)
        return counterexample(session, fixed, fixed_mask, away)

    def extracting(model, v, c, seed, order=None):
        axp = extract_axp(model, v, c, seed, order)
        held.extend(x for x in instances_held(oracle._tree_oracle(model)) if x is not v)
        return axp

    monkeypatch.setattr(enumeration._Session, "counterexample", watching)
    monkeypatch.setattr(cli, "extract_axp", extracting)
    assert main(interop_args("explain", "--rows", "0-99", "--workers", "1")) == 0
    assert len(stores) > 1000 and all(store is None for store in stores)
    assert held == []

"""Parsers and writers for every document the pipeline consumes or emits.

Formats (schemas ship under ffax/schemas/, printable via the CLI):

* feature space        JSON, declares every feature's kind and domain
* model (canonical)    JSON object with nested split nodes; "le" tests are
                       inclusive (yes iff value <= threshold)
* model dump (toolkit) JSON array of trees in the de facto boosting-toolkit
                       dump form: nodes carry split/split_condition/yes/no/
                       children ids, leaves carry "leaf". Numeric tests use
                       the toolkit's strict-less semantics (yes iff x < t)
                       and are ingested losslessly as "<= nextafter(t, -inf)";
                       list-valued conditions are membership tests. With k
                       classes, tree i belongs to class i mod k (round-robin);
                       binary dumps are single-score models (all trees class 1)
* instances            CSV with a header of feature names (+ optional label)
* external attribution CSV of feature,value rows; "# source: NAME" metadata
* enumeration report   JSON; wall-clock data segregated under "timing"
* attribution          JSON, one entry per explained instance
* comparison           JSON table of per-candidate averaged metrics
* matrix               plain text numeric grid for external plotting

Every JSON document is loaded by ``_load`` and every number and integer in it
read by ``_number`` or ``_int``, neither of which takes ``true``. The domain
rules live only in the model's constructors; ``_build`` reports a broken one
as a ``ParseError`` at the entry's location.

Every JSON document is written compact, without indentation: an indented
enumeration report puts each feature id of each set on its own line, about
twice the text.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .attribution import AttributionVector
from .enumeration import Budget, EnumerationReport
from .errors import DataMismatchError, ParseError, ValidationError
from .model import (
    BOOLEAN,
    CATEGORICAL,
    ORDINAL,
    BooleanSplit,
    FeatureSpace,
    FeatureSpec,
    Instance,
    Leaf,
    MembershipSplit,
    Node,
    ThresholdSplit,
    Tree,
    TreeEnsemble,
)

SCHEMA_NAMES = (
    "feature-space",
    "model",
    "model-dump",
    "instances",
    "external-attribution",
    "enumeration-report",
    "attribution",
    "comparison",
    "matrix",
)


def schema_text(name: str) -> str:
    if name not in SCHEMA_NAMES:
        raise ParseError(f"unknown format {name!r}; known: {', '.join(SCHEMA_NAMES)}")
    return resources.files("ffax.schemas").joinpath(f"{name}.schema.json").read_text()


def _load(text: str, what: str, fmt: str | None = None):
    """The JSON document in ``text``; with ``fmt``, an object tagged ``"format": fmt``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}", what) from None
    if fmt is not None and (not isinstance(doc, dict) or doc.get("format") != fmt):
        raise ParseError(f'needs to be an object with "format": "{fmt}"', what)
    return doc


def _number(value, what: str, where: str | None = None) -> float:
    """``value`` as a float; a JSON number is the only thing accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}", where)
    return float(value)


def _int(value, what: str, where: str | None, hi: int | None = None) -> int:
    """``value`` as an int in ``0..hi - 1`` (``>= 0`` without ``hi``); ``true`` is not one."""
    top = math.inf if hi is None else hi
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < top:
        span = ">= 0" if hi is None else f"in 0..{hi - 1}"
        raise ParseError(f"{what} must be an integer {span}, got {value!r}", where)
    return value


def _build(cls, where: str, **fields):
    """``cls(**fields)``, with a broken rule of ``cls`` reported at ``where``."""
    try:
        return cls(**fields)
    except ValidationError as exc:
        raise ParseError(str(exc), where) from None


# --- feature space ------------------------------------------------------------


def parse_feature_space(text: str) -> FeatureSpace:
    doc = _load(text, "feature space")
    if not isinstance(doc, dict) or not isinstance(doc.get("features"), list):
        raise ParseError("feature space document needs a top-level 'features' list")
    specs = []
    for fid, item in enumerate(doc["features"]):
        where = f"features[{fid}]"
        if not isinstance(item, dict):
            raise ParseError("feature entry must be an object", where)
        name, kind = item.get("name"), item.get("kind")
        if not isinstance(name, str):
            raise ParseError("missing feature name", where)
        domain = {}
        if kind == CATEGORICAL:
            values = item.get("values")
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise ParseError(f"categorical {name!r} needs a 'values' list of strings", where)
            domain = {"values": tuple(values)}
        elif kind == ORDINAL:
            domain = {key: _number(item.get(key), f"'{key}'", where) for key in ("lo", "hi")}
        specs.append(_build(FeatureSpec, where, fid=fid, name=name, kind=kind, **domain))
    return _build(FeatureSpace, "features", features=tuple(specs))


# --- models ---------------------------------------------------------------------


def _resolve_fid(space: FeatureSpace, name, where: str) -> int:
    if not isinstance(name, str):
        return _int(name, "feature id", where, space.m)
    fid = space.name_to_fid.get(name)
    if fid is None and name[:1] == "f" and name[1:].isdecimal():
        fid = int(name[1:])  # the toolkit's "fN" for feature id N
    if fid is None or fid >= space.m:
        raise ParseError(f"unknown feature name {name!r}", where)
    return fid


def parse_ensemble_dump(
    text: str,
    space: FeatureSpace,
    class_names: Sequence[str] | None = None,
    base_score: float | Sequence[float] | None = None,
) -> TreeEnsemble:
    """Parse either a toolkit tree-dump array or a canonical model object.

    Dump arrays assign trees to classes round-robin, named ``class_names``
    (default ``("0", "1")``) and offset by ``base_score``; canonical
    documents carry their class tags, names and base scores, and refuse both.
    """
    doc = _load(text, "model")
    if isinstance(doc, dict):
        for given, what in ((class_names, "class names"), (base_score, "base scores")):
            if given is not None:
                raise ParseError(f"{what} are given for a model dump only; a canonical model carries its own")
        return _parse_canonical_model(doc, space)
    if not isinstance(doc, list):
        raise ParseError("model document must be a JSON array (dump) or object (canonical)")
    if not doc:
        raise ParseError("no trees in model dump")
    if class_names is None:
        class_names = ("0", "1")
    k = len(class_names)
    if isinstance(base_score, (int, float)):
        base_score = (0.0, base_score) if k == 2 else (base_score,) * k
    base = () if base_score is None else tuple(base_score)
    trees = []
    for t, node in enumerate(doc):
        class_id = t % k if k > 2 else 1  # TreeEnsemble refuses k < 2
        root = _parse_dump_node(node, space, where=f"tree {t}")
        trees.append(Tree(class_id=class_id, root=root))
    return _build(TreeEnsemble, "model", space=space, class_names=tuple(class_names),
                  trees=tuple(trees), base_score=base)


def _parse_dump_node(node, space: FeatureSpace, where: str) -> Node:
    if not isinstance(node, dict):
        raise ParseError("node must be an object", where)
    if "leaf" in node:
        return Leaf(weight=_number(node["leaf"], "leaf weight", where))
    for key in ("split", "yes", "no"):
        if key not in node:
            raise ParseError(f"split node lacks {key!r}", where)
    fid = _resolve_fid(space, node["split"], where)
    spec = space[fid]
    items = node.get("children", [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ParseError("'children' must be a list of node objects", where)
    children: dict[int, dict] = {}
    for item in items:
        nodeid = _int(item.get("nodeid"), "child nodeid", where)
        if nodeid in children:
            raise ParseError(f"two children have nodeid {nodeid}", where)
        children[nodeid] = item

    def child(which: str) -> Node:
        cid = _int(node[which], "child id", where)
        if cid not in children:
            raise ParseError(f"dangling child id {cid!r}", where)
        return _parse_dump_node(children[cid], space, where=f"{where} -> node {cid}")

    condition = node.get("split_condition", node.get("categories"))
    if isinstance(condition, list):
        return _membership_node(spec, fid, condition, child("yes"), child("no"), where)
    t = _number(condition, "split_condition (or a list of values)", where)
    return _strict_less_node(spec, fid, t, child("yes"), child("no"), where)


def _membership_node(spec: FeatureSpec, fid, values, yes, no, where) -> Node:
    if spec.kind == CATEGORICAL:
        names = []
        for v in values:
            if not isinstance(v, str):
                v = spec.values[_int(v, f"{spec.name!r} value index", where, len(spec.values))]
            elif v not in spec.values:
                raise ParseError(f"unknown categorical value {v!r} for {spec.name!r}", where)
            names.append(v)
        return MembershipSplit(fid=fid, values=frozenset(names), yes=yes, no=no)
    if spec.kind == BOOLEAN:
        truthy = {bool(v) if not isinstance(v, str) else v.lower() == "true" for v in values}
        if truthy == {True}:
            return BooleanSplit(fid=fid, yes=yes, no=no)
        if truthy == {False}:
            return BooleanSplit(fid=fid, yes=no, no=yes)
        return yes  # both values listed: the test is vacuously true
    raise ParseError(f"membership test on ordinal feature {spec.name!r}", where)


def _strict_less_node(spec: FeatureSpec, fid, t: float, yes, no, where) -> Node:
    # Toolkit semantics: yes iff x < t. Over floats, x < t iff x <= prev(t).
    if spec.kind == ORDINAL:
        return ThresholdSplit(fid=fid, threshold=math.nextafter(t, -math.inf), yes=yes, no=no)
    if spec.kind == BOOLEAN:
        if t <= 0.0:  # nothing is < t
            return no
        if t > 1.0:  # everything is < t
            return yes
        return BooleanSplit(fid=fid, yes=no, no=yes)  # only False is < t
    raise ParseError(f"numeric test on categorical feature {spec.name!r}", where)


# canonical model document


def _parse_canonical_node(node, space: FeatureSpace, where: str) -> Node:
    if not isinstance(node, dict):
        raise ParseError("node must be an object", where)
    if "leaf" in node:
        return Leaf(weight=_number(node["leaf"], "leaf weight", where))
    test = node.get("test")
    fid = _resolve_fid(space, node.get("feature"), where)
    spec = space[fid]
    yes = _parse_canonical_node(node.get("yes"), space, f"{where} -> yes")
    no = _parse_canonical_node(node.get("no"), space, f"{where} -> no")
    if test == "le":
        if spec.kind != ORDINAL:
            raise ParseError(f"'le' test on non-ordinal feature {spec.name!r}", where)
        threshold = _number(node.get("threshold"), "'le' threshold", where)
        return ThresholdSplit(fid=fid, threshold=threshold, yes=yes, no=no)
    if test == "in":
        if spec.kind != CATEGORICAL:
            raise ParseError(f"'in' test on non-categorical feature {spec.name!r}", where)
        values = node.get("values")
        if not values or not isinstance(values, list):
            raise ParseError("'in' test needs a non-empty values list", where)
        for v in values:
            if v not in spec.values:
                raise ParseError(f"unknown categorical value {v!r} for {spec.name!r}", where)
        return MembershipSplit(fid=fid, values=frozenset(values), yes=yes, no=no)
    if test == "is":
        if spec.kind != BOOLEAN:
            raise ParseError(f"'is' test on non-boolean feature {spec.name!r}", where)
        return BooleanSplit(fid=fid, yes=yes, no=no)
    raise ParseError(f"unknown test {test!r}", where)


def _parse_canonical_model(doc: dict, space: FeatureSpace) -> TreeEnsemble:
    classes = doc.get("classes")
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ParseError("canonical model needs a 'classes' list of names")
    raw_trees = doc.get("trees")
    if not raw_trees or not isinstance(raw_trees, list):
        raise ParseError("no trees in model document")
    trees = []
    for t, item in enumerate(raw_trees):
        where = f"tree {t}"
        if not isinstance(item, dict):
            raise ParseError("tree entry must be an object", where)
        root = _parse_canonical_node(item.get("root"), space, where)
        trees.append(Tree(class_id=_int(item.get("class"), "class tag", where), root=root))
    base = doc.get("base_score") or []
    if not isinstance(base, list):
        raise ParseError("must be a list of numbers", "base_score")
    return _build(
        TreeEnsemble, "model",
        space=space,
        class_names=tuple(classes),
        trees=tuple(trees),
        base_score=tuple(_number(b, f"entry {i}", "base_score") for i, b in enumerate(base)),
    )


def _node_to_json(node: Node, space: FeatureSpace) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": node.weight}
    common = {
        "feature": space[node.fid].name,
        "yes": _node_to_json(node.yes, space),
        "no": _node_to_json(node.no, space),
    }
    if isinstance(node, ThresholdSplit):
        return {"test": "le", "threshold": node.threshold, **common}
    if isinstance(node, MembershipSplit):
        return {"test": "in", "values": sorted(node.values), **common}
    return {"test": "is", **common}


def write_model(model: TreeEnsemble) -> str:
    doc = {
        "format": "model/1",
        "classes": list(model.class_names),
        "base_score": list(model.base_score),
        "trees": [
            {"class": tree.class_id, "root": _node_to_json(tree.root, model.space)}
            for tree in model.trees
        ],
    }
    return json.dumps(doc)


# --- instances -------------------------------------------------------------------

LABEL_COLUMN = "label"


def parse_instances(text: str, space: FeatureSpace) -> list[Instance]:
    """One instance per CSV row; all per-row violations reported together."""
    if not text.strip():
        return []
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    header = [h.strip() for h in header]
    has_label = LABEL_COLUMN in header
    column_of: dict[int, int] = {}
    for spec in space.features:
        if spec.name not in header:
            raise ParseError(f"missing column for feature {spec.name!r}")
        column_of[spec.fid] = header.index(spec.name)
    for col in header:
        if col != LABEL_COLUMN and col not in space.name_to_fid:
            raise ParseError(f"unknown column {col!r}")

    instances = []
    problems = []
    for row_no, row in enumerate(reader):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            problems.append(f"row {row_no} has {len(row)} cells, the header has {len(header)}")
            continue
        values = []
        for spec in space.features:
            cell = row[column_of[spec.fid]].strip()
            try:
                values.append(_parse_cell(spec, cell))
            except ValueError as exc:
                problems.append(f"row {row_no}: {exc}")
        label = None
        if has_label:
            raw = row[header.index(LABEL_COLUMN)].strip()
            if raw:
                try:
                    label = int(raw)
                except ValueError:
                    label = raw
        if len(values) == space.m:
            instances.append(Instance(values=tuple(values), label=label))
    if problems:
        raise ParseError("; ".join(problems))
    return instances


def _parse_cell(spec: FeatureSpec, cell: str):
    if spec.kind == CATEGORICAL:
        if cell not in spec.values:
            raise ValueError(f"feature {spec.name!r}: value {cell!r} outside declared domain")
        return cell
    if spec.kind == BOOLEAN:
        low = cell.lower()
        if low in ("1", "true"):
            return True
        if low in ("0", "false"):
            return False
        raise ValueError(f"feature {spec.name!r}: {cell!r} is not a boolean")
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"feature {spec.name!r}: {cell!r} is not a number") from None
    if not spec.lo <= value <= spec.hi:
        raise ValueError(
            f"feature {spec.name!r}: {value} outside [{spec.lo}, {spec.hi}]"
        )
    return value


def write_instances(space: FeatureSpace, instances: Sequence[Instance]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([s.name for s in space.features] + [LABEL_COLUMN])
    for inst in instances:
        row = []
        for spec in space.features:
            v = inst.values[spec.fid]
            row.append(int(v) if spec.kind == BOOLEAN else v)
        row.append("" if inst.label is None else inst.label)
        writer.writerow(row)
    return out.getvalue()


# --- external attribution vectors ---------------------------------------------------


def read_external_attribution(text: str, space: FeatureSpace) -> AttributionVector:
    """Two-column feature,value document; absent features default to 0."""
    source = "external"
    values = [0.0] * space.m
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta = line.lstrip("#").strip()
            if meta.lower().startswith("source:"):
                source = f"external:{meta.split(':', 1)[1].strip()}"
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"line {line_no}: expected 'feature,value', got {raw!r}")
        name, raw_value = parts
        if name == "feature" and line_no == 1:
            continue  # tolerate a header row
        if name not in space.name_to_fid:
            raise DataMismatchError(f"line {line_no}: unknown feature {name!r}")
        if name in seen:
            raise ParseError(f"line {line_no}: duplicate feature {name!r}")
        seen.add(name)
        try:
            values[space.name_to_fid[name]] = float(raw_value)
        except ValueError:
            raise ParseError(f"line {line_no}: {raw_value!r} is not a number") from None
    return AttributionVector(values=tuple(values), source=source, basis=0, complete=False)


# --- enumeration report docs ----------------------------------------------------------


def _budget_to_json(budget: Budget) -> dict:
    return {
        "seconds": budget.seconds,
        "max_axps": budget.max_axps,
        "max_cxps": budget.max_cxps,
        "max_oracle_calls": budget.max_oracle_calls,
        "unbounded": budget.unbounded,
    }


def _instance_to_json(inst: Instance) -> dict:
    return {"values": list(inst.values), "label": inst.label}


def write_enumeration_report(
    report: EnumerationReport, class_name: str | None = None
) -> str:
    """All wall-clock data lives under "timing" so the rest is run-to-run
    byte-identical for a fixed configuration."""
    events = [
        {
            "kind": e.kind,
            "features": sorted(e.features),
            "index": e.discovery_index,
            "oracle_calls": e.oracle_calls,
        }
        for e in report.events()
    ]
    doc = {
        "format": "enumeration-report/1",
        "class_id": report.class_id,
        "class_name": class_name,
        "mode": report.mode,
        "complete": report.complete,
        "instance": _instance_to_json(report.instance),
        "axps": [sorted(e.features) for e in report.axps],
        "cxps": [sorted(e.features) for e in report.cxps],
        "events": events,
        "oracle_calls": report.oracle_calls,
        "budget": _budget_to_json(report.budget),
        "timing": {
            "wall_time": report.wall_time,
            "event_times": [
                {"index": e.discovery_index, "time": e.discovery_time}
                for e in report.events()
            ],
        },
    }
    return json.dumps(doc)


def write_enumeration_reports(reports: Sequence[str]) -> str:
    """The ``enumeration-reports/1`` document of written reports, their texts joined unparsed."""
    return '{"format": "enumeration-reports/1", "reports": [' + ", ".join(reports) + "]}"


@dataclass(frozen=True)
class LoadedReport:
    class_id: int
    class_name: str | None
    mode: str
    complete: bool
    instance_values: tuple
    axps: list[frozenset[int]]
    cxps: list[frozenset[int]]
    oracle_calls: int
    events: list[dict]


def read_enumeration_report(text: str) -> LoadedReport:
    doc = _load(text, "report", "enumeration-report/1")
    mode, complete, instance = doc.get("mode"), doc.get("complete"), doc.get("instance")
    if mode not in ("cxp-first", "axp-first"):
        raise ParseError(f"must be 'cxp-first' or 'axp-first', got {mode!r}", "report mode")
    if not isinstance(complete, bool):
        raise ParseError(f"must be true or false, got {complete!r}", "report complete")
    if not isinstance(instance, dict) or not isinstance(instance.get("values"), list):
        raise ParseError("needs a 'values' list", "report instance")
    for key in ("axps", "cxps"):
        if not isinstance(doc.get(key), list) or not all(isinstance(s, list) for s in doc[key]):
            raise ParseError("must be a list of feature-id lists", f"report {key}")
        for fid in (fid for s in doc[key] for fid in s):
            _int(fid, "a feature id", f"report {key}")
    return LoadedReport(
        class_id=_int(doc.get("class_id"), "the class id", "report class_id"),
        class_name=doc.get("class_name"),
        mode=mode,
        complete=complete,
        instance_values=tuple(instance["values"]),
        axps=[frozenset(s) for s in doc["axps"]],
        cxps=[frozenset(s) for s in doc["cxps"]],
        oracle_calls=_int(doc.get("oracle_calls"), "the call count", "report oracle_calls"),
        events=doc.get("events", []),
    )


# --- attribution docs ---------------------------------------------------------------------


def write_attribution_doc(
    space: FeatureSpace,
    entries: Sequence[dict],
) -> str:
    """Entries are dicts with row, class_id, vector: AttributionVector, and an
    optional convergence list of (mark, error-or-None)."""
    body = []
    for entry in entries:
        vec: AttributionVector = entry["vector"]
        item = {
            "row": entry.get("row"),
            "class_id": entry.get("class_id"),
            "source": vec.source,
            "basis": vec.basis,
            "complete": vec.complete,
            "values": list(vec.values),
        }
        if entry.get("convergence") is not None:
            item["convergence"] = [
                {"mark": mark, "error": err} for mark, err in entry["convergence"]
            ]
        body.append(item)
    doc = {
        "format": "attribution/1",
        "features": [s.name for s in space.features],
        "entries": body,
    }
    return json.dumps(doc)


def read_attribution_doc(text: str, space: FeatureSpace) -> list[dict]:
    """The entries of an attribution document over ``space``: row, class_id and vector.

    Its ``features`` must be ``space``'s names in order (``DataMismatchError``
    otherwise), and each entry needs one value per feature.
    """
    doc = _load(text, "attribution document", "attribution/1")
    for key in ("features", "entries"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"attribution document needs a list under {key!r}")
    if doc["features"] != [spec.name for spec in space.features]:
        raise DataMismatchError(
            f"attribution document's features {doc['features']!r} are not the space's names in order"
        )
    out = []
    for i, item in enumerate(doc["entries"]):
        where = f"entries[{i}]"
        values = item.get("values") if isinstance(item, dict) else None
        if not isinstance(values, list) or not isinstance(item.get("source"), str):
            raise ParseError("entry needs a 'values' list and a 'source' string", where)
        if len(values) != space.m:
            raise ParseError(f"entry has {len(values)} values for {space.m} features", where)
        complete = item.get("complete", False)
        if not isinstance(complete, bool):
            raise ParseError(f"'complete' must be true or false, got {complete!r}", where)
        out.append(
            {
                "row": item.get("row"),
                "class_id": item.get("class_id"),
                "vector": AttributionVector(
                    values=tuple(_number(x, f"value {j}", where) for j, x in enumerate(values)),
                    source=item["source"],
                    basis=_int(item.get("basis", 0), "'basis'", where),
                    complete=complete,
                ),
            }
        )
    return out


def write_attribution_matrix(vec: AttributionVector, rows: int, cols: int) -> str:
    """Row-major numeric matrix for grid-shaped feature spaces."""
    if rows * cols != vec.m:
        raise DataMismatchError(f"grid {rows}x{cols} does not cover {vec.m} features")
    lines = []
    for r in range(rows):
        lines.append(" ".join(format(x, ".17g") for x in vec.values[r * cols : (r + 1) * cols]))
    return "\n".join(lines) + "\n"


# --- comparison docs ------------------------------------------------------------------------


def write_comparison_doc(reference_source: str, averaged_rows) -> str:
    doc = {
        "format": "comparison/1",
        "reference": reference_source,
        "rows": [
            {
                "name": r.name,
                "error": r.error,
                "tau": r.tau,
                "rbo": r.rbo,
                "instances": r.instances,
                "tau_defined": r.tau_defined,
            }
            for r in averaged_rows
        ],
    }
    return json.dumps(doc)


def read_comparison_doc(text: str) -> dict:
    return _load(text, "comparison document", "comparison/1")

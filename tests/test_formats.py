import json
import math

import pytest

from conftest import FIXTURES
from ffax import formats
from ffax.cli import main
from ffax.attribution import AttributionVector, ffa
from ffax.enumeration import Budget, enumerate_explanations
from ffax.errors import DataMismatchError, ParseError
from ffax.metrics import average_rows, compare_vectors
from ffax.model import Instance, evaluate


ADULT = FIXTURES / "adult"


def test_parse_feature_space_fixture(adult_space):
    assert adult_space.m == 6
    assert [s.name for s in adult_space.features] == [
        "Education", "Status", "Occupation", "Relationship", "Sex", "Hours/w",
    ]
    assert adult_space[5].kind == "ordinal"
    assert (adult_space[5].lo, adult_space[5].hi) == (0.0, 99.0)


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"name": "Education", "kind": "categorical", "values": []}, "non-empty"),
        ({"name": "Hours", "kind": "ordinal", "lo": 5, "hi": 2}, "lo > hi"),
        ({"name": "X", "kind": "mystery"}, "unknown kind"),
    ],
)
def test_parse_feature_space_errors(mutation, message):
    doc = {"features": [mutation]}
    with pytest.raises(ParseError, match=message):
        formats.parse_feature_space(json.dumps(doc))


def test_parse_feature_space_duplicate_names():
    doc = {"features": [{"name": "a", "kind": "boolean"}, {"name": "a", "kind": "boolean"}]}
    with pytest.raises(ParseError, match="duplicate"):
        formats.parse_feature_space(json.dumps(doc))


def test_dump_and_canonical_agree_everywhere(adult_space, adult_model, rng):
    from ffax.synth import random_instance

    dump_model = formats.parse_ensemble_dump(
        (ADULT / "model_dump.json").read_text(), adult_space,
        class_names=("<50k", ">=50k"),
    )
    for _ in range(200):
        point = random_instance(rng, adult_space)
        assert evaluate(dump_model, point).scores == evaluate(adult_model, point).scores


def test_dump_fixture_reproduces_worked_score(adult_space, adult_instance):
    model = formats.parse_ensemble_dump(
        (ADULT / "model_dump.json").read_text(), adult_space,
        class_names=("<50k", ">=50k"),
    )
    pred = evaluate(model, adult_instance)
    assert pred.scores[1] == pytest.approx(-0.4073, abs=1e-12)
    assert model.class_names[pred.class_id] == "<50k"


def test_strict_less_threshold_conversion(adult_space):
    # dump tests are "x < t": the fixture wrote t = nextafter(40), so x = 40
    # must still take the yes-branch while x just above 40 must not
    model = formats.parse_ensemble_dump(
        (ADULT / "model_dump.json").read_text(), adult_space,
        class_names=("<50k", ">=50k"),
    )
    base = ("Bachelors", "Separated", "Sales", "Not-in-family", "Male")
    at_40 = evaluate(model, Instance(base + (40.0,))).scores[1]
    above = evaluate(model, Instance(base + (math.nextafter(40.0, 99),))).scores[1]
    assert at_40 == pytest.approx(-0.4073, abs=1e-12)
    assert above != at_40


def test_parse_dump_errors(adult_space):
    with pytest.raises(ParseError, match="no trees"):
        formats.parse_ensemble_dump("[]", adult_space)
    bad_feature = [{
        "nodeid": 0, "split": "Wage", "split_condition": 1.0, "yes": 1, "no": 2,
        "children": [{"nodeid": 1, "leaf": 0.0}, {"nodeid": 2, "leaf": 0.0}],
    }]
    with pytest.raises(ParseError, match="unknown feature name 'Wage'"):
        formats.parse_ensemble_dump(json.dumps(bad_feature), adult_space)
    dangling = [{
        "nodeid": 0, "split": "Hours/w", "split_condition": 1.0, "yes": 1, "no": 9,
        "children": [{"nodeid": 1, "leaf": 0.0}],
    }]
    with pytest.raises(ParseError, match="tree 0.*dangling child id 9"):
        formats.parse_ensemble_dump(json.dumps(dangling), adult_space)
    numeric_on_categorical = [{
        "nodeid": 0, "split": "Education", "split_condition": 1.0, "yes": 1, "no": 2,
        "children": [{"nodeid": 1, "leaf": 0.0}, {"nodeid": 2, "leaf": 0.0}],
    }]
    with pytest.raises(ParseError, match="numeric test on categorical"):
        formats.parse_ensemble_dump(json.dumps(numeric_on_categorical), adult_space)


def _boolean_membership_dump(values):
    """A one-split dump on the boolean feature ``a``: yes scores 1.0, no -1.0."""
    return json.dumps([{
        "nodeid": 0, "split": "a", "categories": values, "yes": 1, "no": 2,
        "children": [{"nodeid": 1, "leaf": 1.0}, {"nodeid": 2, "leaf": -1.0}],
    }])


BOOLEAN_SPACE = json.dumps({"features": [{"name": "a", "kind": "boolean"}]})


@pytest.mark.parametrize("values, true_scores", [
    ([True], 1.0), (["TRUE"], 1.0), ([1], 1.0), ([False], -1.0), (["false"], -1.0), ([0], -1.0),
])
def test_boolean_membership_values(values, true_scores):
    space = formats.parse_feature_space(BOOLEAN_SPACE)
    model = formats.parse_ensemble_dump(_boolean_membership_dump(values), space)
    assert evaluate(model, Instance((True,))).scores[1] == true_scores
    assert evaluate(model, Instance((False,))).scores[1] == -true_scores


@pytest.mark.parametrize("values, message", [
    ([], "empty membership set on 'a'"),
    (["1"], "got '1'"),
    (["yes"], "got 'yes'"),
    ([1.0], "got 1.0"),
    ([2], "got 2"),
    ([None], "got None"),
    ([True, "no"], "got 'no'"),
])
def test_boolean_membership_refuses_an_empty_or_unreadable_set(values, message, tmp_path):
    # An empty list used to load as "both values listed" (a constant model),
    # and any string but "true" as False.
    space = formats.parse_feature_space(BOOLEAN_SPACE)
    with pytest.raises(ParseError, match=f"tree 0: .*{message}"):
        formats.parse_ensemble_dump(_boolean_membership_dump(values), space)
    (tmp_path / "space.json").write_text(BOOLEAN_SPACE)
    (tmp_path / "model.json").write_text(_boolean_membership_dump(values))
    (tmp_path / "rows.csv").write_text("a\n1\n")
    assert main([
        "explain", "--model", str(tmp_path / "model.json"), "--space", str(tmp_path / "space.json"),
        "--instances", str(tmp_path / "rows.csv"),
    ]) == 2


def test_fn_style_feature_names(adult_space):
    dump = [{
        "nodeid": 0, "split": "f5", "split_condition": 40.5, "yes": 1, "no": 2,
        "children": [{"nodeid": 1, "leaf": -1.0}, {"nodeid": 2, "leaf": 1.0}],
    }]
    model = formats.parse_ensemble_dump(json.dumps(dump), adult_space)
    assert model.trees[0].root.fid == 5


def test_canonical_roundtrip_is_identity(adult_model, adult_space):
    text = formats.write_model(adult_model)
    again = formats.parse_ensemble_dump(text, adult_space)
    assert again == adult_model


def test_canonical_model_errors(adult_space):
    with pytest.raises(ParseError, match="no trees"):
        formats.parse_ensemble_dump(
            json.dumps({"classes": ["a", "b"], "trees": []}), adult_space
        )
    doc = {
        "classes": ["a", "b"],
        "trees": [{"class": 1, "root": {"feature": "Education", "test": "in",
                                       "values": ["Masters"],
                                       "yes": {"leaf": 0}, "no": {"leaf": 0}}}],
    }
    with pytest.raises(ParseError, match="unknown categorical value 'Masters'"):
        formats.parse_ensemble_dump(json.dumps(doc), adult_space)
    canonical = json.dumps({**doc, "trees": [{"class": 1, "root": {"leaf": 0}}]})
    with pytest.raises(ParseError, match="class names are given for a model dump only"):
        formats.parse_ensemble_dump(canonical, adult_space, class_names=("a", "b"))
    with pytest.raises(ParseError, match="base scores are given for a model dump only"):
        formats.parse_ensemble_dump(canonical, adult_space, base_score=0.0)


def _canonical_with_base_score(*value):
    doc = {"classes": ["a", "b"], "trees": [{"class": 1, "root": {"leaf": 0.5}}]}
    if value:
        doc["base_score"] = value[0]
    return json.dumps(doc)


@pytest.mark.parametrize("value", [0, False, "", {}])
def test_canonical_base_score_must_be_a_list(adult_space, value):
    # 0, false, "" and {} used to load as "no base score" while 5 was refused
    with pytest.raises(ParseError, match="base_score: must be a list of numbers"):
        formats.parse_ensemble_dump(_canonical_with_base_score(value), adult_space)


def test_canonical_base_score_absent_or_null_means_none(adult_space):
    for text in (_canonical_with_base_score(), _canonical_with_base_score(None)):
        assert formats.parse_ensemble_dump(text, adult_space).base_score == (0.0, 0.0)
    model = formats.parse_ensemble_dump(_canonical_with_base_score([0.0, 0.25]), adult_space)
    assert model.base_score == (0.0, 0.25)


def test_multiclass_dump_round_robin(adult_space):
    leafy = lambda w: {"nodeid": 0, "leaf": w}
    dump = [leafy(0.1), leafy(0.2), leafy(0.3), leafy(0.4), leafy(0.5), leafy(0.6)]
    model = formats.parse_ensemble_dump(
        json.dumps(dump), adult_space, class_names=("a", "b", "c")
    )
    assert [t.class_id for t in model.trees] == [0, 1, 2, 0, 1, 2]


# --- instances ------------------------------------------------------------------


def test_parse_instances_fixture(adult_space, adult_instance):
    assert adult_instance.values == (
        "Bachelors", "Separated", "Sales", "Not-in-family", "Male", 40.0,
    )
    assert adult_instance.label == "<50k"


def test_parse_instances_collects_row_errors(adult_space):
    text = (
        "Education,Status,Occupation,Relationship,Sex,Hours/w\n"
        "Bachelors,Separated,Sales,Not-in-family,Male,-5\n"
        "Masters,Separated,Sales,Not-in-family,Male,40\n"
    )
    with pytest.raises(ParseError) as err:
        formats.parse_instances(text, adult_space)
    message = str(err.value)
    assert "row 0" in message and "Hours/w" in message
    assert "row 1" in message and "Masters" in message


def test_parse_instances_empty_and_missing_columns(adult_space):
    assert formats.parse_instances("", adult_space) == []
    with pytest.raises(ParseError, match="missing column"):
        formats.parse_instances("Education\nBachelors\n", adult_space)
    with pytest.raises(ParseError, match="unknown column"):
        formats.parse_instances(
            "Education,Status,Occupation,Relationship,Sex,Hours/w,extra\n", adult_space
        )


def test_instances_roundtrip(adult_space, adult_instance):
    text = formats.write_instances(adult_space, [adult_instance])
    again = formats.parse_instances(text, adult_space)
    assert again == [adult_instance]


# --- external attribution ----------------------------------------------------------


def test_read_external_fixture(adult_space):
    vec = formats.read_external_attribution(
        (ADULT / "external_relationship_only.csv").read_text(), adult_space
    )
    assert vec.source == "external:heuristic-a"
    assert vec.values == (0.0, 0.0, 0.0, 0.8, 0.0, 0.0)


def test_read_external_partial_fills_zeros(adult_space):
    vec = formats.read_external_attribution("Education,0.5\n", adult_space)
    assert vec.values == (0.5, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_read_external_duplicate_and_unknown(adult_space):
    with pytest.raises(ParseError, match="duplicate"):
        formats.read_external_attribution("Education,1\nEducation,2\n", adult_space)
    with pytest.raises(DataMismatchError, match="unknown feature"):
        formats.read_external_attribution("Wage,1\n", adult_space)


# --- report / attribution / comparison docs ------------------------------------------


def test_enumeration_report_roundtrip(adult_model, adult_instance):
    report = enumerate_explanations(adult_model, adult_instance)
    text = formats.write_enumeration_report(report, class_name="<50k")
    loaded = formats.read_enumeration_report(text)
    assert loaded.complete
    assert set(loaded.axps) == set(report.axp_sets())
    assert set(loaded.cxps) == set(report.cxp_sets())
    assert loaded.class_name == "<50k"
    assert loaded.axps == report.axp_sets()  # discovery order preserved


def test_report_wrapper_joins_the_report_texts(interop):
    # The texts are joined as written; the bytes are those of the parsed round trip.
    model, points = interop
    texts = [
        formats.write_enumeration_report(
            enumerate_explanations(model, points[row], budget=Budget(max_oracle_calls=60)),
            class_name="c",
        )
        for row in (0, 4, 7, 8)
    ]
    for reports in (texts, texts[:1]):
        round_trip = json.dumps(
            {"format": "enumeration-reports/1", "reports": [json.loads(t) for t in reports]}
        )
        assert formats.write_enumeration_reports(reports) == round_trip


def test_attribution_doc_roundtrip(adult_space):
    vec = ffa([frozenset({0, 5}), frozenset({0, 1})], 6, complete=True)
    text = formats.write_attribution_doc(
        adult_space,
        [{"row": 0, "class_id": 0, "vector": vec, "convergence": [(1.0, None), (2.0, 0.5)]}],
    )
    entries = formats.read_attribution_doc(text, adult_space)
    assert entries[0]["vector"] == vec
    assert entries[0]["row"] == 0
    raw = json.loads(text)
    assert raw["entries"][0]["convergence"] == [
        {"mark": 1.0, "error": None},
        {"mark": 2.0, "error": 0.5},
    ]


@pytest.mark.parametrize("field, bad", [
    ("source", 7), ("source", None), ("basis", True), ("basis", -1), ("basis", 2.0),
    ("complete", "no"), ("complete", 1), ("values", [0.0] * 4),
    ("row", True), ("row", None), ("class_id", False), ("class_id", "0"),
])
def test_attribution_doc_refuses_a_badly_typed_provenance(adult_space, field, bad):
    vec = ffa([frozenset({0, 5})], 6, complete=True)
    doc = json.loads(formats.write_attribution_doc(
        adult_space, [{"row": 0, "class_id": 0, "vector": vec}] * 2
    ))
    doc["entries"][1][field] = bad
    with pytest.raises(ParseError, match=rf"^entries\[1\]: .*{field}") as exc:
        formats.read_attribution_doc(json.dumps(doc), adult_space)
    assert exc.value.location == "entries[1]"


@pytest.mark.parametrize("cut", [lambda names: names[:3], lambda names: names[::-1]], ids=["cut", "reordered"])
def test_attribution_doc_features_must_be_the_space_names_in_order(adult_space, cut):
    vec = ffa([frozenset({0, 5})], 6, complete=True)
    doc = json.loads(formats.write_attribution_doc(adult_space, [{"row": 0, "class_id": 0, "vector": vec}]))
    doc["features"] = cut(doc["features"])
    with pytest.raises(DataMismatchError, match="not the space's names in order"):
        formats.read_attribution_doc(json.dumps(doc), adult_space)


def test_matrix_export_10x10():
    vec = AttributionVector(values=tuple(float(i) for i in range(100)), source="ffa")
    text = formats.write_attribution_matrix(vec, 10, 10)
    lines = text.strip().split("\n")
    assert len(lines) == 10
    assert [float(x) for x in lines[0].split()] == [float(i) for i in range(10)]
    with pytest.raises(DataMismatchError):
        formats.write_attribution_matrix(vec, 3, 3)


def test_comparison_doc_roundtrip():
    ref = AttributionVector(values=(1.0, 0.5, 0.0), source="ffa", basis=2)
    rows = [compare_vectors(ref, [("m", AttributionVector(values=(0.5, 1.0, 0.0), source="external:m"))])]
    doc = formats.write_comparison_doc("ffa", average_rows(rows))
    loaded = formats.read_comparison_doc(doc)
    assert loaded["reference"] == "ffa"
    assert loaded["rows"][0]["name"] == "m"
    assert loaded["rows"][0]["instances"] == 1


def test_json_documents_are_written_compact(adult_model, adult_instance, adult_space):
    vec = ffa([frozenset({0, 5})], 6, complete=True)
    ref = AttributionVector(values=(1.0, 0.5, 0.0), source="ffa", basis=2)
    rows = [compare_vectors(ref, [("m", AttributionVector(values=(0.5, 1.0, 0.0), source="external:m"))])]
    texts = [
        formats.write_model(adult_model),
        formats.write_enumeration_report(enumerate_explanations(adult_model, adult_instance)),
        formats.write_attribution_doc(adult_space, [{"row": 0, "class_id": 0, "vector": vec}]),
        formats.write_comparison_doc("ffa", average_rows(rows)),
    ]
    for text in texts:
        assert "\n" not in text
        assert text == json.dumps(json.loads(text))


def test_schema_text_available_for_every_format():
    for name in formats.SCHEMA_NAMES:
        text = formats.schema_text(name)
        assert name.split("-")[0] in text or "title" in text
    with pytest.raises(ParseError, match="unknown format"):
        formats.schema_text("nope")

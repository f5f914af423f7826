import json
from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit.jsonio import (
    JsonFormatError,
    decode_certificate,
    decode_element,
    decode_formula,
    decode_functor,
    decode_lifting,
    decode_rel,
    decode_system,
    dump_json,
    encode_certificate,
    encode_formula,
    encode_functor,
    encode_lifting,
    encode_rel,
    encode_system,
)
from tests.conftest import fixture_path, number_const


def test_rel_round_trip():
    raw = {
        "source": ["a1", "a2"],
        "target": ["b"],
        "values": [["0.2"], ["1/3"]],
    }
    rel = decode_rel(raw)
    assert rel.at("a1", "b") == F(1, 5)  # decimals parse exactly
    assert rel.at("a2", "b") == F(1, 3)
    assert decode_rel(json.loads(json.dumps(encode_rel(rel)))) == rel


def test_rel_errors_carry_paths():
    with pytest.raises(JsonFormatError) as err:
        decode_rel({"source": ["a"], "target": ["b"], "values": [["5/4"]]})
    assert "values[0][0]" in str(err.value)
    with pytest.raises(JsonFormatError):
        decode_rel({"source": ["a"], "target": ["b"], "values": [[]]})


def test_functor_round_trip(labelled_frames):
    functor = labelled_frames[2]
    raw = json.loads(json.dumps(encode_functor(functor)))
    assert decode_functor(raw) == functor


def test_functor_validates_label_metric():
    raw = {
        "kind": "const",
        "labels": ["x", "y"],
        "metric": [["0", "1/2"], ["1/4", "1/10"]],  # nonzero diagonal
    }
    with pytest.raises(JsonFormatError) as err:
        decode_functor(raw)
    assert "hemimetric" in str(err.value)


def test_system_round_trip(labelled_frames, prob_deadlock):
    for system in (labelled_frames[0], prob_deadlock[0]):
        raw = json.loads(json.dumps(encode_system(system)))
        decoded, notes = decode_system(raw)
        assert decoded == system
        assert notes == {}


def test_system_ingestion_warnings_and_errors():
    raw = {
        "functor": {"kind": "pfin", "sub": {"kind": "id"}},
        "states": ["s"],
        "alpha": {"s": ["s", "s"]},
    }
    system, notes = decode_system(raw)
    assert system.step("s") == lk.fset([lk.IdEl("s")])
    assert "s" in notes  # duplicate member warning
    report = lk.validate(system, notes)
    assert report.ok and report.warnings()

    bad = {
        "functor": {"kind": "dfin", "sub": {"kind": "id"}},
        "states": ["s"],
        "alpha": {"s": [["s", "1/2"], ["missing", "1/3"]]},
    }
    system, _ = decode_system(bad)
    report = lk.validate(system)
    assert not report.ok
    messages = [m for _, _, m in report.errors()]
    assert any("mass 5/6" in m for m in messages)
    assert any("not in the carrier" in m for m in messages)


def test_system_missing_alpha_entry():
    with pytest.raises(JsonFormatError) as err:
        decode_system({
            "functor": {"kind": "pfin", "sub": {"kind": "id"}},
            "states": ["s", "r"],
            "alpha": {"s": []},
        })
    assert "missing states" in str(err.value)


def test_lifting_round_trip_spec_example():
    raw = {
        "kind": "pair-sum",
        "weights": ["1/2", "1/2"],
        "left": {"kind": "const"},
        "right": {"kind": "hausdorff", "variant": "sym", "sub": {"kind": "id"}},
    }
    lifting = decode_lifting(raw)
    assert lifting == lk.PairSum(
        F(1, 2), F(1, 2), lk.ConstLift(), lk.Hausdorff("sym", lk.IdLift())
    )
    assert decode_lifting(json.loads(json.dumps(encode_lifting(lifting)))) == lifting


def test_lifting_round_trip_all_kinds():
    specs = [
        lk.IdLift(),
        lk.Hausdorff("left", lk.IdLift()),
        lk.KantorovichD(lk.IdLift()),
        lk.WassersteinD(lk.IdLift()),
        lk.PairMax(lk.ConstLift(), lk.IdLift()),
        lk.Discount(F(1, 2), lk.Hausdorff("sym", lk.IdLift())),
        lk.MaybeLift(lk.KantorovichD(lk.IdLift())),
        lk.KantorovichGrid(("dia",), F(1, 16)),
    ]
    for spec in specs:
        assert decode_lifting(json.loads(json.dumps(encode_lifting(spec)))) == spec


def test_lifting_decode_errors():
    with pytest.raises(JsonFormatError):
        decode_lifting({"kind": "hausdorff", "variant": "diagonal",
                        "sub": {"kind": "id"}})
    with pytest.raises(JsonFormatError):
        decode_lifting({"kind": "warp"})
    with pytest.raises(JsonFormatError):
        decode_lifting({"kind": "discount", "factor": "1", "sub": {"kind": "id"}})


def test_certificate_round_trip(labelled_frames):
    cert = labelled_frames[4]
    raw = json.loads(json.dumps(encode_certificate(cert)))
    assert decode_certificate(raw) == cert


def test_formula_round_trip_with_structural_nodes(labelled_frames):
    sys_a, _, functor, lifting, _ = labelled_frames
    phi = lk.synthesize(sys_a, "a1", 2)
    raw = json.loads(json.dumps(encode_formula(phi, functor)))
    again = decode_formula(raw, functor=functor)
    assert again == phi
    # values survive the round trip
    for state in sys_a.carrier.elements:
        assert lk.evaluate(again, sys_a, state, lifting) == \
            lk.evaluate(phi, sys_a, state, lifting)


def test_formula_round_trip_plain_kinds():
    phi = lk.PlusC(
        lk.And(lk.Modal("dia", (lk.FormulaConst(F(1, 2)),)), lk.FormulaConst(F(3, 10))),
        F(1, 4),
    )
    raw = json.loads(json.dumps(encode_formula(phi)))
    assert decode_formula(raw) == phi
    neg = lk.Neg(phi)
    assert decode_formula(json.loads(json.dumps(encode_formula(neg)))) == neg


def test_structural_formula_needs_functor(labelled_frames):
    sys_a, _, functor, _, _ = labelled_frames
    phi = lk.synthesize(sys_a, "a1", 1)
    with pytest.raises(lk.LaxkitError):
        encode_formula(phi)
    raw = encode_formula(phi, functor)
    with pytest.raises(JsonFormatError):
        decode_formula(raw)


def test_fixture_files_decode(labelled_frames):
    system, notes = decode_system(
        json.load(open(fixture_path("labelled_kripke_a.json")))
    )
    assert system == labelled_frames[0]
    lifting = decode_lifting(json.load(open(fixture_path("half_label_hausdorff.json"))))
    assert lifting == labelled_frames[3]
    cert = decode_certificate(json.load(open(fixture_path("labelled_kripke_cert.json"))))
    assert cert == labelled_frames[4]


def test_dump_json_is_deterministic(tmp_path):
    data = {"b": 1, "a": [1, 2, 3]}
    first = dump_json(data, str(tmp_path / "x.json"))
    second = dump_json(data, str(tmp_path / "y.json"))
    assert first == second == '{\n  "a": [\n    1,\n    2,\n    3\n  ],\n  "b": 1\n}\n'


SET = lk.PFin(lk.Id())
DIST = lk.DFin(lk.Id())


def _element(spec):
    return lambda raw: decode_element(spec, raw, "el")


def _moss_formula(raw):
    return decode_formula({"kind": "moss-delta", "element": raw}, functor=SET)


@pytest.mark.parametrize("decode, raw, message", [
    # functor nodes
    (decode_functor, 3, "functor: expected a node with 'kind'"),
    (decode_functor, {"sub": {"kind": "id"}}, "functor: expected a node with 'kind'"),
    (decode_functor, {"kind": "warp"}, "functor: unknown functor kind 'warp'"),
    (decode_functor, {"kind": ["id"]}, "functor: unknown functor kind ['id']"),
    (decode_functor, {"kind": "pfin"}, "functor.sub: expected a node with 'kind'"),
    (decode_functor, {"kind": "dfin", "sub": "id"}, "functor.sub: expected a node with 'kind'"),
    (decode_functor, {"kind": "maybe"}, "functor.sub: expected a node with 'kind'"),
    (decode_functor, {"kind": "pair", "right": {"kind": "id"}},
     "functor.left: expected a node with 'kind'"),
    (decode_functor, {"kind": "pair", "left": {"kind": "id"}},
     "functor.right: expected a node with 'kind'"),
    (decode_functor, {"kind": "pfin", "sub": {"kind": "pair", "left": {"kind": "id"},
                                              "right": {"kind": "box"}}},
     "functor.sub.right: unknown functor kind 'box'"),
    (decode_functor, {"kind": "const", "labels": ["x"]},
     "functor: label component needs 'labels' and 'metric'"),
    (decode_functor, {"kind": "const", "labels": [], "metric": []},
     "functor.labels: labels must be a nonempty list"),
    (decode_functor, {"kind": "const", "labels": [1], "metric": [["0"]]},
     "functor.metric.source: source must be a list of ids"),
    (decode_functor, {"kind": "const", "labels": ["x", "y"], "metric": [["0", "1"]]},
     "functor.metric.values: need 2 rows"),
    (decode_functor, {"kind": "const", "labels": ["x"], "metric": [["2"]]},
     "functor.metric.values[0][0]: value 2 outside the unit interval"),
    (decode_functor, {"kind": "const", "labels": ["x"], "metric": [["1/2"]]},
     "functor: label metric is not a hemimetric"),
    # positional elements
    (_element(lk.Id()), 3, "el: expected a state id"),
    (_element(number_const(("0", "1"))), 0, "el: expected a label id"),
    (_element(SET), "s", "el: expected a list (finite set)"),
    (_element(SET), ["s", 3], "el[1]: expected a state id"),
    (_element(DIST), {"s": "1"}, "el: expected a list of [target, probability]"),
    (_element(DIST), ["s"], "el[0]: expected a [target, probability] pair"),
    (_element(DIST), [["s", "1/2"], ["t"]], "el[1]: expected a [target, probability] pair"),
    (_element(DIST), [["s", "1/2", "1/2"]], "el[0]: expected a [target, probability] pair"),
    (_element(DIST), [["s", 0.5]], "el[0]: expected a rational string"),
    (_element(DIST), [[3, "1"]], "el[0]: expected a state id"),
    (_element(lk.Pair(lk.Id(), lk.Id())), ["s"], "el: expected a two-element list"),
    (_element(lk.Pair(lk.Id(), lk.Id())), "st", "el: expected a two-element list"),
    (_element(lk.Pair(lk.Id(), SET)), ["s", [None]], "el[1][0]: expected a state id"),
    (_element(lk.Maybe(DIST)), [["s", "1"], 3], "el.just[1]: expected a [target, probability] pair"),
    (_element(lk.Maybe(lk.Id())), 3, "el.just: expected a state id"),
    # formula leaves decoded inside a structural modality
    (_moss_formula, 3, "formula.element: expected a list (finite set)"),
    (_moss_formula, [3], "formula.element[0]: expected a node with 'kind'"),
])
def test_malformed_functor_and_element_json(decode, raw, message):
    with pytest.raises(JsonFormatError) as err:
        decode(raw)
    assert str(err.value) == message
    assert err.value.path == message.split(": ", 1)[0]


def test_element_ingestion_notes():
    notes = []
    el = decode_element(lk.Pair(SET, DIST), [["s", "s"], [["s", "1/2"], ["s", "1/2"]]],
                        "alpha[s]", notes=notes)
    assert el == lk.PairEl(lk.fset([lk.IdEl("s")]), lk.fdist([(lk.IdEl("s"), 1)]))
    assert notes == ["duplicate set member ['s', 's'] deduplicated",
                     "duplicate support entry at alpha[s][1][1] merged"]

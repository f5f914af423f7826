import hashlib
import json
import random
import tempfile
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
    encode_element,
    encode_formula,
    encode_functor,
    encode_lifting,
    encode_rel,
    encode_system,
    load_json,
    load_text,
)
from laxkit.functors import FUNCTOR_KINDS
from laxkit.liftings import LIFTING_KINDS
from laxkit.logic import FORMULA_KINDS
from tests.conftest import JSON_LEAVES, fixture_path, json_values, mutants, number_const


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


# str values and keys: ASCII, non-ASCII (BMP and astral), control
# characters and lone surrogates, which the writer must escape as json does.
JSON_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ["\x00", "\x1f", "\x7f", "\\", '"', "/", "\u2028", "\ud800", "\udfff", "é", "\U0001f600"]),
    max_size=6)
JSON_INTS = st.integers() | st.sampled_from([0, 1, -1, 2**64, -(2**100)])
STORABLE = st.recursive(
    st.none() | st.booleans() | JSON_INTS | JSON_TEXT,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=20)


def stdlib_dump(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(STORABLE)
def test_dump_json_writes_what_json_dumps_writes(value):
    assert dump_json(value) == stdlib_dump(value)


def test_dump_json_writes_deep_nesting():
    # deeper than the JSON a rank-64 formula encodes to
    value = "leaf"
    for depth in range(300):
        value = {"sub": value, "depth": depth} if depth % 2 else [value, depth]
    assert dump_json(value) == stdlib_dump(value)


@pytest.mark.parametrize("leaf", [F(1, 2), 0.5, {"a"}], ids=["Fraction", "float", "set"])
def test_dump_json_refuses_values_json_cannot_store(leaf):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dump_json({"rows": [{"value": leaf}]})


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab\r\n\ufeffé", max_size=12))
def test_load_text_reads_as_text_mode_open_does(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/formula.txt"
        blob = text.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(blob)
        digests = {}
        loaded = load_text(path, digests)
        with open(path, "r", encoding="utf-8") as handle:
            assert loaded == handle.read()
    assert digests == {path: hashlib.sha256(blob).hexdigest()}


def test_load_json_digests_the_bytes_it_parses(tmp_path):
    path = tmp_path / "x.json"
    path.write_bytes(b'{"a": [1, 2]}\r\n')
    digests = {}
    assert load_json(str(path), digests) == {"a": [1, 2]}
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
    assert load_json(str(path)) == {"a": [1, 2]}


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
    # entries parsed once per relation: a repeat or a JSON true is still refused where it sits
    (decode_functor, {"kind": "const", "labels": ["x", "y"],
                      "metric": [["0", "1/2"], ["1/2", "3/2"]]},
     "functor.metric.values[1][1]: value 3/2 outside the unit interval"),
    (decode_functor, {"kind": "const", "labels": ["x", "y"], "metric": [["0", 1], [1, True]]},
     "functor.metric.values[1][1]: cannot parse rational 'True': "
     "Invalid literal for Fraction: 'True'"),
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
    assert notes == ["duplicate set member 's' at alpha[s][0][1] deduplicated",
                     "duplicate support entry at alpha[s][1][1] merged"]


def test_each_dropped_set_member_is_named_once():
    # one note per dropped member, naming it and its index; a set member
    # is dropped when it decodes equal to an earlier one, whatever its order
    notes = []
    el = decode_element(lk.PFin(SET), [["a", "b"], ["c"], ["b", "a"], ["c"], ["a"]],
                        "alpha[s]", notes=notes)
    assert len(el.members) == 3
    assert notes == ["duplicate set member ['b', 'a'] at alpha[s][2] deduplicated",
                     "duplicate set member ['c'] at alpha[s][3] deduplicated"]


# ---------------------------------------------------------------------------
# The formula codec: every decode_formula error, one example per formula kind


CONST_1 = {"kind": "const", "value": "1"}


@pytest.mark.parametrize("raw, functor, message", [
    (3, None, "formula: expected a node with 'kind'"),
    ({"value": "1"}, None, "formula: expected a node with 'kind'"),
    ({"kind": "warp"}, None, "formula: unknown formula kind 'warp'"),
    ({"kind": ["const"]}, None, "formula: unknown formula kind ['const']"),
    ({"kind": 7}, None, "formula: unknown formula kind 7"),
    ({"kind": "const"}, None, "formula.value: expected a rational string"),
    ({"kind": "const", "value": "3/2"}, None,
     "formula.value: value 3/2 outside the unit interval"),
    ({"kind": "const", "value": "x"}, None,
     "formula.value: cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
    ({"kind": "minus", "value": "1"}, None, "formula.sub: expected a node with 'kind'"),
    ({"kind": "minus", "sub": CONST_1, "value": 0.5}, None,
     "formula.value: expected a rational string"),
    ({"kind": "minus", "sub": {"kind": "const", "value": "2"}}, None,
     "formula.sub.value: value 2 outside the unit interval"),
    ({"kind": "plus", "sub": CONST_1}, None, "formula.value: expected a rational string"),
    ({"kind": "plus", "sub": [], "value": "1"}, None, "formula.sub: expected a node with 'kind'"),
    ({"kind": "and", "right": CONST_1}, None, "formula.left: expected a node with 'kind'"),
    ({"kind": "and", "left": CONST_1, "right": {"kind": "or"}}, None,
     "formula.right.left: expected a node with 'kind'"),
    ({"kind": "or", "left": CONST_1}, None, "formula.right: expected a node with 'kind'"),
    ({"kind": "modal"}, None, "formula: modal needs a 'name'"),
    ({"kind": "modal", "name": 3}, None, "formula: modal needs a 'name'"),
    ({"kind": "modal", "name": "dia", "args": CONST_1}, None,
     "formula.args: modal args must be a list"),
    ({"kind": "modal", "name": "dia", "args": [CONST_1, "1"]}, None,
     "formula.args[1]: expected a node with 'kind'"),
    ({"kind": "neg"}, None, "formula.sub: expected a node with 'kind'"),
    ({"kind": "neg", "sub": {"kind": "neg", "sub": {"kind": "nope"}}}, None,
     "formula.sub.sub: unknown formula kind 'nope'"),
    ({"kind": "moss-delta", "element": [CONST_1]}, None,
     "formula: decoding a structural modality needs the system functor"),
    ({"kind": "moss-nabla", "element": [CONST_1]}, None,
     "formula: decoding a structural modality needs the system functor"),
    ({"kind": "moss-nabla"}, SET, "formula.element: expected a list (finite set)"),
    ({"kind": "moss-nabla", "element": [{"kind": "neg"}]}, SET,
     "formula.element[0].sub: expected a node with 'kind'"),
    ({"kind": "moss-delta", "element": [[CONST_1, "2"]]}, DIST,
     "formula.element[0]: value 2 outside the unit interval"),
    ({"kind": "modal", "name": "dia",
      "args": [{"kind": "moss-delta", "element": [[{"kind": "const"}, "1"]]}]}, DIST,
     "formula.args[0].element[0].value: expected a rational string"),
])
def test_formula_decode_errors(raw, functor, message):
    with pytest.raises(JsonFormatError) as err:
        decode_formula(raw, functor=functor)
    assert str(err.value) == message
    assert err.value.path == message.split(": ", 1)[0]


def _labelled_example(labelled_frames, kind):
    """One formula per JSON kind over the labelled frames' functor.

    Returns (formula, rank).  The modality names carry no '/', so every
    formula with a text form reparses at any version of the text syntax.
    """
    at0, far0 = lk.Modal("at-0", ()), lk.Modal("far-0", ())
    half = lk.FormulaConst(F(1, 2))

    def element(label, *formulas):
        return lk.PairEl(lk.ConstEl(label), lk.fset(lk.IdEl(f) for f in formulas))

    return {
        "const": (lk.FormulaConst(F(3, 10)), 0),
        "minus": (lk.MinusC(lk.Modal("dia", (at0,)), F(1, 4)), 2),
        "plus": (lk.PlusC(lk.Or(lk.Modal("box", (half,)), far0), F(1, 5)), 1),
        "and": (lk.And(at0, lk.PlusC(far0, F(1, 10))), 1),
        "or": (lk.Or(lk.And(at0, half), lk.Modal("dia", (lk.Modal("box", (far0,)),))), 3),
        "modal": (lk.Modal("box", (lk.Or(at0, lk.FormulaConst(F(1, 10))),)), 2),
        "neg": (lk.Neg(lk.Modal("dia", (lk.MinusC(far0, F(1, 3)),))), 2),
        "moss-delta": (lk.MossDelta(element("7/10", half, lk.Modal("dia", (at0,)))), 3),
        "moss-nabla": (lk.MossNabla(element("1/5", lk.Neg(at0), lk.synthesize(
            labelled_frames[0], "a1", 1))), 2),
    }[kind]


@pytest.mark.parametrize("kind", list(FORMULA_KINDS))
def test_formula_kind_example(labelled_frames, kind):
    sys_a, _, functor, lifting, _ = labelled_frames
    phi, phi_rank = _labelled_example(labelled_frames, kind)
    raw = json.loads(json.dumps(encode_formula(phi, functor)))
    assert raw["kind"] == kind
    assert decode_formula(raw, functor=functor) == phi
    assert phi.rank() == phi_rank
    assert lk.semantics(lk.Neg(lk.Neg(phi)), sys_a, lifting) == \
        lk.semantics(phi, sys_a, lifting)
    if kind in ("neg", "moss-delta", "moss-nabla"):  # no text form
        with pytest.raises(lk.LaxkitError) as err:
            lk.print_formula(phi)
        assert str(err.value) == \
            f"{type(phi).__name__} has no text form; use the JSON encoding"
    else:
        assert lk.parse_formula(lk.print_formula(phi)) == phi


_FORMULA_KEYS = st.sampled_from(["kind", "value", "sub", "left", "right", "name", "args",
                                 "element"])
_KINDS = st.sampled_from([*FORMULA_KINDS, "warp"])


def _json_values(children):
    node = st.fixed_dictionaries({"kind": _KINDS}, optional={
        "value": children, "sub": children, "left": children, "right": children,
        "name": children, "args": children, "element": children,
    })
    return st.lists(children, max_size=3) | st.dictionaries(_FORMULA_KEYS, children,
                                                            max_size=3) | node


@settings(max_examples=300, deadline=None)
@given(raw=st.recursive(JSON_LEAVES, _json_values, max_leaves=12),
       functor=st.sampled_from([None, SET, DIST, lk.Pair(number_const(("0", "1")), SET)]))
def test_decode_formula_decodes_or_reports_a_format_error(raw, functor):
    try:
        phi = decode_formula(raw, functor=functor)
    except JsonFormatError:
        return
    assert isinstance(phi, lk.Formula)


# Every decoder, given any JSON value, decodes it or raises JsonFormatError;
# nothing else escapes, so the CLI's exit code 3 stays reserved for bugs.
# Each draws either an arbitrary value or a valid encoding with one value
# inside it replaced, so that the draws reach the deeper checks too.

_GRAMMAR_JSON = json_values(
    ["sub", "left", "right", "labels", "metric", "variant", "weights", "factor",
     "modalities", "step", "source", "target", "values", "functor", "states", "alpha",
     "relation"],
    [*FUNCTOR_KINDS, *LIFTING_KINDS, "simulation", "bisimulation", "warp"])
_SHAPES = [lk.Id(), number_const(("0", "1/2")), SET, DIST,
           lk.Pair(number_const(("0", "1")), SET), lk.Maybe(DIST)]


def _fixture(name):
    return load_json(fixture_path(name))


def _valid_elements(functor):
    rng = random.Random(functor.kind)
    carrier = lk.Carrier.of("s", "t")
    return [encode_element(functor, functor.random_element(rng, carrier)) for _ in range(3)]


_DECODERS = {
    "rel": (decode_rel, [_fixture("labelled_kripke_cert.json")["relation"]]),
    "functor": (decode_functor, [_fixture("labelled_kripke_functor.json"),
                                 _fixture("prob_deadlock.json")["functor"]]),
    "lifting": (decode_lifting, [
        _fixture(name) for name in ("half_label_hausdorff.json", "kantorovich_discrete.json",
                                    "prob_lifting.json", "weighted_step_lifting.json")]
        + [{"kind": "kantorovich-grid", "modalities": ["dia"], "step": "1/4"}]),
    "system": (decode_system, [_fixture(name) for name in (
        "labelled_kripke_a.json", "prob_deadlock.json", "weighted_loop_a.json")]),
    "certificate": (decode_certificate, [_fixture("labelled_kripke_cert.json")]),
    **{f"element-{functor.kind}": (
        lambda raw, functor=functor: decode_element(functor, raw, "el", []),
        _valid_elements(functor)) for functor in _SHAPES},
}


@pytest.mark.parametrize("name", list(_DECODERS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_decoders_decode_or_report_a_format_error(name, data):
    decode, valid = _DECODERS[name]
    raw = data.draw(_GRAMMAR_JSON | st.sampled_from(valid).flatmap(
        lambda seed: mutants(seed, _GRAMMAR_JSON)))
    try:
        decode(raw)
    except JsonFormatError:
        pass

"""JSON encodings of relations, systems, liftings, certificates, formulas.

Rationals travel as strings, either 'p/q' or an exact decimal; both are
parsed exactly.  Element encodings are positional against the functor
grammar: finite sets are lists, distributions are lists of [target, "p/q"]
pairs, pairs are two-element lists, labels and carrier elements are bare
ids, optional values are null or the inner encoding.

Decoding errors carry a JSON-path-like location to make malformed files
easy to fix; they are format errors, distinct from the report-valued
semantic validation of systems.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .core import Carrier, FuzzyRel, LaxkitError, format_unit, parse_unit
from .distance import Certificate
from .functors import FUNCTOR_KINDS, FunctorElement, FunctorSpec
from .liftings import LIFTING_KINDS, LiftingSpec
from .logic import FORMULA_KINDS, Formula
from .systems import Coalgebra


class JsonFormatError(LaxkitError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(condition, message, path):
    if not condition:
        raise JsonFormatError(message, path)


def _unit(raw, path) -> Fraction:
    _expect(isinstance(raw, (str, int)), "expected a rational string", path)
    try:
        return parse_unit(str(raw))
    except LaxkitError as exc:
        raise JsonFormatError(str(exc), path) from None


# ---------------------------------------------------------------------------
# Relations


def encode_rel(rel: FuzzyRel) -> dict:
    return {
        "source": list(rel.source.elements),
        "target": list(rel.target.elements),
        "values": [[format_unit(v) for v in row] for row in rel.values],
    }


def decode_rel(raw, path="rel") -> FuzzyRel:
    _expect(isinstance(raw, dict), "expected an object", path)
    for key in ("source", "target", "values"):
        _expect(key in raw, f"missing key {key!r}", path)
    for key in ("source", "target"):
        _expect(isinstance(raw[key], list) and all(isinstance(x, str) for x in raw[key]),
                f"{key} must be a list of ids", f"{path}.{key}")
    try:
        source = Carrier(tuple(raw["source"]))
        target = Carrier(tuple(raw["target"]))
    except LaxkitError as exc:
        raise JsonFormatError(str(exc), path) from None
    values = raw["values"]
    _expect(isinstance(values, list) and len(values) == len(source),
            f"need {len(source)} rows", f"{path}.values")
    # Each distinct entry is parsed once.  The key holds the type, since
    # JSON true decodes to True == 1 yet is no rational string.
    parsed = {}
    rows = []
    for i, row in enumerate(values):
        _expect(isinstance(row, list) and len(row) == len(target),
                f"need {len(target)} columns", f"{path}.values[{i}]")
        out = []
        for j, v in enumerate(row):
            key = (type(v), v) if isinstance(v, (str, int)) else None
            x = parsed.get(key)
            if x is None:
                x = parsed[key] = _unit(v, f"{path}.values[{i}][{j}]")
            out.append(x)
        rows.append(tuple(out))
    return FuzzyRel(source, target, tuple(rows))


# ---------------------------------------------------------------------------
# Grammar nodes and positional elements


class _Node:
    """A JSON value at a path, as a grammar class's decoder reads it.

    Functor, lifting and formula nodes are objects whose children decode
    through `child` or `decode`; positional elements decode their parts
    through `element` and read their Id leaves through `leaf`.  A formula
    node also carries the system `functor` its structural modalities are
    elements of.  Errors are JsonFormatErrors at the node's path, extended
    by the suffix `at` where one is given.
    """

    def __init__(self, raw, path: str, decode, notes=None, functor=None):
        self.raw = raw
        self.path = path
        self._decode = decode  # the grammar's decoder, or an element's leaf decoder
        self._notes = notes
        self.functor = functor

    def expect(self, condition, message, at=""):
        _expect(condition, message, self.path + at)

    def unit(self, raw, at) -> Fraction:
        return _unit(raw, self.path + at)

    def rel(self, raw, at) -> FuzzyRel:
        return decode_rel(raw, self.path + at)

    def child(self, key):
        return self._decode(self.raw.get(key), f"{self.path}.{key}")

    def decode(self, raw, at):
        return self._decode(raw, self.path + at)

    def element(self, spec: FunctorSpec, raw, at) -> FunctorElement:
        return spec.decode_element(_Node(raw, self.path + at, self._decode, self._notes))

    def leaf(self):
        return self._decode(self.raw, self.path)

    def note(self, message: str) -> None:
        if self._notes is not None:
            self._notes.append(message)


def _decode_node(kinds: dict, grammar: str, decode, raw, path: str, functor=None):
    _expect(isinstance(raw, dict) and "kind" in raw, "expected a node with 'kind'", path)
    kind = raw["kind"]
    cls = kinds.get(kind) if isinstance(kind, str) else None
    _expect(cls is not None, f"unknown {grammar} kind {kind!r}", path)
    try:
        return cls.from_json(_Node(raw, path, decode, functor=functor))
    except JsonFormatError:
        raise
    except LaxkitError as exc:
        raise JsonFormatError(str(exc), path) from None


def encode_functor(spec: FunctorSpec) -> dict:
    return spec.to_json()


def decode_functor(raw, path="functor") -> FunctorSpec:
    return _decode_node(FUNCTOR_KINDS, "functor", decode_functor, raw, path)


def encode_element(spec: FunctorSpec, el: FunctorElement):
    """Encode positionally, with the value at each Id leaf as it is."""
    return spec.encode_element(el, None)


def _state_id(raw, path):
    _expect(isinstance(raw, str), "expected a state id", path)
    return raw


def decode_element(spec: FunctorSpec, raw, path, notes=None):
    """Decode positionally, with a state id at each Id leaf; structural
    problems raise, semantic ones are collected into notes (duplicate set
    members, for instance) so system validation can surface them as
    warnings."""
    return spec.decode_element(_Node(raw, path, _state_id, notes))


# ---------------------------------------------------------------------------
# Systems


def encode_system(system: Coalgebra) -> dict:
    return {
        "functor": encode_functor(system.functor),
        "states": list(system.carrier.elements),
        "alpha": {
            s: encode_element(system.functor, system.step(s))
            for s in system.carrier.elements
        },
    }


def decode_system(raw, path="system"):
    """Returns (coalgebra, notes) where notes records ingestion warnings."""
    _expect(isinstance(raw, dict), "expected an object", path)
    for key in ("functor", "states", "alpha"):
        _expect(key in raw, f"missing key {key!r}", path)
    functor = decode_functor(raw["functor"], f"{path}.functor")
    states = raw["states"]
    _expect(isinstance(states, list) and all(isinstance(s, str) for s in states),
            "states must be a list of ids", f"{path}.states")
    try:
        carrier = Carrier(tuple(states))
    except LaxkitError as exc:
        raise JsonFormatError(str(exc), f"{path}.states") from None
    alpha_raw = raw["alpha"]
    _expect(isinstance(alpha_raw, dict), "alpha must be an object", f"{path}.alpha")
    missing = [s for s in states if s not in alpha_raw]
    _expect(not missing, f"alpha is missing states {missing}", f"{path}.alpha")
    extra = [s for s in alpha_raw if s not in carrier]
    _expect(not extra, f"alpha mentions unknown states {extra}", f"{path}.alpha")
    notes: dict = {}
    alpha = {}
    for s in states:
        state_notes: list = []
        alpha[s] = decode_element(functor, alpha_raw[s], f"{path}.alpha[{s}]",
                                  notes=state_notes)
        if state_notes:
            notes[s] = state_notes
    return Coalgebra.of(functor, carrier, alpha), notes


# ---------------------------------------------------------------------------
# Liftings


def encode_lifting(spec: LiftingSpec) -> dict:
    return spec.to_json()


def decode_lifting(raw, path="lifting") -> LiftingSpec:
    return _decode_node(LIFTING_KINDS, "lifting", decode_lifting, raw, path)


# ---------------------------------------------------------------------------
# Certificates


def encode_certificate(cert: Certificate) -> dict:
    return {"kind": cert.kind, "relation": encode_rel(cert.relation)}


def decode_certificate(raw, path="certificate") -> Certificate:
    _expect(isinstance(raw, dict), "expected an object", path)
    _expect(raw.get("kind") in ("simulation", "bisimulation"),
            "kind must be 'simulation' or 'bisimulation'", f"{path}.kind")
    return Certificate(decode_rel(raw.get("relation"), f"{path}.relation"), raw["kind"])


# ---------------------------------------------------------------------------
# Formulas


def encode_formula(formula: Formula, functor: FunctorSpec | None = None):
    return formula.to_json(functor)


def decode_formula(raw, path="formula", functor: FunctorSpec | None = None) -> Formula:
    return _decode_node(FORMULA_KINDS, "formula",
                        lambda item, at: decode_formula(item, at, functor), raw, path, functor)


# ---------------------------------------------------------------------------
# Files


# Deepest JSON nesting load_json accepts; it keeps the recursive decoders and
# evaluators well inside the interpreter's recursion limit.
MAX_NESTING = 100


def _nesting(value) -> int:
    depth, level = 0, [value]
    while level:
        depth += 1
        level = [child for node in level if isinstance(node, (list, dict))
                 for child in (node.values() if isinstance(node, dict) else node)]
    return depth


_TOO_DEEP = f"JSON nested deeper than {MAX_NESTING} levels"


def check_nesting(data, path: str) -> None:
    """Raise unless data nests shallowly enough for load_json to read it."""
    if _nesting(data) > MAX_NESTING:
        raise JsonFormatError(_TOO_DEEP, path)


def file_digest(blob: bytes) -> str:
    """The sha256 hex digest of a file's bytes, as reports list it."""
    return hashlib.sha256(blob).hexdigest()


def _read(path: str, digests: dict | None) -> bytes:
    """The file's bytes, read once; their digest goes into `digests` under path."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise JsonFormatError(str(exc), path) from None
    if digests is not None:
        digests[path] = file_digest(blob)
    return blob


def load_json(path: str, digests: dict | None = None):
    """Parse a JSON file, recording its digest in `digests` when one is given."""
    blob = _read(path, digests)
    try:
        data = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad syntax, or an over-long integer
        raise JsonFormatError(f"invalid JSON: {exc}", path) from None
    except RecursionError:
        raise JsonFormatError(_TOO_DEEP, path) from None
    check_nesting(data, path)
    return data


def load_text(path: str, digests: dict | None = None) -> str:
    """A UTF-8 text file with universal newlines, as text-mode open() reads it."""
    blob = _read(path, digests)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise JsonFormatError(f"not UTF-8 text: {exc}", path) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_text(text: str, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise LaxkitError(f"{path}: {exc}") from None


_quote = json.encoder.encode_basestring_ascii  # the C string quoter of json.dumps


def _write(value, newline: str, emit) -> None:
    """Emit value's JSON text; newline is a line break plus the indentation
    of the line value starts on.  Strings inside a container are quoted in
    the loop, without a call per string."""
    if isinstance(value, str):
        emit(_quote(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            if type(item) is str:
                emit(f"{sep}{_quote(key)}: {_quote(item)}")
            else:
                emit(f"{sep}{_quote(key)}: ")
                _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                emit(sep + _quote(item))
            else:
                emit(sep)
                _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(data, path: str | None = None) -> str:
    """The report text, written to path when one is given: keys sorted,
    two-space indentation and a final newline, byte-identical to
    json.dumps(data, indent=2, sort_keys=True) + "\\n".  Values are dicts
    with str keys, lists, tuples, str, int, bool and None; any other value
    raises TypeError (reports carry rationals as strings)."""
    parts = []
    _write(data, "\n", parts.append)
    parts.append("\n")
    text = "".join(parts)
    if path:
        write_text(text, path)
    return text

"""Compositional functor grammar and its elements.

The supported transition types are generated by

    Id | Const(labels, metric) | PFin(F) | DFin(F) | Pair(F, G) | Maybe(F)

with Id at the leaves.  Each functor kind is one class (see FunctorSpec),
registered in FUNCTOR_KINDS and paired with one element class, so adding a
kind means adding one class here and exporting it.  Elements are tagged
trees mirroring the grammar: finite sets (set semantics, members
deduplicated), finitely supported distributions (merged on collision,
pushforward semantics), ordered pairs, labels, optional values, and
carrier elements at Id positions.

Elements are immutable, hashable and carry a cached canonical sort key, so
sets and distributions have a reproducible member order that does not
depend on Python's per-process string hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, lru_cache
from math import lcm
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Optional

from .core import (Carrier, FuzzyRel, ONE, StructureError, ZERO, format_unit, inf,
                   is_hemimetric, is_pseudometric, sat_sub, sup, unit_over)
from .modalities import PredicateLifting, dia_box, expecting


FUNCTOR_KINDS: dict = {}  # JSON kind -> functor class, in definition order


# ---------------------------------------------------------------------------
# Canonical ordering

def canonical_key(value):
    """A deterministic, total sort key over carrier values and elements.

    Never relies on object hashes, so orderings are identical across runs.
    """
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, int):
        return ("i", value)
    if isinstance(value, Fraction):
        return ("q", value.numerator, value.denominator)
    if isinstance(value, tuple):
        return ("t",) + tuple(canonical_key(v) for v in value)
    keyed = getattr(value, "_canonical_key", None)
    if keyed is not None:
        return keyed()
    return ("r", repr(value))


class Canonical:
    """Base of immutable dataclass tree nodes with a canonical sort key.

    A subclass builds its key in `_key`; the key and the hash are computed
    once per node and cached on it.  Equality stays the dataclass's
    field-wise one, and so does the hash, over child nodes' cached hashes:
    a key's hash walks its unfolded tree, exponential in a shared formula.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a __hash__ in the class's own namespace keeps @dataclass(frozen=True)
        # from replacing the cached hash with a field-wise one
        cls.__hash__ = Canonical.__hash__

    def _canonical_key(self):
        key = getattr(self, "_ckey", None)
        if key is None:
            key = self._key()
            object.__setattr__(self, "_ckey", key)
        return key

    def __hash__(self):
        h = getattr(self, "_hashval", None)
        if h is None:
            h = hash((type(self), _compared(type(self))(self)))
            object.__setattr__(self, "_hashval", h)
        return h


@cache
def _compared(cls):
    """A getter of the fields a Canonical class's equality compares."""
    return attrgetter(*[f.name for f in fields(cls) if f.compare])


# ---------------------------------------------------------------------------
# Elements


class FunctorElement(Canonical):
    """Base class of element nodes; each subclass belongs to one functor kind.

    A subclass defines `map` (the functor action), `leaves` (the values at
    its Id leaves, in order and with repeats) and `render`;
    `shrink_candidates` yields its one-step-smaller variants, in the order
    the law suite's shrinker tries them.
    """

    def map(self, fn: Callable) -> FunctorElement:
        """Functor action on a map: rename Id leaves, rebuild the structure.

        Sets deduplicate collided members; distributions merge their
        probabilities (image-measure semantics).
        """
        raise NotImplementedError

    def render(self) -> str:
        """Compact human-readable rendering, used in diagnostics."""
        raise NotImplementedError

    def leaves(self):
        return ()

    def shrink_candidates(self):
        return ()

    @classmethod
    def _of_checked(cls, **fields) -> "FunctorElement":
        """A node on fields that meet its __post_init__ checks by
        construction (fset's and fdist's sorted results): stored as given,
        with no check."""
        node = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(node, name, value)
        return node


@dataclass(frozen=True)
class IdEl(FunctorElement):
    value: object

    def _key(self):
        return ("el-id", canonical_key(self.value))

    def map(self, fn):
        return IdEl(fn(self.value))

    def leaves(self):
        yield self.value

    def render(self):
        return str(self.value)


@dataclass(frozen=True)
class ConstEl(FunctorElement):
    label: object

    def _key(self):
        return ("el-const", canonical_key(self.label))

    def map(self, fn):
        return self

    def render(self):
        return str(self.label)


@dataclass(frozen=True)
class SetEl(FunctorElement):
    """A finite set of sub-elements, stored sorted by canonical key."""

    members: tuple

    def __post_init__(self):
        keys = [m._canonical_key() for m in self.members]
        if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
            raise StructureError("set members must be strictly sorted; use fset()")

    def _key(self):
        return ("el-set", tuple(m._canonical_key() for m in self.members))

    def map(self, fn):
        return fset(m.map(fn) for m in self.members)

    def leaves(self):
        for m in self.members:
            yield from m.leaves()

    def shrink_candidates(self):
        for i in range(len(self.members)):  # drop one member; the rest stay sorted
            yield SetEl(self.members[:i] + self.members[i + 1:])

    def render(self):
        return "{" + ", ".join(m.render() for m in self.members) + "}"


@dataclass(frozen=True)
class DistEl(FunctorElement):
    """A finitely supported distribution: ((element, probability), ...).

    Support elements are distinct and sorted; the mass and positivity
    invariants are enforced by the fdist() factory, and met by
    construction in DFin's draws, while system validation reports them as
    diagnostics for ingested files.
    """

    pairs: tuple

    def __post_init__(self):
        keys = [el._canonical_key() for el, _ in self.pairs]
        if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
            raise StructureError("distribution support must be strictly sorted; use fdist()")

    def _key(self):
        return ("el-dist",
                tuple((el._canonical_key(), canonical_key(p)) for el, p in self.pairs))

    def map(self, fn):
        return fdist((el.map(fn), p) for el, p in self.pairs)

    def leaves(self):
        for el, _ in self.pairs:
            yield from el.leaves()

    def render(self):
        return "{" + ", ".join(f"{el.render()}: {format_unit(p)}" for el, p in self.pairs) + "}"


@dataclass(frozen=True)
class PairEl(FunctorElement):
    left: FunctorElement
    right: FunctorElement

    def _key(self):
        return ("el-pair", self.left._canonical_key(), self.right._canonical_key())

    def map(self, fn):
        return PairEl(self.left.map(fn), self.right.map(fn))

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()

    def render(self):
        return f"({self.left.render()}, {self.right.render()})"


@dataclass(frozen=True)
class MaybeEl(FunctorElement):
    value: Optional[FunctorElement]

    def _key(self):
        # empty and filled values get different key lengths, never a bare
        # None inside the tuple (tuples of mixed None/tuple do not sort)
        return ("el-maybe",) if self.value is None else ("el-maybe", self.value._canonical_key())

    def map(self, fn):
        return self if self.value is None else MaybeEl(self.value.map(fn))

    def leaves(self):
        return () if self.value is None else self.value.leaves()

    def render(self):
        return "nothing" if self.value is None else f"just {self.value.render()}"


def fset(members: Iterable[FunctorElement]) -> SetEl:
    """Build a set element: sort by canonical key and keep the last of
    each run of members with equal keys.  The result is strictly sorted
    by construction, so it is built without SetEl's sort check."""
    out, last = [], None
    for key, m in sorted([(m._canonical_key(), m) for m in members], key=itemgetter(0)):
        if key == last:
            out[-1] = m
        else:
            out.append(m)
        last = key
    return SetEl._of_checked(members=tuple(out))


def fdist(pairs: Iterable[tuple]) -> DistEl:
    """Build a distribution: merge duplicate support, check mass exactly 1.

    Support is sorted by canonical key and merged in runs, on integers over
    the lcm D of the denominators, as is the mass check; a probability seen
    once is kept as given, and a merged one becomes a Fraction over D.
    Every check on the pairs stays; like fset, it builds its strictly
    sorted result without DistEl's sort check.
    """
    entries = []
    for el, p in pairs:
        if not isinstance(p, Fraction):
            p = Fraction(p)
        if p.numerator <= 0:
            raise StructureError("distribution probabilities must be positive")
        entries.append((el._canonical_key(), el, p))
    den = lcm(*{p.denominator for _, _, p in entries})
    merged = []  # (key, last element, probability or None once merged, mass * den)
    for key, el, p in sorted(entries, key=itemgetter(0)):
        mass = p.numerator * (den // p.denominator)
        if merged and merged[-1][0] == key:
            merged[-1] = (key, el, None, merged[-1][3] + mass)
        else:
            merged.append((key, el, p, mass))
    total = sum(mass for *_, mass in merged)
    if total != den:
        raise StructureError(f"distribution mass {Fraction(total, den)} is not 1")
    return DistEl._of_checked(
        pairs=tuple((el, p or unit_over(mass, den)) for _, el, p, mass in merged))


def just(el: FunctorElement) -> MaybeEl:
    return MaybeEl(el)


NOTHING = MaybeEl(None)


# ---------------------------------------------------------------------------
# Grammar nodes


class GrammarNode:
    """Base class of the three grammars' nodes: functors, liftings, formulas.

    A grammar's base class names its registry as a class keyword
    (`class FunctorSpec(GrammarNode, kinds=FUNCTOR_KINDS)`) and keeps it as
    `kinds`; each class below it that sets `kind`, its JSON tag, is
    registered there under that tag.  `child_fields` names the attributes
    holding a node's children in its own grammar, in field order; the
    default JSON codec writes and reads exactly those, and a kind with
    further fields extends it.
    """

    child_fields = ()

    def __init_subclass__(cls, kinds=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if kinds is not None:
            cls.kinds = kinds
        elif "kind" in vars(cls):
            cls.kinds[cls.kind] = cls

    def children(self) -> tuple:
        """The child nodes, in the order of child_fields."""
        return tuple(getattr(self, name) for name in self.child_fields)

    def to_json(self, *context) -> dict:
        """The JSON form; context (a formula's system functor) is passed on
        to the children."""
        out = {"kind": self.kind}
        for name in self.child_fields:
            out[name] = getattr(self, name).to_json(*context)
        return out

    @classmethod
    def from_json(cls, node):
        """Build from a JSON node reader (see laxkit.jsonio)."""
        return cls(*[node.child(name) for name in cls.child_fields])


# ---------------------------------------------------------------------------
# Functor grammar


class FunctorSpec(GrammarNode, kinds=FUNCTOR_KINDS):
    """Base class of functor grammar nodes; each subclass is one functor kind.

    A subclass sets `kind`, the JSON tag it registers under in
    FUNCTOR_KINDS, and `child_fields`, the attributes holding its child
    functors (see GrammarNode); `element_type`, the class of its elements;
    and `noun`, how validation names such an element.  It defines the
    positional element codec (`encode_element`, `decode_element`), the
    checks `_errors` on an element already known to be of its element
    type, `random_element`, and, where the kind has a standard reading,
    `_modalities`, the table of named modalities over it (see
    laxkit.modalities); shapes without one, such as nested sets, offer
    none and get theirs by derivation from a lifting.  Children are reached
    by direct method calls.
    """

    def element_errors(self, element, leaf_ok: Callable, path: str = "") -> list:
        """Type-check an element against a grammar node.

        Returns (severity, path, message) triples; severity is 'error' or
        'warning'.  leaf_ok decides whether an Id leaf value is admissible.
        """
        if not isinstance(element, self.element_type):
            return [("error", path or "<root>",
                     f"expected {self.noun}, got {type(element).__name__}")]
        return self._errors(element, leaf_ok, path)

    def standard_modalities(self) -> dict:
        """The shipped named modalities over this node, keyed by name; built
        on first use and kept on the node, so its readers share one table."""
        if "_modality_table" not in self.__dict__:
            object.__setattr__(self, "_modality_table", self._modalities())
        return self._modality_table

    def _modalities(self) -> dict:
        return {}


@dataclass(frozen=True)
class Id(FunctorSpec):
    kind = "id"
    element_type = IdEl
    noun = "a carrier element"

    def encode_element(self, el, leaf_encoder):
        return leaf_encoder(el.value) if leaf_encoder else el.value

    def decode_element(self, node):
        return IdEl(node.leaf())

    def _errors(self, el, leaf_ok, path):
        if leaf_ok(el.value):
            return []
        return [("error", path or "<root>", f"state {el.value!r} is not in the carrier")]

    def random_element(self, rng, carrier):
        return rng.choice(_interned(IdEl, carrier))


@lru_cache(maxsize=256)
def _interned(element_type: type, carrier: Carrier) -> tuple:
    """One element_type node per carrier element (IdEl at states, ConstEl
    at labels), shared by the draws over that carrier."""
    return tuple(map(element_type, carrier.elements))


# Draws index ranges with rng.choice, which makes the one _randbelow call
# that rng.randrange over the same range makes: the rng stream is that of
# randrange.  At k, the set sizes 0..k and the distribution sizes 1..k.
_SET_SIZES = tuple(range(k + 1) for k in range(4))
_DIST_SIZES = tuple(range(1, k + 1) for k in range(4))
_WEIGHTS = range(1, 7)


@dataclass(frozen=True)
class Const(FunctorSpec):
    """A fixed label set together with a hemimetric on it."""

    labels: Carrier
    metric: FuzzyRel

    kind = "const"
    element_type = ConstEl
    noun = "a label"

    def __post_init__(self):
        if self.metric.source != self.labels or self.metric.target != self.labels:
            raise StructureError("label metric must be a square relation on the labels")
        if not is_hemimetric(self.metric):
            raise StructureError("label metric is not a hemimetric")

    def to_json(self):
        return {"kind": self.kind, "labels": list(self.labels.elements),
                "metric": [[format_unit(v) for v in row] for row in self.metric.values]}

    @classmethod
    def from_json(cls, node):
        node.expect("labels" in node.raw and "metric" in node.raw,
                    "label component needs 'labels' and 'metric'")
        labels = node.raw["labels"]
        node.expect(isinstance(labels, list) and labels, "labels must be a nonempty list",
                    ".labels")
        metric = node.rel({"source": labels, "target": labels, "values": node.raw["metric"]},
                          ".metric")
        return cls(Carrier(tuple(labels)), metric)

    def encode_element(self, el, leaf_encoder):
        return el.label

    def decode_element(self, node):
        node.expect(isinstance(node.raw, str), "expected a label id")
        return ConstEl(node.raw)

    def _errors(self, el, leaf_ok, path):
        if el.label in self.labels:
            return []
        return [("error", path or "<root>", f"label {el.label!r} is not in the label set")]

    def random_element(self, rng, carrier):
        return rng.choice(_interned(ConstEl, self.labels))

    def _modalities(self):
        # "at-l" reads closeness to l.  Its dual, the raw distance readout
        # "far-l", is a nonexpansive modality only for symmetric metrics.
        symmetric, metric = is_pseudometric(self.metric), self.metric
        out = {}
        for label in self.labels.elements:
            at, far = f"at-{label}", f"far-{label}"
            out[at] = PredicateLifting(
                at, 0, True, True,
                lambda el, args, label=label: sat_sub(ONE, metric.at(label, el.label)),
                far if symmetric else None)
            if symmetric:
                out[far] = PredicateLifting(
                    far, 0, True, True, lambda el, args, label=label: metric.at(label, el.label),
                    at)
        return out


@dataclass(frozen=True)
class PFin(FunctorSpec):
    sub: FunctorSpec

    kind = "pfin"
    child_fields = ("sub",)
    element_type = SetEl
    noun = "a finite set"

    def encode_element(self, el, leaf_encoder):
        return [self.sub.encode_element(m, leaf_encoder) for m in el.members]

    def decode_element(self, node):
        node.expect(isinstance(node.raw, list), "expected a list (finite set)")
        members, seen = [], set()
        for i, item in enumerate(node.raw):
            member = node.element(self.sub, item, f"[{i}]")
            key = member._canonical_key()
            if key in seen:
                node.note(f"duplicate set member {item!r} at {node.path}[{i}] deduplicated")
            seen.add(key)
            members.append(member)
        return fset(members)

    def _errors(self, el, leaf_ok, path):
        out = []
        for i, m in enumerate(el.members):
            out += self.sub.element_errors(m, leaf_ok, f"{path}.set[{i}]")
        return out

    def random_element(self, rng, carrier):
        size = rng.choice(_SET_SIZES[min(3, len(carrier))])
        return fset(self.sub.random_element(rng, carrier) for _ in range(size))

    def _modalities(self):
        if not isinstance(self.sub, Id):
            return {}

        def over_members(name, pick):
            return expecting(SetEl, f"{name} expects a finite set of states",
                             lambda el, args: pick(args[0][m.value] for m in el.members))

        return dia_box(over_members("dia", sup), over_members("box", inf))


@cache
def _share(weight: int, total: int) -> Fraction:
    """weight / total, built once per pair: DFin's draws repeat few pairs."""
    return Fraction(weight, total)


@dataclass(frozen=True)
class DFin(FunctorSpec):
    sub: FunctorSpec

    kind = "dfin"
    child_fields = ("sub",)
    element_type = DistEl
    noun = "a distribution"

    def encode_element(self, el, leaf_encoder):
        return [[self.sub.encode_element(sub, leaf_encoder), format_unit(p)]
                for sub, p in el.pairs]

    def decode_element(self, node):
        node.expect(isinstance(node.raw, list), "expected a list of [target, probability]")
        seen = {}
        for i, item in enumerate(node.raw):
            at = f"[{i}]"
            node.expect(isinstance(item, list) and len(item) == 2,
                        "expected a [target, probability] pair", at)
            sub = node.element(self.sub, item[0], at)
            p = node.unit(item[1], at)
            key = sub._canonical_key()
            if key in seen:
                node.note(f"duplicate support entry at {node.path}{at} merged")
                seen[key] = (seen[key][0], seen[key][1] + p)
            else:
                seen[key] = (sub, p)
        return DistEl(tuple(seen[k] for k in sorted(seen)))

    def _errors(self, el, leaf_ok, path):
        out = []
        mass = ZERO
        for i, (sub, p) in enumerate(el.pairs):
            at = f"{path}.dist[{i}]"
            if p <= 0:
                out.append(("error", at, f"probability {format_unit(p)} is not positive"))
            elif p > 1:
                out.append(("error", at, f"probability {format_unit(p)} exceeds 1"))
            mass += p
            out += self.sub.element_errors(sub, leaf_ok, at)
        if mass != 1:
            out.append(("error", path or "<root>",
                        f"distribution mass {format_unit(mass)} is not 1"))
        return out

    def random_element(self, rng, carrier):
        """Up to three members with integer weights 1..6: members of equal
        canonical key merge their weights, the last of them standing for
        all, and each share is its weight over the total, as fdist would
        build it from the weights' Fractions, which it skips."""
        size = rng.choice(_DIST_SIZES[min(3, len(carrier))])
        members = [self.sub.random_element(rng, carrier) for _ in range(size)]
        weights = [rng.choice(_WEIGHTS) for _ in members]
        total = sum(weights)
        merged = {}  # canonical key -> (last member with it, summed weight)
        for m, w in zip(members, weights):
            key = m._canonical_key()
            before = merged.get(key)
            merged[key] = m, w + (before[1] if before else 0)
        return DistEl._of_checked(pairs=tuple(
            (m, _share(w, total)) for m, w in map(merged.__getitem__, sorted(merged))))

    def _modalities(self):
        if not isinstance(self.sub, Id):
            return {}
        expectation = expecting(
            DistEl, "E expects a distribution over states",
            lambda el, args: sum((p * args[0][sub.value] for sub, p in el.pairs), ZERO))
        return {"E": PredicateLifting("E", 1, True, True, expectation, "E")}


@dataclass(frozen=True)
class Pair(FunctorSpec):
    left: FunctorSpec
    right: FunctorSpec

    kind = "pair"
    child_fields = ("left", "right")
    element_type = PairEl
    noun = "a pair"

    def encode_element(self, el, leaf_encoder):
        return [self.left.encode_element(el.left, leaf_encoder),
                self.right.encode_element(el.right, leaf_encoder)]

    def decode_element(self, node):
        raw = node.raw
        node.expect(isinstance(raw, list) and len(raw) == 2, "expected a two-element list")
        return PairEl(node.element(self.left, raw[0], "[0]"),
                      node.element(self.right, raw[1], "[1]"))

    def _errors(self, el, leaf_ok, path):
        return (self.left.element_errors(el.left, leaf_ok, f"{path}.fst")
                + self.right.element_errors(el.right, leaf_ok, f"{path}.snd"))

    def random_element(self, rng, carrier):
        return PairEl(self.left.random_element(rng, carrier),
                      self.right.random_element(rng, carrier))

    def _modalities(self):
        # each side's modalities through its projection; clashing names get "l."/"r."
        left, right = self.left._modalities(), self.right._modalities()
        clash = bool(set(left) & set(right))
        out = {}
        for side, component, group in (("l", "left", left), ("r", "right", right)):
            prefix = f"{side}." if clash else ""
            for name, lam in group.items():
                projected = expecting(PairEl, "modality expects a pair",
                                      lambda el, args, read=lam.evaluator, side=component:
                                      read(getattr(el, side), args))
                out[prefix + name] = PredicateLifting(
                    prefix + name, lam.arity, lam.monotone, lam.nonexpansive, projected,
                    prefix + lam.dual_name if lam.dual_name in group else None)
        return out


@dataclass(frozen=True)
class Maybe(FunctorSpec):
    sub: FunctorSpec

    kind = "maybe"
    child_fields = ("sub",)
    element_type = MaybeEl
    noun = "an optional value"

    def encode_element(self, el, leaf_encoder):
        return None if el.value is None else self.sub.encode_element(el.value, leaf_encoder)

    def decode_element(self, node):
        if node.raw is None:
            return NOTHING
        return MaybeEl(node.element(self.sub, node.raw, ".just"))

    def _errors(self, el, leaf_ok, path):
        if el.value is None:
            return []
        return self.sub.element_errors(el.value, leaf_ok, f"{path}.just")

    def random_element(self, rng, carrier):
        if rng.random() < 0.25:
            return NOTHING
        return just(self.sub.random_element(rng, carrier))

    def _modalities(self):
        # deadlock-aware readings of a distribution over states: the
        # expectation of a filled value, 0 (dia) or 1 (box) on deadlock
        if not (isinstance(self.sub, DFin) and isinstance(self.sub.sub, Id)):
            return {}
        expectation = self.sub._modalities()["E"].evaluator

        def on_deadlock(value):
            return expecting(MaybeEl, "modality expects an optional value", lambda el, args: (
                value if el.value is None else expectation(el.value, args)))

        return dia_box(on_deadlock(ZERO), on_deadlock(ONE))


# ---------------------------------------------------------------------------
# Operations


def base(element: FunctorElement) -> tuple:
    """The ordered tuple of distinct carrier values occurring in Id leaves."""
    return tuple(dict.fromkeys(element.leaves()))

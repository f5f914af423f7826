"""Quantitative modal formulas and their min/max (Zadeh) semantics.

Formulas are rational constants, truncated constant shifts, lattice
connectives, named modalities, and the structural "next-step" modality
whose argument is a functor element over formulas.  The structural
modality is evaluated through the membership matrix every Moss modality
reads (`membership`): the formulas in the argument are its columns, each
entry is the value of that formula at a state, and the backing lifting is
applied to it, read at the states and formulas the lifted elements carry.
Its De Morgan dual is evaluated the same way on the complemented matrix.

Each formula kind is one class (see Formula), registered in FORMULA_KINDS
under its JSON kind: the JSON codec, the text printer, rank, negation and
evaluation all reach it through its methods, so adding a kind means adding
one class here.  Negation is a derived form: it is rewritten away before
evaluation and requires every named modality in use to have a registered
dual.

One evaluation keeps a memo of value tables, so a formula shared by
several others is evaluated once.  Named modalities come from the table
the system's functor keeps (FunctorSpec.standard_modalities), which is
built on the first formula that names one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .core import LaxkitError, ONE, RelView, StructureError, as_unit, format_unit
from .core import sat_add, sat_sub
from .functors import Canonical, FunctorElement, FunctorSpec, GrammarNode, base, canonical_key
from .liftings import LiftingSpec, lift_value
from .modalities import dual_of, resolve_modality

FORMULA_KINDS: dict = {}  # JSON kind -> formula class, in definition order

# Text precedence, loosest first: constant shifts, \/, /\, atoms.
SHIFT, OR, AND, ATOM = range(4)

# A modality name in the text syntax: an identifier that may also hold '/'
# (label modalities such as "at-1/5"), except where '/\' starts a
# conjunction, or one of the aliases '<>' and '[]'.
NAME_PATTERN = r"[A-Za-z_](?:[A-Za-z0-9_.\-]|/(?!\\))*|<>|\[\]"
_NAME = re.compile(NAME_PATTERN)


class Formula(GrammarNode, Canonical, kinds=FORMULA_KINDS):
    """Base class of formula nodes; each subclass is one formula kind.

    A subclass sets `kind`, the JSON tag it registers under in
    FORMULA_KINDS, and `child_fields`, the attributes holding its
    subformulas (see GrammarNode); rank, canonical key and JSON codec
    default to reading those, and the JSON codec passes the system functor
    down to the structural modalities.  It defines `push(go, neg,
    modalities)`, one De Morgan step of push_negations (its children
    rewritten by go(child, polarity), the node negated when neg holds),
    `table(ev)`, its value table over the tables ev.table gives its
    children, and `_text()`, its text form at precedence `level`, if it has
    one.  Kinds that differ only in an operator share one class body and
    set the operator, and the kind of their De Morgan dual, as class
    attributes; kinds with a rational value derive from _Valued.
    """

    level = ATOM

    def _key(self):
        return ("fm-" + self.kind, *(child._canonical_key() for child in self.children()))

    def rank(self) -> int:
        """Modal nesting depth; constants have rank 0."""
        return max((child.rank() for child in self.children()), default=0)

    def text(self, floor: int = SHIFT) -> str:
        """The text form, parenthesized when it binds looser than floor."""
        text = self._text()
        return f"({text})" if self.level < floor else text

    def _text(self) -> str:
        raise LaxkitError(f"{type(self).__name__} has no text form; use the JSON encoding")


class _Valued(Formula):
    """A formula kind whose rational `value`, spelled `lexeme` in the text
    it was parsed from, follows its subformulas."""

    def __post_init__(self):
        object.__setattr__(self, "value", as_unit(self.value))

    def _key(self):
        return super()._key() + (canonical_key(self.value),)

    def to_json(self, functor=None):
        return {**super().to_json(functor), "value": format_unit(self.value)}

    @classmethod
    def from_json(cls, node):
        return cls(*[node.child(name) for name in cls.child_fields],
                   node.unit(node.raw.get("value"), ".value"))

    def _value_text(self) -> str:
        return self.lexeme if self.lexeme is not None else format_unit(self.value)


@dataclass(frozen=True)
class Const(_Valued):
    value: Fraction
    lexeme: str | None = field(default=None, compare=False)

    kind = "const"

    def push(self, go, neg, modalities):
        return Const(ONE - self.value) if neg else self

    def table(self, ev):
        return dict.fromkeys(ev.states, self.value)

    def _text(self):
        return self._value_text()


@dataclass(frozen=True)
class _Shift(_Valued):
    """A truncated shift by a constant; MinusC and PlusC differ in `shift`."""

    sub: Formula
    value: Fraction
    lexeme: str | None = field(default=None, compare=False)

    child_fields = ("sub",)
    level = SHIFT

    def push(self, go, neg, modalities):
        sub = go(self.sub, neg)
        if neg:
            return FORMULA_KINDS[self.dual_kind](sub, self.value)
        return self if sub is self.sub else type(self)(sub, self.value, self.lexeme)

    def table(self, ev):
        sub, shift, value = ev.table(self.sub), self.shift, self.value
        return {x: shift(sub[x], value) for x in ev.states}

    def _text(self):
        return f"{self.sub.text(ATOM)} {self.op} {self._value_text()}"


class MinusC(_Shift):
    kind, dual_kind, op = "minus", "plus", "(-)"
    shift = staticmethod(sat_sub)


class PlusC(_Shift):
    kind, dual_kind, op = "plus", "minus", "(+)"
    shift = staticmethod(sat_add)


@dataclass(frozen=True)
class _Lattice(Formula):
    """A binary lattice connective; And and Or differ in `join`."""

    left: Formula
    right: Formula

    child_fields = ("left", "right")

    def push(self, go, neg, modalities):
        l, r = go(self.left, neg), go(self.right, neg)
        if neg:
            return FORMULA_KINDS[self.dual_kind](l, r)
        return self if l is self.left and r is self.right else type(self)(l, r)

    def table(self, ev):
        l, r, join = ev.table(self.left), ev.table(self.right), self.join
        return {x: join(l[x], r[x]) for x in ev.states}

    def _text(self):
        # left-associative: only the right operand needs the tighter floor
        return f"{self.left.text(self.level)} {self.op} {self.right.text(self.level + 1)}"


class And(_Lattice):
    kind, dual_kind, op, level = "and", "or", "/\\", AND
    join = staticmethod(min)


class Or(_Lattice):
    kind, dual_kind, op, level = "or", "and", "\\/", OR
    join = staticmethod(max)


@dataclass(frozen=True)
class Modal(Formula):
    name: str
    args: tuple

    kind = "modal"

    def _key(self):
        return ("fm-modal", self.name, tuple(a._canonical_key() for a in self.args))

    def rank(self):
        return 1 + max((a.rank() for a in self.args), default=0)

    def push(self, go, neg, modalities):
        args = tuple(go(a, neg) for a in self.args)
        if neg:
            return Modal(dual_of(modalities(), self.name).name, args)
        return self if all(a is b for a, b in zip(args, self.args)) else Modal(self.name, args)

    def table(self, ev):
        lam = resolve_modality(ev.modalities(), self.name)
        if lam.arity != len(self.args):
            raise StructureError(
                f"modality {self.name} takes {lam.arity} arguments, got {len(self.args)}"
            )
        tabs = tuple(ev.table(a) for a in self.args)
        step = ev.system.step
        return {x: lam.evaluator(step(x), tabs) for x in ev.states}

    def to_json(self, functor=None):
        return {"kind": self.kind, "name": self.name,
                "args": [a.to_json(functor) for a in self.args]}

    @classmethod
    def from_json(cls, node):
        node.expect(isinstance(node.raw.get("name"), str), "modal needs a 'name'")
        args = node.raw.get("args", [])
        node.expect(isinstance(args, list), "modal args must be a list", ".args")
        return cls(node.raw["name"],
                   tuple(node.decode(a, f".args[{i}]") for i, a in enumerate(args)))

    def _text(self):
        if not _NAME.fullmatch(self.name):
            raise LaxkitError(f"modality name {self.name!r} has no text form; "
                              "use the JSON encoding")
        if not self.args:
            return self.name
        return self.name + "(" + ", ".join(a.text() for a in self.args) + ")"


def membership(states: tuple, leaves: tuple, tables, flip: bool = False) -> RelView:
    """The membership view E(x, y) = f_y(x), or 1 - f_y(x) when flip holds,
    at every state x, of one predicate table f_y per leaf y, in order: a
    Moss modality lifts it between an element over the states and one over
    the leaves.  Its integer form (see RelView) is built once, off the rows
    of every state, on its first block read."""
    pairs = tuple(zip(leaves, tables))
    rows = {x: {y: (ONE - f[x]) if flip else f[x] for y, f in pairs} for x in states}
    return RelView(states, rows, {})


@dataclass(frozen=True)
class _Structural(Formula):
    """The structural modality over a functor element with formulas at its
    Id leaves; MossDelta and its De Morgan dual MossNabla differ in `flip`,
    which complements the membership matrix and the lifted value."""

    element: FunctorElement

    def _key(self):
        return (self.tag, self.element._canonical_key())

    def rank(self):
        return 1 + max((f.rank() for f in base(self.element)), default=0)

    def push(self, go, neg, modalities):
        if not neg and all(go(g, False) is g for g in base(self.element)):
            return self
        element = self.element.map(lambda g: go(g, neg))
        return FORMULA_KINDS[self.dual_kind](element) if neg else type(self)(element)

    def table(self, ev):
        if ev.lifting is None:
            raise StructureError("evaluating a structural modality needs a lifting")
        system, flip = ev.system, self.flip
        formulas = base(self.element)
        view = membership(ev.states, formulas, [ev.table(g) for g in formulas], flip)
        out = {}
        for x, step in system.alpha:
            value = lift_value(ev.lifting, system.functor, view, step, self.element)
            out[x] = (ONE - value) if flip else value
        return out

    def to_json(self, functor=None):
        if functor is None:
            raise LaxkitError("encoding a structural modality needs the functor")
        return {"kind": self.kind, "element": functor.encode_element(
            self.element, lambda f: f.to_json(functor))}

    @classmethod
    def from_json(cls, node):
        node.expect(node.functor is not None,
                    "decoding a structural modality needs the system functor")
        return cls(node.element(node.functor, node.raw.get("element"), ".element"))


class MossDelta(_Structural):
    """Structural modality: a functor element with formulas at Id leaves."""

    kind, tag, dual_kind, flip = "moss-delta", "fm-delta", "moss-nabla", False


class MossNabla(_Structural):
    """De Morgan dual of the structural modality."""

    kind, tag, dual_kind, flip = "moss-nabla", "fm-nabla", "moss-delta", True


@dataclass(frozen=True)
class Neg(Formula):
    """Negation, rewritten away by push_negations before evaluation."""

    sub: Formula

    kind = "neg"
    child_fields = ("sub",)

    def push(self, go, neg, modalities):
        return go(self.sub, not neg)


def push_negations(formula: Formula, functor: FunctorSpec) -> Formula:
    """Rewrite Neg away using De Morgan laws and the duals of the named
    modalities over functor.

    The functor's modality table is read only when a named modality is
    negated.  Memoized per (node, polarity) so shared subformulas stay
    shared and untouched subtrees are returned as the same objects.
    """
    modalities = functor.standard_modalities
    memo: dict = {}

    def go(f: Formula, neg: bool) -> Formula:
        key = (id(f), neg)
        out = memo.get(key)
        if out is None:
            out = memo[key] = f.push(go, neg, modalities)
        return out

    return go(formula, False)


class _Evaluator:
    """Value tables of formulas on one system under one lifting.

    One memo serves every formula run through an instance, so a distinct
    formula gets its table once however many formulas share it.  Named
    modalities are read from the table the system's functor keeps.
    """

    def __init__(self, system, lifting: LiftingSpec | None = None):
        self.system = system
        self.states = system.carrier.elements
        self.lifting = lifting
        self._memo: dict = {}

    def modalities(self) -> dict:
        return self.system.functor.standard_modalities()

    def __call__(self, formula: Formula) -> dict:
        return self.table(push_negations(formula, self.system.functor))

    def table(self, f: Formula) -> dict:
        table = self._memo.get(f)
        if table is None:
            table = self._memo[f] = f.table(self)
        return table


def semantics(formula: Formula, system, lifting: LiftingSpec | None = None) -> dict:
    """Value of a formula at every state of a system.

    Named modalities come from the standard table of the system's
    functor, which is built only if a formula names a modality;
    evaluating the structural modality requires a backing lifting.
    """
    return _Evaluator(system, lifting)(formula)


def evaluate(formula: Formula, system, state, lifting: LiftingSpec | None = None) -> Fraction:
    """Value of a formula at one state."""
    if state not in system.carrier:
        raise StructureError(f"state {state!r} is not in the system")
    return semantics(formula, system, lifting)[state]

"""Quantitative modal formulas and their min/max (Zadeh) semantics.

Formulas are rational constants, truncated constant shifts, lattice
connectives, named modalities, and the structural "next-step" modality
whose argument is a functor element over formulas.  The structural
modality is evaluated through a finite membership matrix: the formulas
occurring in the argument become the target carrier, each entry is the
value of that formula at a state, and the backing lifting is applied to
this matrix.  Its De Morgan dual is evaluated the same way on the
complemented matrix.

Negation is a derived form: it is rewritten away before evaluation and
requires every named modality in use to have a registered dual.

One evaluation keeps a memo of value tables, so a formula shared by
several others is evaluated once; the modality table is built only when
a formula names a modality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import Carrier, FuzzyRel, ONE, StructureError, as_unit, sat_add, sat_sub
from .functors import Canonical, FunctorElement, apply_map, base, canonical_key
from .liftings import LiftingSpec, lift_value
from .modalities import dual_of, resolve_modality, standard_modalities


class Formula(Canonical):
    """Base class of formula nodes."""


@dataclass(frozen=True)
class Const(Formula):
    value: Fraction
    lexeme: str | None = field(default=None, compare=False)

    def __post_init__(self):
        as_unit(self.value)

    def _key(self):
        return ("fm-const", canonical_key(self.value))


@dataclass(frozen=True)
class MinusC(Formula):
    sub: Formula
    value: Fraction
    lexeme: str | None = field(default=None, compare=False)

    def __post_init__(self):
        as_unit(self.value)

    def _key(self):
        return ("fm-minus", self.sub._canonical_key(), canonical_key(self.value))


@dataclass(frozen=True)
class PlusC(Formula):
    sub: Formula
    value: Fraction
    lexeme: str | None = field(default=None, compare=False)

    def __post_init__(self):
        as_unit(self.value)

    def _key(self):
        return ("fm-plus", self.sub._canonical_key(), canonical_key(self.value))


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def _key(self):
        return ("fm-and", self.left._canonical_key(), self.right._canonical_key())


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def _key(self):
        return ("fm-or", self.left._canonical_key(), self.right._canonical_key())


@dataclass(frozen=True)
class Modal(Formula):
    name: str
    args: tuple

    def _key(self):
        return ("fm-modal", self.name, tuple(a._canonical_key() for a in self.args))


@dataclass(frozen=True)
class MossDelta(Formula):
    """Structural modality: a functor element with formulas at Id leaves."""

    element: FunctorElement

    def _key(self):
        return ("fm-delta", self.element._canonical_key())


@dataclass(frozen=True)
class MossNabla(Formula):
    """De Morgan dual of the structural modality."""

    element: FunctorElement

    def _key(self):
        return ("fm-nabla", self.element._canonical_key())


@dataclass(frozen=True)
class Neg(Formula):
    sub: Formula

    def _key(self):
        return ("fm-neg", self.sub._canonical_key())


def rank(formula: Formula) -> int:
    """Modal nesting depth; constants have rank 0."""
    if isinstance(formula, Const):
        return 0
    if isinstance(formula, (MinusC, PlusC, Neg)):
        return rank(formula.sub)
    if isinstance(formula, (And, Or)):
        return max(rank(formula.left), rank(formula.right))
    if isinstance(formula, Modal):
        return 1 + max((rank(a) for a in formula.args), default=0)
    if isinstance(formula, (MossDelta, MossNabla)):
        return 1 + max((rank(f) for f in base(formula.element)), default=0)
    raise StructureError(f"not a formula: {formula!r}")


def push_negations(formula: Formula, modalities: dict) -> Formula:
    """Rewrite Neg away using De Morgan laws and modality duals.

    Memoized per (node, polarity) so shared subformulas stay shared and
    untouched subtrees are returned as the same objects.
    """
    return _push_negations(formula, lambda: modalities)


def _push_negations(formula: Formula, modalities) -> Formula:
    """push_negations with the modality table behind a thunk.

    modalities() is called only when a named modality is negated.
    """
    memo: dict = {}

    def go(f: Formula, neg: bool) -> Formula:
        key = (id(f), neg)
        if key in memo:
            return memo[key]
        if isinstance(f, Neg):
            out = go(f.sub, not neg)
        elif isinstance(f, Const):
            out = Const(ONE - f.value) if neg else f
        elif isinstance(f, MinusC):
            sub = go(f.sub, neg)
            out = PlusC(sub, f.value) if neg else (
                f if sub is f.sub else MinusC(sub, f.value, f.lexeme))
        elif isinstance(f, PlusC):
            sub = go(f.sub, neg)
            out = MinusC(sub, f.value) if neg else (
                f if sub is f.sub else PlusC(sub, f.value, f.lexeme))
        elif isinstance(f, And):
            l, r = go(f.left, neg), go(f.right, neg)
            out = Or(l, r) if neg else (
                f if l is f.left and r is f.right else And(l, r))
        elif isinstance(f, Or):
            l, r = go(f.left, neg), go(f.right, neg)
            out = And(l, r) if neg else (
                f if l is f.left and r is f.right else Or(l, r))
        elif isinstance(f, Modal):
            args = tuple(go(a, neg) for a in f.args)
            if neg:
                out = Modal(dual_of(modalities(), f.name).name, args)
            else:
                out = f if all(a is b for a, b in zip(args, f.args)) else Modal(f.name, args)
        elif isinstance(f, MossDelta):
            element = apply_map(lambda g: go(g, neg), f.element)
            out = MossNabla(element) if neg else (
                f if element == f.element else MossDelta(element))
        elif isinstance(f, MossNabla):
            element = apply_map(lambda g: go(g, neg), f.element)
            out = MossDelta(element) if neg else (
                f if element == f.element else MossNabla(element))
        else:
            raise StructureError(f"not a formula: {f!r}")
        memo[key] = out
        return out

    return go(formula, False)


class _Evaluator:
    """Value tables of formulas on one system under one lifting.

    One memo serves every formula run through an instance, so a distinct
    formula gets its table once however many formulas share it.  The
    standard modality table is built on first use, when a named modality
    is evaluated or negated, and never for formulas that name none.
    """

    def __init__(self, system, lifting: LiftingSpec | None = None,
                 modalities: dict | None = None):
        self.system = system
        self.lifting = lifting
        self._modalities = modalities
        self._memo: dict = {}

    def modalities(self) -> dict:
        if self._modalities is None:
            self._modalities = standard_modalities(self.system.functor)
        return self._modalities

    def __call__(self, formula: Formula) -> dict:
        return self._table(_push_negations(formula, self.modalities))

    def _table(self, f: Formula) -> dict:
        memo = self._memo
        if f in memo:
            return memo[f]
        carrier = self.system.carrier
        table = self._table
        if isinstance(f, Const):
            out = {x: f.value for x in carrier.elements}
        elif isinstance(f, MinusC):
            sub = table(f.sub)
            out = {x: sat_sub(sub[x], f.value) for x in carrier.elements}
        elif isinstance(f, PlusC):
            sub = table(f.sub)
            out = {x: sat_add(sub[x], f.value) for x in carrier.elements}
        elif isinstance(f, And):
            l, r = table(f.left), table(f.right)
            out = {x: min(l[x], r[x]) for x in carrier.elements}
        elif isinstance(f, Or):
            l, r = table(f.left), table(f.right)
            out = {x: max(l[x], r[x]) for x in carrier.elements}
        elif isinstance(f, Modal):
            lam = resolve_modality(self.modalities(), f.name)
            if lam.arity != len(f.args):
                raise StructureError(
                    f"modality {f.name} takes {lam.arity} arguments, got {len(f.args)}"
                )
            tabs = tuple(table(a) for a in f.args)
            out = {x: lam.evaluator(self.system.step(x), tabs) for x in carrier.elements}
        elif isinstance(f, (MossDelta, MossNabla)):
            out = self._structural(f)
        else:
            raise StructureError(f"not a formula: {f!r}")
        memo[f] = out
        return out

    def _structural(self, f) -> dict:
        if self.lifting is None:
            raise StructureError("evaluating a structural modality needs a lifting")
        system = self.system
        carrier = system.carrier
        formulas = base(f.element)
        sub_tables = {g: self._table(g) for g in formulas}
        target = Carrier(formulas)
        flip = isinstance(f, MossNabla)
        rows = tuple(
            tuple(
                (ONE - sub_tables[g][x]) if flip else sub_tables[g][x]
                for g in formulas
            )
            for x in carrier.elements
        )
        membership = FuzzyRel(carrier, target, rows)
        out = {}
        for x in carrier.elements:
            value = lift_value(self.lifting, system.functor, membership,
                               system.step(x), f.element)
            out[x] = (ONE - value) if flip else value
        return out


def semantics(formula: Formula, system, lifting: LiftingSpec | None = None,
              modalities: dict | None = None) -> dict:
    """Value of a formula at every state of a system.

    Named modalities default to the standard registry for the system's
    functor, which is built only if the formula names a modality;
    evaluating the structural modality requires a backing lifting.
    """
    return _Evaluator(system, lifting, modalities)(formula)


def evaluate(formula: Formula, system, state, lifting: LiftingSpec | None = None,
             modalities: dict | None = None) -> Fraction:
    """Value of a formula at one state."""
    if state not in system.carrier:
        raise StructureError(f"state {state!r} is not in the system")
    return semantics(formula, system, lifting, modalities)[state]

"""Finite coalgebras: a carrier plus a transition map into a functor.

Validation is report-valued: structural and typing problems come back as
(severity, path, message) triples instead of exceptions, so a CLI run can
show everything wrong with a system file at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Carrier, StructureError
from .functors import FunctorElement, FunctorSpec


@dataclass(frozen=True)
class Coalgebra:
    functor: FunctorSpec
    carrier: Carrier
    alpha: tuple  # ((state, FunctorElement), ...) in carrier order

    def __post_init__(self):
        states = tuple(s for s, _ in self.alpha)
        if states != self.carrier.elements:
            raise StructureError("transition map must list every state once, in carrier order")
        object.__setattr__(self, "_alpha_map", dict(self.alpha))

    @staticmethod
    def of(functor: FunctorSpec, carrier: Carrier, alpha) -> "Coalgebra":
        """Build from any mapping state -> element; order follows the carrier."""
        missing = [s for s in carrier.elements if s not in alpha]
        if missing:
            raise StructureError(f"transition map is missing states {missing}")
        return Coalgebra(functor, carrier, tuple((s, alpha[s]) for s in carrier.elements))

    def step(self, state) -> FunctorElement:
        try:
            return self._alpha_map[state]
        except KeyError:
            raise StructureError(f"state {state!r} is not in the system") from None


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple  # (severity, path, message)

    @property
    def ok(self) -> bool:
        return not any(sev == "error" for sev, _, _ in self.issues)

    def errors(self) -> list:
        return [i for i in self.issues if i[0] == "error"]

    def warnings(self) -> list:
        return [i for i in self.issues if i[0] == "warning"]


def validate(system: Coalgebra, raw_alpha: dict | None = None) -> ValidationReport:
    """Check every transition against the functor grammar.

    raw_alpha optionally maps states to the notes their elements' decoding
    recorded (see jsonio.decode_system), such as duplicate set members that
    construction deduplicated, which are reported as warnings.
    """
    issues = []
    carrier = system.carrier
    for state in carrier.elements:
        el = system.step(state)
        issues.extend(
            system.functor.element_errors(el, lambda v: v in carrier, f"alpha[{state}]")
        )
    if raw_alpha:
        for state, notes in raw_alpha.items():
            for note in notes:
                issues.append(("warning", f"alpha[{state}]", note))
    return ValidationReport(tuple(issues))


def _freshen(name, taken: set):
    """Prime a taken id until it is free: a string id gains a trailing
    prime, any other id is paired with one."""
    while name in taken:
        name = name + "'" if isinstance(name, str) else (name, "'")
    return name


def disjoint_union(c1: Coalgebra, c2: Coalgebra):
    """Coproduct of two systems over the same functor.

    Returns (union, inj1, inj2) where the injections map old state ids to
    their ids in the union.  Clashing ids on the right are freshened with
    primes, so a self-union duplicates states under renamed ids.
    """
    if c1.functor != c2.functor:
        raise StructureError("disjoint union needs systems over the same functor")
    inj1 = {s: s for s in c1.carrier.elements}
    taken = set(c1.carrier.elements)
    inj2 = {}
    for s in c2.carrier.elements:
        fresh = _freshen(s, taken)
        inj2[s] = fresh
        taken.add(fresh)
    carrier = Carrier(tuple(inj1[s] for s in c1.carrier.elements)
                      + tuple(inj2[s] for s in c2.carrier.elements))
    alpha = {}
    for s in c1.carrier.elements:
        alpha[inj1[s]] = c1.step(s).map(lambda v: inj1[v])
    for s in c2.carrier.elements:
        alpha[inj2[s]] = c2.step(s).map(lambda v: inj2[v])
    return Coalgebra.of(c1.functor, carrier, alpha), inj1, inj2

"""Named quantitative modalities (fuzzy predicate liftings).

A modality turns predicate tables on states into a value on a functor
element; each carries monotonicity/nonexpansiveness flags and, where one
exists, the name of its dual.  The standard modalities live on the
functor nodes: each node builds its table once and keeps it
(FunctorSpec.standard_modalities), and offers

  * sup/inf readings ("dia"/"box") over finite sets of states,
  * expectation ("E", self-dual) over finite distributions,
  * deadlock-aware "dia"/"box" over optional distributions,
  * nullary label readouts ("at-<label>") on label components,
  * projection-composed copies of all of the above under pairing.

This module holds what they share: the modality type, the element-type
guard of an evaluator, and name resolution with the text aliases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import StructureError


@dataclass(frozen=True, eq=False)
class PredicateLifting:
    name: str
    arity: int
    monotone: bool
    nonexpansive: bool
    evaluator: Callable  # (FunctorElement, args: tuple of predicate tables) -> Fraction
    dual_name: str | None = None


def expecting(element_type, message, read) -> Callable:
    """An evaluator reading elements of element_type; others raise message."""

    def run(element, args):
        if not isinstance(element, element_type):
            raise StructureError(message)
        return read(element, args)

    return run


def dia_box(dia: Callable, box: Callable) -> dict:
    """The mutually dual monotone nonexpansive pair "dia"/"box"."""
    return {"dia": PredicateLifting("dia", 1, True, True, dia, "box"),
            "box": PredicateLifting("box", 1, True, True, box, "dia")}


DIA_ALIASES = {"<>": "dia", "[]": "box"}


def resolve_modality(modalities: dict, name: str) -> PredicateLifting:
    canonical = DIA_ALIASES.get(name, name)
    if canonical not in modalities:
        known = ", ".join(sorted(modalities)) or "none"
        raise StructureError(f"unknown modality {name!r}; available: {known}")
    return modalities[canonical]


def is_dual_closed(modalities: dict) -> bool:
    return all(
        lam.dual_name is not None and lam.dual_name in modalities
        for lam in modalities.values()
    )


def dual_of(modalities: dict, name: str) -> PredicateLifting:
    lam = resolve_modality(modalities, name)
    if lam.dual_name is None or lam.dual_name not in modalities:
        raise StructureError(f"modality {lam.name} has no registered dual")
    return modalities[lam.dual_name]

"""Modalities derived from a lifting, and the logic they generate.

Any functor element t with base y_1..y_n has a canonical indexed form t0
over {1..n} with t0.map(i -> y_i) = t.  Pairing an indexed form
with a lifting yields a derived n-ary modality: feed it predicate tables
f_1..f_n on X, build the membership matrix E(x, i) = f_i(x), and read off
the lifted value between a given element over X and t0.  These modalities
are monotone, inherit nonexpansiveness from the lifting, and are jointly
separating: the lifted distance of any relation is attained by feeding
the relation's own columns on the left and their companions on the right.

That separation is also what makes distinguishing-formula synthesis
exact: replacing the successors in a state's transition structure by
rank-k formulas produces a rank-(k+1) formula whose value table is the
next step of the distance chain.  The logical distance evaluates all its
target formulas with one shared memo, so each distinct synthesized
formula is evaluated once per call; they name no modality, so no
modality table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Carrier, FuzzyRel, StructureError, ZERO, companion, sat_sub
from .functors import FunctorElement, FunctorSpec, base
from .distance import check_setup
from .liftings import LiftingSpec, lift_value
from .logic import Const, Formula, MossDelta, _Evaluator
from .systems import Coalgebra, disjoint_union

# The highest rank synthesis builds.  Rewriting, evaluating and encoding a
# rank-n formula recurse through n structural modalities and the functor
# elements beneath them: a one-state pfin(id) loop at rank 124 exhausts
# the interpreter's recursion limit.
MAX_RANK = 64

@dataclass(frozen=True, eq=False)
class MossModality:
    """A derived modality: an indexed element plus its backing lifting."""

    indexed: FunctorElement  # element over Carrier(1..arity)
    arity: int
    lifting: LiftingSpec
    functor: FunctorSpec

    def index_carrier(self) -> Carrier:
        return Carrier(tuple(range(1, self.arity + 1)))


def presentation_of(element: FunctorElement, lifting: LiftingSpec,
                    functor: FunctorSpec):
    """Canonical indexed form of an element.

    Returns (modality, placeholders) where placeholders lists the base in
    index order; indexed.map(i -> placeholders[i-1]) rebuilds the
    element exactly.
    """
    placeholders = base(element)
    position = {y: i + 1 for i, y in enumerate(placeholders)}
    indexed = element.map(lambda y: position[y])
    return MossModality(indexed, len(placeholders), lifting, functor), placeholders


def moss_eval(modality: MossModality, carrier: Carrier, args, t: FunctorElement) -> Fraction:
    """Apply a derived modality to predicate tables on a carrier.

    args is a sequence of tables carrier-element -> value, one per index.
    """
    if len(args) != modality.arity:
        raise StructureError(
            f"derived modality takes {modality.arity} arguments, got {len(args)}"
        )
    rows = tuple(
        tuple(args[i][x] for i in range(modality.arity)) for x in carrier.elements
    )
    membership = FuzzyRel(carrier, modality.index_carrier(), rows)
    return lift_value(modality.lifting, modality.functor, membership.view(), t, modality.indexed)


def separation_witness(lifting: LiftingSpec, functor: FunctorSpec, rel: FuzzyRel,
                       t2: FunctorElement):
    """The modality and argument tables that attain a lifted value exactly.

    Returns (modality, left_args, right_args): the left tables are the
    relation's columns as picked out by t2's structure, the right tables
    their companions.  For any t1 over rel.source,

        moss_eval(mod, src, left, t1) (-) moss_eval(mod, tgt, right, t2)

    equals the lifted value of rel between t1 and t2.
    """
    source = rel.source.elements

    def column(b):
        return tuple(rel.at(a, b) for a in source)

    mapped = t2.map(column)
    modality, placeholders = presentation_of(mapped, lifting, functor)
    left = tuple(dict(zip(source, col)) for col in placeholders)
    right = tuple(companion(rel, f) for f in left)
    return modality, left, right


def witness_value(lifting: LiftingSpec, functor: FunctorSpec, rel: FuzzyRel,
                  t1: FunctorElement, t2: FunctorElement) -> Fraction:
    """The lifted value recovered through the separation witness."""
    modality, left, right = separation_witness(lifting, functor, rel, t2)
    return sat_sub(
        moss_eval(modality, rel.source, left, t1),
        moss_eval(modality, rel.target, right, t2),
    )


# ---------------------------------------------------------------------------
# Synthesis and logical distance


def synthesize_levels(system: Coalgebra, max_rank: int) -> list:
    """Level-by-level distinguishing formulas for every state.

    levels[k][s] is a rank-k formula whose value at any state x equals the
    k-step distance from x to s; level 0 is the constant 0.
    """
    if max_rank < 0:
        raise StructureError("rank must be nonnegative")
    if max_rank > MAX_RANK:
        raise StructureError(f"rank {max_rank} exceeds the limit {MAX_RANK}")
    zero = Const(ZERO)
    levels = [{s: zero for s in system.carrier.elements}]
    for _ in range(max_rank):
        prev = levels[-1]
        level = {
            s: MossDelta(system.step(s).map(lambda succ: prev[succ]))
            for s in system.carrier.elements
        }
        levels.append(level)
    return levels


def synthesize(system: Coalgebra, target, max_rank: int) -> Formula:
    """A rank-n formula separating every state from the target state."""
    if target not in system.carrier:
        raise StructureError(f"state {target!r} is not in the system")
    return synthesize_levels(system, max_rank)[max_rank][target]


def logical_distance(sys_a: Coalgebra, sys_b: Coalgebra, lifting: LiftingSpec,
                     rank_n: int) -> FuzzyRel:
    """Rank-n logical distance matrix, computed through synthesis.

    Entry (a, b) is the value gap of the synthesized rank-n formula for b
    on the disjoint union of the systems; no formula enumeration happens.
    All |B| target formulas run through one evaluator, so each distinct
    subformula (at most |B| per rank) is evaluated once per call, with one
    lift per union state; synthesized formulas name no modality, so no
    modality table is built.
    """
    check_setup(lifting, sys_a, sys_b)
    union, inj1, inj2 = disjoint_union(sys_a, sys_b)
    formulas = synthesize_levels(union, rank_n)[rank_n]
    evaluator = _Evaluator(union, lifting)
    tables = {b: evaluator(formulas[inj2[b]]) for b in sys_b.carrier.elements}
    rows = tuple(
        tuple(
            sat_sub(tables[b][inj1[a]], tables[b][inj2[b]])
            for b in sys_b.carrier.elements
        )
        for a in sys_a.carrier.elements
    )
    return FuzzyRel(sys_a.carrier, sys_b.carrier, rows)

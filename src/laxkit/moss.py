"""Modalities derived from a lifting, and the logic they generate.

Pairing a functor element t with a lifting yields its Moss modality, a
predicate lifting over t's own Id-leaf values y_1..y_n: fed tables
f_1..f_n, it lifts the membership view E(x, y_i) = f_i(x)
(laxkit.logic.membership) between a given element over the states and t
itself.  These modalities are monotone, inherit nonexpansiveness from the
lifting, and are jointly separating: the lifted distance of any relation
is attained by feeding the relation's own columns on the left and their
companions on the right.

That separation is also what makes distinguishing-formula synthesis
exact: replacing the successors in a state's transition structure by
rank-k formulas produces a rank-(k+1) formula whose value table is the
next step of the distance chain.  The logical distance evaluates all its
target formulas with one shared memo, so each distinct synthesized
formula is evaluated once per call; they name no modality, so no
modality table is built.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Carrier, FuzzyRel, StructureError, ZERO, as_unit, companion, sat_sub
from .functors import FunctorElement, FunctorSpec, base
from .distance import check_setup
from .liftings import LiftingSpec, lift_value
from .logic import Const, Formula, MossDelta, _Evaluator, membership
from .modalities import PredicateLifting
from .systems import Coalgebra, disjoint_union

# The highest rank synthesis builds.  Rewriting, evaluating and encoding a
# rank-n formula recurse through n structural modalities and the functor
# elements beneath them: a one-state pfin(id) loop at rank 124 exhausts
# the interpreter's recursion limit.
MAX_RANK = 64


def moss_modality(element: FunctorElement, lifting: LiftingSpec,
                  functor: FunctorSpec) -> PredicateLifting:
    """The Moss modality of an element under a lifting.

    Its placeholders are base(element), and it takes one predicate table
    per placeholder, in that order.  At an element t over the states it
    lifts the tables' membership view between t and the element itself.
    """
    placeholders = Carrier(base(element))
    arity = len(placeholders)

    def evaluate(t: FunctorElement, args) -> Fraction:
        if len(args) != arity:
            raise StructureError(f"derived modality takes {arity} arguments, got {len(args)}")
        tables = [{x: as_unit(v) for x, v in f.items()} for f in args]
        view = membership(Carrier(base(t)), placeholders, tables)
        return lift_value(lifting, functor, view, t, element)

    return PredicateLifting("moss", arity, True, True, evaluate)


def separation_witness(lifting: LiftingSpec, functor: FunctorSpec, rel: FuzzyRel,
                       t2: FunctorElement):
    """The modality and argument tables that attain a lifted value exactly.

    Returns (modality, left_args, right_args): the Moss modality of t2 with
    its leaves replaced by their columns of rel, those columns, and their
    companions.  For any t1 over rel.source,

        modality.evaluator(t1, left) (-) modality.evaluator(t2, right)

    equals the lifted value of rel between t1 and t2.
    """
    source = rel.source.elements

    def column(b):
        return tuple(rel.at(a, b) for a in source)

    mapped = t2.map(column)
    left = tuple(dict(zip(source, col)) for col in base(mapped))
    right = tuple(companion(rel, f) for f in left)
    return moss_modality(mapped, lifting, functor), left, right


def witness_value(lifting: LiftingSpec, functor: FunctorSpec, rel: FuzzyRel,
                  t1: FunctorElement, t2: FunctorElement) -> Fraction:
    """The lifted value recovered through the separation witness."""
    modality, left, right = separation_witness(lifting, functor, rel, t2)
    return sat_sub(modality.evaluator(t1, left), modality.evaluator(t2, right))


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

#!/usr/bin/env python3
"""Regenerate the versioned demo files under fixtures/.

Two bundles:

  * labelled_kripke_* : two three-state frames whose states carry a number
    from the unit interval and branch into successor sets, with the
    half-weighted label/Hausdorff lifting and a tight bisimulation
    certificate for them.

  * weighted_loop_*   : two one-state weighted transition systems (labels
    on the transitions, metric on the labels) under the one-sided
    Hausdorff lifting with a discounted successor component; their
    distance chain is an infinite geometric sum, so this bundle exercises
    tolerance-based convergence.

Plus bare Hausdorff liftings (both variants), the two transport
liftings, and the grid oracle over `dia` and over `dia` and `box` with
the finite-set functor it needs, for the law-suite command,
a small probabilistic system with a deadlock, and two formulas: one in
the text syntax and one in JSON that negates a named and a structural
modality over the labelled frames' functor.
"""

import os
import sys
from fractions import Fraction as F

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from laxkit import (
    Carrier, Coalgebra, Const, ConstEl, Certificate, DFin, FuzzyRel, Hausdorff,
    Id, IdEl, KantorovichD, KantorovichGrid, MaybeLift, Maybe, NOTHING, PFin, Pair, PairEl,
    PairSum, ConstLift, IdLift, WassersteinD, fdist, fset, just,
    FormulaConst, Modal, MossDelta, Neg, Or,
)
from laxkit.jsonio import (
    dump_json, encode_certificate, encode_formula, encode_functor, encode_lifting,
    encode_system,
)

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def number_labels(values):
    labels = Carrier(tuple(values))
    nums = {v: F(v) for v in values}
    metric = FuzzyRel.from_function(labels, labels, lambda x, y: abs(nums[x] - nums[y]))
    return Const(labels, metric)


def labelled_functor():
    return Pair(number_labels(("0", "1/5", "2/5", "7/10", "4/5")), PFin(Id()))


def labelled_kripke():
    functor = labelled_functor()

    def state(label, succs):
        return PairEl(ConstEl(label), fset(IdEl(s) for s in succs))

    sys_a = Coalgebra.of(functor, Carrier.of("a1", "a2", "a3"), {
        "a1": state("7/10", ["a2", "a3"]),
        "a2": state("1/5", []),
        "a3": state("4/5", []),
    })
    sys_b = Coalgebra.of(functor, Carrier.of("b1", "b2", "b3"), {
        "b1": state("2/5", ["b2", "b3"]),
        "b2": state("7/10", []),
        "b3": state("0", []),
    })
    lifting = PairSum(F(1, 2), F(1, 2), ConstLift(), Hausdorff("sym", IdLift()))
    entries = {("a1", "b1"): F(1, 5), ("a2", "b3"): F(1, 10), ("a3", "b2"): F(1, 20)}
    rel = FuzzyRel.from_function(
        sys_a.carrier, sys_b.carrier, lambda a, b: entries.get((a, b), F(1))
    )
    cert = Certificate(rel, "bisimulation")
    dump_json(encode_system(sys_a), f"{OUT}/labelled_kripke_a.json")
    dump_json(encode_system(sys_b), f"{OUT}/labelled_kripke_b.json")
    dump_json(encode_lifting(lifting), f"{OUT}/half_label_hausdorff.json")
    dump_json(encode_certificate(cert), f"{OUT}/labelled_kripke_cert.json")
    dump_json(encode_functor(functor), f"{OUT}/labelled_kripke_functor.json")


def weighted_loops():
    const = number_labels(("0", "1/4"))  # transition weights, spread <= 1/2
    functor = PFin(Pair(const, Id()))
    lifting = Hausdorff(
        "left", PairSum(F(1), F(1, 2), ConstLift(), IdLift())
    )
    sys_a = Coalgebra.of(functor, Carrier.of("s"), {
        "s": fset([PairEl(ConstEl("0"), IdEl("s"))]),
    })
    sys_b = Coalgebra.of(functor, Carrier.of("t"), {
        "t": fset([PairEl(ConstEl("1/4"), IdEl("t"))]),
    })
    dump_json(encode_system(sys_a), f"{OUT}/weighted_loop_a.json")
    dump_json(encode_system(sys_b), f"{OUT}/weighted_loop_b.json")
    dump_json(encode_lifting(lifting), f"{OUT}/weighted_step_lifting.json")
    dump_json(encode_functor(functor), f"{OUT}/weighted_loop_functor.json")


def hausdorff_variants():
    dump_json(encode_lifting(Hausdorff("sym", IdLift())), f"{OUT}/hausdorff_sym.json")
    dump_json(encode_lifting(Hausdorff("left", IdLift())), f"{OUT}/hausdorff_left.json")
    dump_json(encode_lifting(KantorovichD(IdLift())), f"{OUT}/kantorovich_discrete.json")
    dump_json(encode_lifting(WassersteinD(IdLift())), f"{OUT}/wasserstein_discrete.json")
    for name, modalities in (("grid_dia", ("dia",)), ("grid_dia_box", ("dia", "box"))):
        dump_json(encode_lifting(KantorovichGrid(modalities, F(1, 4))), f"{OUT}/{name}.json")
    dump_json(encode_functor(PFin(Id())), f"{OUT}/kripke_functor.json")


def probabilistic():
    functor = Maybe(DFin(Id()))
    sys_p = Coalgebra.of(functor, Carrier.of("u0", "u1", "u2"), {
        "u0": just(fdist([(IdEl("u1"), F(1, 3)), (IdEl("u2"), F(2, 3))])),
        "u1": just(fdist([(IdEl("u1"), F(1))])),
        "u2": NOTHING,
    })
    dump_json(encode_system(sys_p), f"{OUT}/prob_deadlock.json")
    dump_json(encode_lifting(MaybeLift(KantorovichD(IdLift()))),
              f"{OUT}/prob_lifting.json")


def formulas():
    with open(f"{OUT}/dia_shift.txt", "w", encoding="utf-8") as handle:
        handle.write("(<>( 1/2 ) /\\ 0.3) (+) 1/4\n")
    successors = fset([IdEl(Modal("far-1/5", ())), IdEl(FormulaConst(F(1, 2)))])
    negated = Or(
        Neg(Modal("dia", (Modal("at-7/10", ()),))),
        Neg(MossDelta(PairEl(ConstEl("2/5"), successors))),
    )
    dump_json(encode_formula(negated, labelled_functor()), f"{OUT}/neg_modalities.json")


if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    labelled_kripke()
    weighted_loops()
    hausdorff_variants()
    probabilistic()
    formulas()
    print(f"fixtures written to {OUT}")

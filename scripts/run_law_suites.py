#!/usr/bin/env python3
"""Run the randomized law suites for the shipped lifting families.

Usage: run_law_suites.py [TRIALS] [SEED]

Prints one line per (lifting, law) with pass/fail and, on failure, the
shrunk counterexample.  The one-sided liftings, left Hausdorff and the
grid over dia alone, are expected to fail converse preservation, which
they do not claim; everything else should be clean.  The two grid
oracles (over dia, and over dia and box, at step 1/4) search
5^|support| tables per lift, so their random sets have at most two
members.
"""

import os
import sys
import time
from fractions import Fraction as F

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import laxkit as lk
from laxkit import AxiomConfig, check_axioms


def number_const(values):
    labels = lk.Carrier(tuple(values))
    nums = {v: F(v) for v in values}
    metric = lk.FuzzyRel.from_function(labels, labels, lambda x, y: abs(nums[x] - nums[y]))
    return lk.Const(labels, metric)


def suites():
    """(name, lifting, functor, largest random set or support)"""
    const = number_const(("0", "1/4"))
    half = number_const(("0", "1/5", "2/5", "7/10", "4/5"))
    return [
        ("hausdorff-sym", lk.Hausdorff("sym", lk.IdLift()), lk.PFin(lk.Id()), 5),
        ("hausdorff-left", lk.Hausdorff("left", lk.IdLift()), lk.PFin(lk.Id()), 5),
        ("kantorovich", lk.KantorovichD(lk.IdLift()), lk.DFin(lk.Id()), 5),
        ("wasserstein", lk.WassersteinD(lk.IdLift()), lk.DFin(lk.Id()), 5),
        ("weighted-step",
         lk.Hausdorff("left", lk.PairSum(F(1), F(1, 2), lk.ConstLift(), lk.IdLift())),
         lk.PFin(lk.Pair(const, lk.Id())), 5),
        ("half-label-hausdorff",
         lk.PairSum(F(1, 2), F(1, 2), lk.ConstLift(), lk.Hausdorff("sym", lk.IdLift())),
         lk.Pair(half, lk.PFin(lk.Id())), 5),
        ("maybe-kantorovich", lk.MaybeLift(lk.KantorovichD(lk.IdLift())),
         lk.Maybe(lk.DFin(lk.Id())), 5),
        ("grid-dia", lk.KantorovichGrid(("dia",), F(1, 4)), lk.PFin(lk.Id()), 2),
        ("grid-dia-box", lk.KantorovichGrid(("dia", "box"), F(1, 4)), lk.PFin(lk.Id()), 2),
    ]


def main():
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    print(f"trials={trials} seed={seed}\n")
    for name, lifting, functor, max_size in suites():
        started = time.monotonic()
        report = check_axioms(lifting, functor,
                              AxiomConfig(trials=trials, max_size=max_size, seed=seed))
        elapsed = time.monotonic() - started
        print(f"{name}  ({elapsed:.1f}s)")
        for check in report.checks:
            mark = "pass" if check.passed else "FAIL"
            claim = "" if check.claimed else "  [not claimed]"
            print(f"  {check.name:<11} {mark}{claim}")
            if check.counterexample:
                cex = check.counterexample
                print(f"    trial {cex.trial}: {cex.description}")
                for key, value in cex.data.items():
                    print(f"      {key} = {value}")
        print()


if __name__ == "__main__":
    main()

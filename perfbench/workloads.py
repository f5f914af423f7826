"""The three workloads: fixed size ladders and a seeded call mix.

A workload is a sequence of rounds.  Every round issues the same multiset
of calls, one size class at a time, in a seeded order, and every call gets
files of its own, so nothing one call computes can serve the next.  Each
kind of call has three size classes in the ratio 3 : 3 : 2 (the law
suite's axioms calls: the seven shipped families, then two grid-oracle
calls), ordered by measured latency, so its median lies inside the middle
class and its 90th percentile inside the largest one, away from a class
boundary.  The largest class holds one family and size, so no boundary
lies inside it either.

Families of systems (each pair of systems shares a functor):

  lmc  labelled Markov chains, pair(const, dfin(id)),
       pair-sum(1/2, 1/2, const, kantorovich), --tol 1/1024
  dlm  Markov chains with deadlocks, maybe(dfin(id)),
       maybe(kantorovich), no tolerance, fixed --max-iter
  lkf  labelled Kripke frames, pair(const, pfin(id)),
       pair-sum(1/2, 1/2, const, hausdorff sym), --tol 1/1024
  kf   Kripke frames, pfin(id), hausdorff sym, exact fixpoint
"""

from __future__ import annotations

import random
from fractions import Fraction

import gen
from gen import Call

TOL = "1/1024"

FAMILIES = {
    "lmc": gen.LABELLED_MARKOV,
    "dlm": gen.DEADLOCK_MARKOV,
    "lkf": gen.LABELLED_KRIPKE,
    "kf": gen.HAUSDORFF_SYM,
}

# The seven shipped law-suite families: (lifting, functor or None to derive).
_C2 = gen.fixed_labels(["0", "1/4"])
_HALF = gen.fixed_labels(["0", "1/5", "2/5", "7/10", "4/5"])
LAW_FAMILIES = {
    "hausdorff-sym": (gen.HAUSDORFF_SYM, None),
    "hausdorff-left": (gen.HAUSDORFF_LEFT, None),
    "kantorovich": (gen.KANTOROVICH, None),
    "wasserstein": ({"kind": "wasserstein", "sub": gen.ID}, None),
    "weighted-step": (
        {"kind": "hausdorff", "variant": "left",
         "sub": gen.pair_sum({"kind": "const"}, gen.ID, "1", "1/2")},
        {"kind": "pfin", "sub": {"kind": "pair", "left": _C2, "right": gen.ID}}),
    "half-label-hausdorff": (
        gen.pair_sum({"kind": "const"}, gen.HAUSDORFF_SYM),
        {"kind": "pair", "left": _HALF, "right": {"kind": "pfin", "sub": gen.ID}}),
    "maybe-kantorovich": (gen.DEADLOCK_MARKOV, None),
}


def grid_family(modalities) -> tuple:
    return ({"kind": "kantorovich-grid", "modalities": list(modalities), "step": "1/4"},
            {"kind": "pfin", "sub": gen.ID})


# ---------------------------------------------------------------------------
# Call builders


def systems(rng: random.Random, family: str, n: int, width: int) -> tuple:
    """Two systems of one family with n states each; width is the
    distribution support (Markov) or the largest successor set (Kripke)."""
    if family == "lmc":
        labels = gen.number_labels(rng, 4)
        return tuple(gen.labelled_markov(rng, p, n, width, labels) for p in "ab")
    if family == "dlm":
        return tuple(gen.deadlock_markov(rng, p, n, width, 1) for p in "ab")
    if family == "lkf":
        labels = gen.number_labels(rng, 4)
        return tuple(gen.labelled_kripke(rng, p, n, width, labels) for p in "ab")
    if family == "kf":
        return tuple(gen.kripke(rng, p, n, width) for p in "ab")
    raise ValueError(f"unknown family {family!r}")


def _system_call(kind, size, name, family, sys_a, sys_b, head, tail=(), spec=None):
    lifting = FAMILIES[family]
    files = {f"{name}_a.json": sys_a, f"{name}_b.json": sys_b, f"{name}_l.json": lifting}
    argv = list(head) + ["--system", f"@{name}_a.json", "--system", f"@{name}_b.json",
                         "--lifting", f"@{name}_l.json"] + list(tail)
    base = {"lifting": lifting, "sys_a": sys_a, "sys_b": sys_b}
    return Call(kind, size, argv, files, {**base, **(spec or {})})


def dist(rng, size, name, family, n, width, max_iter=None) -> Call:
    sys_a, sys_b = systems(rng, family, n, width)
    if max_iter is None:
        tail = ["--tol", TOL] if gen.contracts(FAMILIES[family]) else []
        spec = {"tol": Fraction(TOL) if tail else 0, "max_iter": 100}
    else:
        tail, spec = ["--max-iter", str(max_iter)], {"tol": 0, "max_iter": max_iter}
    return _system_call("dist", size, name, family, sys_a, sys_b, ["dist"], tail, spec)


def cert(rng, size, name, family, n, width, kind) -> Call:
    # Tiny systems can have no entry whose tightening breaks the
    # certificate (say, every pair depends only on itself); draw again.
    while True:
        sys_a, sys_b = systems(rng, family, n, width)
        try:
            valid, violated = gen.certificates(rng, sys_a, sys_b, FAMILIES[family], kind)
            break
        except gen.NoViolation:
            continue
    planted_ok = rng.random() < 0.5
    chosen = valid if planted_ok else violated
    call = _system_call("cert", size, name, family, sys_a, sys_b,
                        ["check-cert", "--cert", f"@{name}_c.json"],
                        spec={"cert": chosen, "planted_ok": planted_ok})
    call.files[f"{name}_c.json"] = chosen
    return call


def logic(rng, size, name, family, n, width, rank) -> Call:
    sys_a, sys_b = systems(rng, family, n, width)
    return _system_call("logic", size, name, family, sys_a, sys_b,
                        ["logic", "distance", "--rank", str(rank)], spec={"rank": rank})


def synth(rng, size, name, family, n, width, rank) -> Call:
    sys_a, sys_b = systems(rng, family, n, width)
    target = rng.choice(gen.live_states(sys_b))
    return _system_call("synth", size, name, family, sys_a, sys_b,
                        ["synth", "--target", target, "--rank", str(rank)],
                        spec={"rank": rank, "target": target,
                              "union": gen.union(sys_a, sys_b)})


def axioms(rng, size, name, family, trials, max_size=5) -> Call:
    if family in LAW_FAMILIES:
        lifting, functor = LAW_FAMILIES[family]
    else:
        lifting, functor = grid_family(family.split("+"))
    files = {f"{name}_l.json": lifting}
    argv = ["axioms", "--lifting", f"@{name}_l.json", "--trials", str(trials),
            "--max-size", str(max_size), "--seed", str(rng.randrange(10**9))]
    if functor is not None:
        files[f"{name}_f.json"] = functor
        argv += ["--functor", f"@{name}_f.json"]
    return Call("axioms", size, argv, files, {"trials": trials})


# ---------------------------------------------------------------------------
# Ladders: per round, (builder, size class, arguments) for every call.

S, M, L = "small", "medium", "large"

LADDERS = {
    # Transport does almost all the work: every kind runs on distributions.
    "markov_dist": [
        (dist, S, ("lmc", 4, 2)), (dist, S, ("lmc", 4, 2)), (dist, S, ("dlm", 4, 2, 12)),
        (dist, M, ("lmc", 5, 3)), (dist, M, ("lmc", 5, 3)), (dist, M, ("lmc", 5, 3)),
        (dist, L, ("dlm", 6, 3, 14)), (dist, L, ("dlm", 6, 3, 14)),
        (cert, S, ("lmc", 4, 3, "simulation")), (cert, S, ("lmc", 4, 3, "simulation")),
        (cert, S, ("lmc", 5, 3, "simulation")),
        (cert, M, ("lmc", 6, 3, "bisimulation")), (cert, M, ("lmc", 6, 3, "bisimulation")),
        (cert, M, ("lmc", 6, 3, "bisimulation")),
        (cert, L, ("lmc", 8, 3, "bisimulation")), (cert, L, ("lmc", 8, 3, "bisimulation")),
        (logic, S, ("dlm", 4, 2, 2)), (logic, S, ("dlm", 4, 2, 2)), (logic, S, ("dlm", 4, 2, 2)),
        (logic, M, ("lmc", 3, 2, 2)), (logic, M, ("lmc", 3, 2, 2)), (logic, M, ("lmc", 3, 2, 2)),
        (logic, L, ("lmc", 4, 2, 2)), (logic, L, ("lmc", 4, 2, 2)),
        (synth, S, ("dlm", 4, 2, 2)), (synth, S, ("dlm", 4, 2, 2)), (synth, S, ("dlm", 4, 2, 2)),
        (synth, M, ("lmc", 3, 2, 2)), (synth, M, ("lmc", 3, 2, 2)), (synth, M, ("lmc", 3, 2, 2)),
        (synth, L, ("lmc", 4, 2, 2)), (synth, L, ("lmc", 4, 2, 2)),
        (axioms, S, ("kantorovich", 8)), (axioms, S, ("wasserstein", 8)),
        (axioms, S, ("maybe-kantorovich", 8)),
        (axioms, M, ("kantorovich", 12)), (axioms, M, ("wasserstein", 12)),
        (axioms, M, ("maybe-kantorovich", 12)),
        (axioms, L, ("kantorovich", 20)), (axioms, L, ("maybe-kantorovich", 20)),
    ],
    # No transport anywhere: set liftings, label metrics and the logic.
    "kripke_logic": [
        (dist, S, ("kf", 8, 3)), (dist, S, ("kf", 8, 3)), (dist, S, ("kf", 12, 3)),
        (dist, M, ("lkf", 10, 3)), (dist, M, ("lkf", 10, 3)), (dist, M, ("lkf", 10, 3)),
        (dist, L, ("lkf", 14, 3)), (dist, L, ("lkf", 14, 3)),
        (cert, S, ("kf", 10, 3, "simulation")), (cert, S, ("kf", 14, 3, "bisimulation")),
        (cert, S, ("lkf", 8, 3, "simulation")),
        (cert, M, ("lkf", 10, 3, "bisimulation")), (cert, M, ("lkf", 10, 3, "bisimulation")),
        (cert, M, ("lkf", 10, 3, "bisimulation")),
        (cert, L, ("lkf", 16, 3, "bisimulation")), (cert, L, ("lkf", 16, 3, "bisimulation")),
        (logic, S, ("kf", 8, 3, 3)), (logic, S, ("kf", 8, 3, 3)), (logic, S, ("kf", 8, 3, 3)),
        (logic, M, ("lkf", 7, 3, 3)), (logic, M, ("lkf", 7, 3, 3)), (logic, M, ("lkf", 7, 3, 3)),
        (logic, L, ("lkf", 10, 3, 3)), (logic, L, ("lkf", 10, 3, 3)),
        (synth, S, ("kf", 6, 3, 3)), (synth, S, ("kf", 6, 3, 3)), (synth, S, ("kf", 6, 3, 3)),
        (synth, M, ("lkf", 6, 3, 3)), (synth, M, ("lkf", 6, 3, 3)), (synth, M, ("lkf", 6, 3, 3)),
        (synth, L, ("lkf", 7, 3, 3)), (synth, L, ("lkf", 7, 3, 3)),
        (axioms, S, ("hausdorff-sym", 10)), (axioms, S, ("hausdorff-left", 10)),
        (axioms, S, ("weighted-step", 10)),
        (axioms, M, ("half-label-hausdorff", 15)), (axioms, M, ("hausdorff-sym", 15)),
        (axioms, M, ("weighted-step", 15)),
        (axioms, L, ("hausdorff-left", 25)), (axioms, L, ("half-label-hausdorff", 25)),
    ],
    # The law suite on thousands of fresh tiny relations, plus single-shot
    # calls on tiny systems, where per-call set-up dominates.
    "law_suite": [
        (dist, S, ("kf", 3, 2)), (dist, S, ("lkf", 3, 2)), (dist, S, ("dlm", 3, 2, 8)),
        (dist, M, ("lkf", 5, 2)), (dist, M, ("dlm", 4, 2, 8)), (dist, M, ("lmc", 3, 2)),
        (dist, L, ("lmc", 4, 2)), (dist, L, ("lmc", 4, 2)),
        (cert, S, ("kf", 3, 2, "simulation")), (cert, S, ("kf", 4, 2, "bisimulation")),
        (cert, S, ("lkf", 3, 2, "simulation")),
        (cert, M, ("lkf", 4, 2, "bisimulation")), (cert, M, ("lmc", 3, 2, "simulation")),
        (cert, M, ("lmc", 3, 2, "bisimulation")),
        (cert, L, ("lmc", 5, 2, "bisimulation")), (cert, L, ("lmc", 5, 2, "bisimulation")),
        (logic, S, ("kf", 3, 2, 2)), (logic, S, ("kf", 4, 2, 2)), (logic, S, ("dlm", 3, 2, 2)),
        (logic, M, ("lkf", 3, 2, 2)), (logic, M, ("dlm", 4, 2, 2)), (logic, M, ("lmc", 3, 2, 2)),
        (logic, L, ("lkf", 5, 2, 2)), (logic, L, ("lkf", 5, 2, 2)),
        (synth, S, ("kf", 3, 2, 2)), (synth, S, ("kf", 4, 2, 2)), (synth, S, ("dlm", 3, 2, 2)),
        (synth, M, ("lkf", 3, 2, 2)), (synth, M, ("dlm", 4, 2, 2)), (synth, M, ("lkf", 5, 2, 2)),
        (synth, L, ("lmc", 3, 2, 2)), (synth, L, ("lmc", 3, 2, 2)),
        (axioms, S, ("hausdorff-sym", 25)), (axioms, S, ("hausdorff-left", 25)),
        (axioms, S, ("weighted-step", 25)), (axioms, S, ("half-label-hausdorff", 25)),
        (axioms, M, ("kantorovich", 25)), (axioms, M, ("wasserstein", 25)),
        (axioms, M, ("maybe-kantorovich", 25)),
        (axioms, L, ("dia+box", 12, 2)), (axioms, L, ("dia", 28, 2)),
    ],
}

WARMUP = [
    (dist, S, ("lmc", 3, 2)), (cert, S, ("kf", 3, 2, "simulation")),
    (logic, S, ("kf", 3, 2, 2)), (synth, S, ("lkf", 3, 2, 2)),
    (axioms, S, ("hausdorff-sym", 5)),
]

KINDS = ("dist", "cert", "logic", "synth", "axioms")


def _build(entries, rng, prefix) -> list:
    return [builder(rng, size, f"{prefix}{i}", *args)
            for i, (builder, size, args) in enumerate(entries)]


def round_calls(workload: str, seed: int, number: int) -> list:
    """The calls of one round, in their seeded order."""
    rng = random.Random(f"{workload}:{seed}:{number}")
    calls = _build(LADDERS[workload], rng, f"r{number}_")
    rng.shuffle(calls)
    return calls


def warmup_calls(workload: str, seed: int) -> list:
    return _build(WARMUP, random.Random(f"{workload}:{seed}:warmup"), "w")

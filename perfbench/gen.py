"""Seeded generators for the benchmark's input files.

Everything here writes the documented laxkit JSON formats with plain
`json`: systems are {"functor", "states", "alpha"}, liftings and functors
are grammar nodes with a "kind", certificates are {"kind", "relation"},
rationals are "p/q" strings.  Nothing imports laxkit, so the program under
test only ever sees files.

A `Call` carries the argv for `laxkit.cli.main`, the files it reads and
the in-memory specs the reference checker needs to judge its answer.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from reference import Problem, contraction_factor, residual

ID = {"kind": "id"}


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass
class Call:
    kind: str  # dist | cert | logic | synth | axioms
    size: str  # size class within the kind
    argv: list
    files: dict = field(default_factory=dict)  # relative path -> JSON data
    spec: dict = field(default_factory=dict)  # what the checker needs

    def write(self, workdir: str) -> list:
        """Write the input files and return argv with paths under workdir."""
        for rel, data in self.files.items():
            with open(os.path.join(workdir, rel), "w", encoding="utf-8") as handle:
                json.dump(data, handle)
        return [os.path.join(workdir, a[1:]) if a.startswith("@") else a
                for a in self.argv]


# ---------------------------------------------------------------------------
# Functors and liftings


def number_labels(rng: random.Random, count: int) -> dict:
    """A label component: `count` points of the 1/8 grid, metric |x - y|."""
    points = sorted(rng.sample(range(9), count))
    labels = [fmt(Fraction(p, 8)) for p in points]
    metric = [[fmt(Fraction(abs(p - q), 8)) for q in points] for p in points]
    return {"kind": "const", "labels": labels, "metric": metric}


def fixed_labels(values) -> dict:
    nums = [Fraction(v) for v in values]
    return {"kind": "const", "labels": list(values),
            "metric": [[fmt(abs(x - y)) for y in nums] for x in nums]}


def pair_sum(left, right, w_left="1/2", w_right="1/2") -> dict:
    return {"kind": "pair-sum", "weights": [w_left, w_right], "left": left, "right": right}


KANTOROVICH = {"kind": "kantorovich", "sub": ID}
HAUSDORFF_SYM = {"kind": "hausdorff", "variant": "sym", "sub": ID}
HAUSDORFF_LEFT = {"kind": "hausdorff", "variant": "left", "sub": ID}
LABELLED_MARKOV = pair_sum({"kind": "const"}, KANTOROVICH)
DEADLOCK_MARKOV = {"kind": "maybe", "sub": KANTOROVICH}
LABELLED_KRIPKE = pair_sum({"kind": "const"}, HAUSDORFF_SYM)


# ---------------------------------------------------------------------------
# Systems


def _distribution(rng, states, support):
    """Probabilities in twelfths, so denominators grow alike across calls."""
    succs = rng.sample(states, support)
    cuts = sorted(rng.sample(range(1, 12), support - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [12])]
    return [[s, fmt(Fraction(w, 12))] for s, w in zip(succs, weights)]


def labelled_markov(rng, prefix, n, support, labels) -> dict:
    states = [f"{prefix}{i}" for i in range(n)]
    alpha = {s: [rng.choice(labels["labels"]), _distribution(rng, states, support)]
             for s in states}
    functor = {"kind": "pair", "left": labels, "right": {"kind": "dfin", "sub": ID}}
    return {"functor": functor, "states": states, "alpha": alpha}


def deadlock_markov(rng, prefix, n, support, deadlocks) -> dict:
    states = [f"{prefix}{i}" for i in range(n)]
    stuck = set(rng.sample(states, deadlocks))
    alpha = {s: None if s in stuck else _distribution(rng, states, support)
             for s in states}
    functor = {"kind": "maybe", "sub": {"kind": "dfin", "sub": ID}}
    return {"functor": functor, "states": states, "alpha": alpha}


def _successor_sets(rng, states, max_out):
    """One deadlock state; every other state has 1..max_out successors."""
    stuck = rng.choice(states)
    return {s: [] if s == stuck else sorted(rng.sample(states, rng.randint(1, max_out)))
            for s in states}


def labelled_kripke(rng, prefix, n, max_out, labels) -> dict:
    states = [f"{prefix}{i}" for i in range(n)]
    succs = _successor_sets(rng, states, max_out)
    alpha = {s: [rng.choice(labels["labels"]), succs[s]] for s in states}
    functor = {"kind": "pair", "left": labels, "right": {"kind": "pfin", "sub": ID}}
    return {"functor": functor, "states": states, "alpha": alpha}


def kripke(rng, prefix, n, max_out) -> dict:
    states = [f"{prefix}{i}" for i in range(n)]
    return {"functor": {"kind": "pfin", "sub": ID}, "states": states,
            "alpha": _successor_sets(rng, states, max_out)}


def live_states(system: dict) -> list:
    """States that are not deadlocked (no successor structure at all)."""
    kind = system["functor"]["kind"]

    def live(el):
        if kind == "maybe":
            return el is not None
        if kind == "pfin":
            return bool(el)
        return bool(el[1])
    return [s for s in system["states"] if live(system["alpha"][s])]


def contracts(lifting: dict) -> bool:
    return contraction_factor(lifting) < 1


def union(sys_a: dict, sys_b: dict) -> dict:
    """Disjoint union of two systems whose state ids do not clash."""
    return {"functor": sys_a["functor"],
            "states": sys_a["states"] + sys_b["states"],
            "alpha": {**sys_a["alpha"], **sys_b["alpha"]}}


# ---------------------------------------------------------------------------
# Certificates


class NoViolation(ValueError):
    """No single tightened entry makes the certificate fail."""


def certificates(rng, sys_a, sys_b, lifting, kind) -> tuple:
    """A valid certificate and a violated one for the same pair of systems.

    The valid one is a Kleene iterate raised by residual / (1 - c), capped
    at 1, which is a post-fixpoint when the lifting contracts with factor
    c < 1; with c = 1 the exact fixpoint itself is used.  The violated one
    halves one entry below its lifted value, chosen so that the lifted
    value of the tightened relation still exceeds it.  The reference
    checker confirms both verdicts on every call.
    """
    problem = Problem(lifting, sys_a, sys_b)
    if problem.factor < 1:
        iterates = problem.chain(6)
        raise_by = residual(iterates[-1], iterates[-2]) / (1 - problem.factor)
        valid = [[min(Fraction(1), x + raise_by) for x in row] for row in iterates[-1]]
    else:
        valid = problem.zero()
        for _ in range(len(valid) * len(valid[0]) + 1):
            nxt = problem.step(valid)
            if nxt == valid:
                break
            valid = nxt
        else:
            raise ValueError("certificate generator needs an exactly converging chain")
    lifted = problem.step(valid)
    candidates = [(i, j) for i, row in enumerate(lifted) for j, x in enumerate(row) if x > 0]
    rng.shuffle(candidates)
    for i, j in candidates:
        tight = [row[:] for row in valid]
        tight[i][j] = lifted[i][j] / 2
        if problem.entry(tight, i, j) > tight[i][j]:
            break
    else:
        raise NoViolation("no entry of the certificate tightens into a violation")

    def encode(rows):
        return {"kind": kind, "relation": {
            "source": sys_a["states"], "target": sys_b["states"],
            "values": [[fmt(x) for x in row] for row in rows]}}

    return encode(valid), encode(tight)

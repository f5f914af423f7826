"""Randomized law checking for relation liftings.

Each lifting instance is probed on small random carriers and elements:

  L1  monotonicity in the relation
  L2  lax compatibility with relation composition
  L3  both graph clauses (the lifted graph of a function vanishes on the
      function's image pairs, and likewise for the converse graph)
  L4  epsilon-diagonals stay below epsilon (nonexpansiveness)
  L0  converse preservation, reported separately because one-sided
      liftings legitimately fail it
  naturality      reindexing along functions commutes with lifting
  hemimetric      lifted hemimetrics stay reflexive and triangular, and
                  lifted pseudometrics stay symmetric when the lifting
                  claims converse preservation

Random unit values are drawn as integers over _SCALE, the lcm of the
draw denominators, by indexing tables: per denominator, the tuple of its
numerators scaled to _SCALE, and one tuple of the _SCALE + 1 Fractions
k/_SCALE that a drawn integer indexes.  In CPython's random module
`rng.choice(seq)` is `seq[rng._randbelow(len(seq))]`,
`rng.randrange(a, b)` is `a + rng._randbelow(b - a)` and
`rng.randint(a, b)` is `rng.randrange(a, b + 1)`, so a draw by `choice`
over a table or a range consumes the rng exactly as the randint or
randrange draw it replaces: the stream, and so every report, is
unchanged.  Carriers are drawn that way from one tuple per prefix and
largest size, shared by every draw, and so are the functors' sizes,
weights, states and labels (laxkit.functors).  A random hemimetric is
symmetrized and triangle-closed (Floyd-Warshall) on those integers,
where truncated addition never saturates, and L1's smaller relation is
max(x - y, 0) on them; only the finished matrices index the Fractions.
A relation built from the tables skips FuzzyRel's entry check and keeps
its integers over _SCALE as its scaled form, as do the compositions,
converses, graphs and diagonals the laws build from it; every lift reads
its blocks off the relation's form (FuzzyRel.view).

Comparisons are exact for exact liftings; if a grid oracle occurs in the
lifting, inequalities get the documented approximation slack instead of
being reported as spurious violations.

Each law is stated once, as a draw (a trial's case of named fields, built
from the trial's rng) and a test of those fields; one runner executes the
trials for every law.  The first failing case is greedily shrunk, field by
field in the order the law names (relation entries pushed to 0 or 1, set
members dropped) while the test still fails, and every value in the
counterexample is computed by the test at the shrunk case before it is
serialized into the report.  Everything is driven by per-check, per-trial
string seeds, so reports are reproducible across processes.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .core import (
    Carrier,
    FuzzyRel,
    IntBlock,
    ONE,
    StructureError,
    ZERO,
    compose,
    converse,
    diagonal,
    graph,
    sat_add,
    unit_over,
)
from .functors import FunctorElement, FunctorSpec
from .liftings import LiftingSpec, lift_value, require_match

_DENOMS = (1, 2, 3, 4, 5, 6, 8, 10)
_SCALE = lcm(*_DENOMS)  # every rand_unit draw is an integer over this
_UNITS = tuple(unit_over(k, _SCALE) for k in range(_SCALE + 1))  # k/_SCALE at k
# per denominator in _DENOMS, the numerators 0..den scaled to _SCALE
_SCALED = tuple(tuple(range(0, _SCALE + 1, _SCALE // den)) for den in _DENOMS)
# per denominator in _DENOMS[1:], L4's epsilons 1/den..den/den
_EPSILONS = tuple(tuple(_UNITS[k] for k in scaled[1:]) for scaled in _SCALED[1:])

# The largest carrier a trial may draw.  A law's lifts grow steeply with
# the carriers: at the default 500 trials the hausdorff_left fixture's suite
# took 1.0 s at 16 and 14.1 s at 64 (2-CPU Intel Xeon, Python 3.11.7).
MAX_SIZE = 64
# The most trials a suite may run; its time is linear in them.
MAX_TRIALS = 10_000


@dataclass(frozen=True)
class AxiomConfig:
    trials: int = 500
    max_size: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise StructureError(f"trials must be at least 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise StructureError(f"trials must be at most {MAX_TRIALS}, got {self.trials}")
        if self.max_size < 1:
            raise StructureError(f"max_size must be at least 1, got {self.max_size}")
        if self.max_size > MAX_SIZE:
            raise StructureError(f"max_size must be at most {MAX_SIZE}, got {self.max_size}")


@dataclass(frozen=True)
class Counterexample:
    check: str
    trial: int
    description: str
    data: dict


@dataclass(frozen=True)
class CheckResult:
    name: str
    claimed: bool
    trials: int
    counterexample: Counterexample | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        """No counterexample anywhere, claimed or not."""
        return all(c.passed for c in self.checks)

    @property
    def consistent(self) -> bool:
        """No counterexample against anything the lifting claims."""
        return all(c.passed for c in self.checks if c.claimed)


# ---------------------------------------------------------------------------
# Random generators


def _rng(cfg: AxiomConfig, check: str, trial: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{check}:{trial}")


def _rand_scaled(rng: random.Random) -> int:
    """A random unit value, as its numerator over _SCALE."""
    roll = rng.random()
    if roll < 0.15:
        return 0
    if roll < 0.3:
        return _SCALE
    return rng.choice(rng.choice(_SCALED))


def rand_unit(rng: random.Random) -> Fraction:
    return _UNITS[_rand_scaled(rng)]


@lru_cache(maxsize=256)
def _carriers(prefix: str, max_size: int) -> tuple:
    """The carriers prefix0, ..., prefix{size-1} for size 1..max_size,
    shared by every draw of them."""
    return tuple(Carrier(tuple(f"{prefix}{i}" for i in range(size)))
                 for size in range(1, max_size + 1))


def rand_carrier(rng: random.Random, prefix: str, max_size: int) -> Carrier:
    return rng.choice(_carriers(prefix, max_size))


def _rand_scaled_rows(rng: random.Random, source: Carrier, target: Carrier) -> list:
    """A random relation's entries, as numerators over _SCALE."""
    return [[_rand_scaled(rng) for _ in target.elements] for _ in source.elements]


def _rel_over_scale(source: Carrier, target: Carrier, rows) -> FuzzyRel:
    """The relation whose entries are rows' numerators over _SCALE,
    carrying those integers as its scaled form."""
    ints = tuple(map(tuple, rows))
    units = _UNITS.__getitem__
    return FuzzyRel._of_units(source, target, tuple(tuple(map(units, row)) for row in ints),
                              IntBlock((_SCALE, ints)))


def rand_rel(rng: random.Random, source: Carrier, target: Carrier) -> FuzzyRel:
    return _rel_over_scale(source, target, _rand_scaled_rows(rng, source, target))


def rand_function(rng: random.Random, source: Carrier, target: Carrier) -> dict:
    return {a: rng.choice(target.elements) for a in source.elements}


def rand_hemimetric(rng: random.Random, carrier: Carrier, symmetric: bool) -> FuzzyRel:
    """Zero diagonal, optional symmetrization, then triangle closure.

    The closure runs on the draws' numerators over _SCALE.  It never
    saturates: a path replaces d[i][j] only when it is shorter, and
    d[i][j] is at most _SCALE.
    """
    n = len(carrier)
    d = _rand_scaled_rows(rng, carrier, carrier)
    for i in range(n):
        d[i][i] = 0
    if symmetric:
        for i in range(n):
            for j in range(i):
                d[i][j] = d[j][i] = min(d[i][j], d[j][i])
    for k, row_k in enumerate(d):
        for row in d:
            to_k = row[k]
            for j in range(n):
                via = to_k + row_k[j]
                if via < row[j]:
                    row[j] = via
    return _rel_over_scale(carrier, carrier, d)


# ---------------------------------------------------------------------------
# Shrinking


def _shrink_rel(rel: FuzzyRel, still_fails) -> FuzzyRel:
    """Greedy entrywise simplification: push entries to 0, then the rest to 1.

    The second pass visits only entries strictly between 0 and 1, so an
    entry the first pass zeroed stays 0.
    """
    current = rel
    for bound in (ZERO, ONE):
        for i in range(len(current.source)):
            for j in range(len(current.target)):
                if current.values[i][j] in (ZERO, bound):
                    continue
                rows = [list(r) for r in current.values]
                rows[i][j] = bound
                candidate = FuzzyRel(
                    current.source, current.target, tuple(tuple(r) for r in rows)
                )
                if still_fails(candidate):
                    current = candidate
    return current


def _shrink_element(element, still_fails):
    """Move to the first smaller candidate that still fails, while one does."""
    current = element
    while True:
        for candidate in current.shrink_candidates():
            if still_fails(candidate):
                current = candidate
                break
        else:
            return current


# ---------------------------------------------------------------------------
# The laws


def _render(value):
    if isinstance(value, FunctorElement):
        return value.render()
    if isinstance(value, FuzzyRel):
        return [[str(x) for x in row] for row in value.values]
    return str(value)


def check_axioms(lifting: LiftingSpec, functor: FunctorSpec,
                 cfg: AxiomConfig = AxiomConfig()) -> AxiomReport:
    """Run the whole randomized law suite against one lifting instance."""
    require_match(lifting, functor)
    slack = lifting.approximation_slack()
    converse_claimed = lifting.claims_converse(functor)

    # One fresh view per lift: a view shares its relation's integer form,
    # so making one scales nothing, and each lift's transport solves start
    # cold, as in a certificate check.
    def value(rel, t1, t2):
        return lift_value(lifting, functor, rel.view(), t1, t2)

    if slack:
        def le(x, y):
            return x <= y + slack

        def eq(x, y):
            return abs(x - y) <= 2 * slack
    else:
        le, eq = operator.le, operator.eq

    def carriers(rng, prefixes):  # one carrier per prefix letter, in draw order
        return [rand_carrier(rng, p, cfg.max_size) for p in prefixes]

    def elements(rng, *over):
        return [functor.random_element(rng, c) for c in over]

    # Each law is a draw, building a trial's case from its rng, and a test
    # of the case's fields: None where the law holds, else (description, data).

    def draw_l1(rng):
        a, b = carriers(rng, "ab")
        larger = _rand_scaled_rows(rng, a, b)
        smaller = [[max(x - _rand_scaled(rng), 0) for x in row] for row in larger]
        t1, t2 = elements(rng, a, b)
        return dict(smaller=_rel_over_scale(a, b, smaller),
                    larger=_rel_over_scale(a, b, larger), t1=t1, t2=t2)

    def test_l1(smaller, larger, t1, t2):
        # a shrink step may push an entry of smaller above larger, voiding the premise
        if (not le(value(smaller, t1, t2), value(larger, t1, t2))
                and smaller.entrywise_le(larger)):
            return ("smaller relation lifted to a larger value",
                    dict(smaller=smaller, larger=larger, t1=t1, t2=t2))

    def draw_l2(rng):
        a, b, c = carriers(rng, "abc")
        r, s = rand_rel(rng, a, b), rand_rel(rng, b, c)
        t1, t2, t3 = elements(rng, a, b, c)
        return dict(r=r, s=s, t1=t1, t2=t2, t3=t3)

    def test_l2(r, s, t1, t2, t3):
        if not le(value(compose(r, s), t1, t3),
                  sat_add(value(r, t1, t2), value(s, t2, t3))):
            return ("composite relation lifted above the composed bound",
                    dict(r=r, s=s, t1=t1, t2=t2, t3=t3))

    def draw_l3(rng):
        a, b = carriers(rng, "ab")
        f = rand_function(rng, a, b)
        return dict(a=a, b=b, f=f, t1=functor.random_element(rng, a))

    def test_l3(a, b, f, t1):
        mapped = t1.map(lambda x: f[x])
        gr = graph(f, a, b)
        forward, backward = value(gr, t1, mapped), value(converse(gr), mapped, t1)
        if not (le(forward, ZERO) and le(backward, ZERO)):
            return ("graph of a function lifted to a nonzero value",
                    dict(f=f, t1=t1, mapped=mapped, forward=forward, backward=backward))

    def draw_l4(rng):
        a = rand_carrier(rng, "a", cfg.max_size)
        eps = rng.choice(rng.choice(_EPSILONS))
        return dict(a=a, eps=eps, t=functor.random_element(rng, a))

    def test_l4(a, eps, t):
        got = value(diagonal(a, eps), t, t)
        if not le(got, eps):
            return "epsilon-diagonal lifted above epsilon", dict(eps=eps, t=t, got=got)

    def draw_naturality(rng):
        a, b, a2, b2 = carriers(rng, "abuv")
        f, g = rand_function(rng, a, a2), rand_function(rng, b, b2)
        r = rand_rel(rng, a2, b2)
        t1, t2 = elements(rng, a, b)
        return dict(a=a, b=b, f=f, g=g, r=r, t1=t1, t2=t2)

    def test_naturality(a, b, f, g, r, t1, t2):
        reindexed = FuzzyRel.from_function(a, b, lambda x, y: r.at(f[x], g[y]))
        lhs = value(reindexed, t1, t2)
        rhs = value(r, t1.map(lambda x: f[x]), t2.map(lambda y: g[y]))
        if not eq(lhs, rhs):
            return ("reindexing does not commute with lifting",
                    dict(r=r, f=f, g=g, t1=t1, t2=t2, lhs=lhs, rhs=rhs))

    def draw_hemimetric(rng):
        a = rand_carrier(rng, "a", cfg.max_size)
        d = rand_hemimetric(rng, a, converse_claimed)
        t, t1, t2, t3 = elements(rng, a, a, a, a)
        return dict(d=d, t=t, t1=t1, t2=t2, t3=t3)

    def test_hemimetric(d, t, t1, t2, t3):
        got = value(d, t, t)
        if not le(got, ZERO):
            return "lifted hemimetric lost reflexivity", dict(d=d, t=t, got=got)
        lhs, rhs = value(d, t1, t3), sat_add(value(d, t1, t2), value(d, t2, t3))
        if not le(lhs, rhs):
            return ("lifted hemimetric lost the triangle inequality",
                    dict(d=d, t1=t1, t2=t2, t3=t3, lhs=lhs, rhs=rhs))
        if converse_claimed and not eq(value(d, t1, t2), value(d, t2, t1)):
            return "lifted pseudometric lost symmetry", dict(d=d, t1=t1, t2=t2)

    def draw_l0(rng):
        a, b = carriers(rng, "ab")
        r = rand_rel(rng, a, b)
        t1, t2 = elements(rng, a, b)
        return dict(r=r, t1=t1, t2=t2)

    def test_l0(r, t1, t2):
        forward, backward = value(r, t1, t2), value(converse(r), t2, t1)
        if not eq(forward, backward):
            return ("lifting does not preserve converse",
                    dict(r=r, t1=t1, t2=t2, forward=forward, backward=backward))

    def run(name, claimed, draw, test, shrink):
        """The first failing trial, its named fields shrunk in order, as a result."""
        for trial in range(cfg.trials):
            case = draw(_rng(cfg, name, trial))
            if test(**case) is None:
                continue
            for field in shrink:
                shrinker = _shrink_rel if isinstance(case[field], FuzzyRel) else _shrink_element
                case[field] = shrinker(
                    case[field], lambda cand: test(**{**case, field: cand}) is not None)
            description, data = test(**case)
            rendered = {k: _render(v) for k, v in data.items()}
            return CheckResult(name, claimed, trial + 1,
                               Counterexample(name, trial, description, rendered))
        return CheckResult(name, claimed, cfg.trials, None)

    return AxiomReport((
        run("L1", True, draw_l1, test_l1, ("smaller",)),
        run("L2", True, draw_l2, test_l2, ("r",)),
        run("L3", True, draw_l3, test_l3, ()),
        run("L4", True, draw_l4, test_l4, ("t",)),
        run("naturality", True, draw_naturality, test_naturality, ()),
        run("hemimetric", True, draw_hemimetric, test_hemimetric, ()),
        run("L0", converse_claimed, draw_l0, test_l0, ("r", "t1", "t2")),
    ))

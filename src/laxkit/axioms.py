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

Comparisons are exact for exact liftings; if a grid oracle occurs in the
lifting, inequalities get the documented approximation slack instead of
being reported as spurious violations.  Counterexamples are greedily
shrunk (entries pushed to 0 or 1, set members dropped) and serialized
into the report.  Everything is driven by per-check, per-trial string
seeds, so reports are reproducible across processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Carrier,
    FuzzyRel,
    ONE,
    StructureError,
    ZERO,
    compose,
    converse,
    diagonal,
    graph,
    sat_add,
    sat_sub,
)
from .functors import FunctorSpec, SetEl, apply_map, fset, render_element
from .liftings import (
    LiftingSpec,
    approximation_slack,
    claims_converse,
    lift_value,
    require_match,
)

_DENOMS = (1, 2, 3, 4, 5, 6, 8, 10)


@dataclass(frozen=True)
class AxiomConfig:
    trials: int = 500
    max_size: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise StructureError(f"trials must be at least 1, got {self.trials}")
        if self.max_size < 1:
            raise StructureError(f"max_size must be at least 1, got {self.max_size}")


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

    def by_name(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Random generators


def _rng(cfg: AxiomConfig, check: str, trial: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{check}:{trial}")


def rand_unit(rng: random.Random) -> Fraction:
    roll = rng.random()
    if roll < 0.15:
        return ZERO
    if roll < 0.3:
        return ONE
    den = rng.choice(_DENOMS)
    return Fraction(rng.randint(0, den), den)


def rand_carrier(rng: random.Random, prefix: str, max_size: int) -> Carrier:
    size = rng.randint(1, max_size)
    return Carrier(tuple(f"{prefix}{i}" for i in range(size)))


def rand_rel(rng: random.Random, source: Carrier, target: Carrier) -> FuzzyRel:
    return FuzzyRel(
        source,
        target,
        tuple(
            tuple(rand_unit(rng) for _ in target.elements) for _ in source.elements
        ),
    )


def rand_function(rng: random.Random, source: Carrier, target: Carrier) -> dict:
    return {a: rng.choice(target.elements) for a in source.elements}


def rand_element(rng: random.Random, functor: FunctorSpec, carrier: Carrier):
    return functor.random_element(rng, carrier)


def rand_hemimetric(rng: random.Random, carrier: Carrier, symmetric: bool) -> FuzzyRel:
    """Zero diagonal, optional symmetrization, then triangle closure."""
    n = len(carrier)
    d = [[rand_unit(rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d[i][i] = ZERO
    if symmetric:
        for i in range(n):
            for j in range(n):
                if d[i][j] != d[j][i]:
                    low = min(d[i][j], d[j][i])
                    d[i][j] = d[j][i] = low
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = sat_add(d[i][k], d[k][j])
                if via < d[i][j]:
                    d[i][j] = via
    return FuzzyRel(carrier, carrier, tuple(tuple(row) for row in d))


# ---------------------------------------------------------------------------
# Shrinking


def _shrink_rel(rel: FuzzyRel, still_fails) -> FuzzyRel:
    """Greedy entrywise simplification: push entries to 0, then to 1."""
    current = rel
    for bound in (ZERO, ONE):
        for i in range(len(current.source)):
            for j in range(len(current.target)):
                if current.values[i][j] == bound:
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
    """Drop set members while the violation persists."""
    if isinstance(element, SetEl):
        current = element
        changed = True
        while changed:
            changed = False
            for m in current.members:
                candidate = fset(x for x in current.members if x is not m)
                if still_fails(candidate):
                    current = candidate
                    changed = True
                    break
        return current
    return element


# ---------------------------------------------------------------------------
# The individual checks


def _run_check(name, claimed, cfg, one_trial):
    for trial in range(cfg.trials):
        rng = _rng(cfg, name, trial)
        cex = one_trial(rng, trial)
        if cex is not None:
            return CheckResult(name, claimed, trial + 1, cex)
    return CheckResult(name, claimed, cfg.trials, None)


def check_axioms(lifting: LiftingSpec, functor: FunctorSpec,
                 cfg: AxiomConfig = AxiomConfig()) -> AxiomReport:
    """Run the whole randomized law suite against one lifting instance."""
    require_match(lifting, functor)
    slack = approximation_slack(lifting)
    converse_claimed = claims_converse(lifting, functor)

    def value(rel, t1, t2):
        return lift_value(lifting, functor, rel, t1, t2)

    def le(x, y):
        return x <= y + slack

    def eq(x, y):
        return abs(x - y) <= 2 * slack if slack else x == y

    def fail(check, trial, description, **data):
        rendered = {
            k: (render_element(v) if hasattr(v, "_canonical_key") else
                [[str(x) for x in row] for row in v.values] if isinstance(v, FuzzyRel)
                else str(v))
            for k, v in data.items()
        }
        return Counterexample(check, trial, description, rendered)

    def l1(rng, trial):
        a = rand_carrier(rng, "a", cfg.max_size)
        b = rand_carrier(rng, "b", cfg.max_size)
        r2 = rand_rel(rng, a, b)
        r1 = r2.map_entries(lambda v: sat_sub(v, rand_unit(rng)))
        t1 = rand_element(rng, functor, a)
        t2 = rand_element(rng, functor, b)
        if le(value(r1, t1, t2), value(r2, t1, t2)):
            return None

        def fails(cand_r1):
            return not le(value(cand_r1, t1, t2), value(r2, t1, t2))

        r1 = _shrink_rel(r1, fails)
        return fail("L1", trial, "smaller relation lifted to a larger value",
                    smaller=r1, larger=r2, t1=t1, t2=t2)

    def l2(rng, trial):
        a = rand_carrier(rng, "a", cfg.max_size)
        b = rand_carrier(rng, "b", cfg.max_size)
        c = rand_carrier(rng, "c", cfg.max_size)
        r = rand_rel(rng, a, b)
        s = rand_rel(rng, b, c)
        t1 = rand_element(rng, functor, a)
        t2 = rand_element(rng, functor, b)
        t3 = rand_element(rng, functor, c)
        lhs = value(compose(r, s), t1, t3)
        rhs = sat_add(value(r, t1, t2), value(s, t2, t3))
        if le(lhs, rhs):
            return None

        def fails(cand_r):
            return not le(
                value(compose(cand_r, s), t1, t3),
                sat_add(value(cand_r, t1, t2), value(s, t2, t3)),
            )

        r = _shrink_rel(r, fails)
        return fail("L2", trial, "composite relation lifted above the composed bound",
                    r=r, s=s, t1=t1, t2=t2, t3=t3)

    def l3(rng, trial):
        a = rand_carrier(rng, "a", cfg.max_size)
        b = rand_carrier(rng, "b", cfg.max_size)
        f = rand_function(rng, a, b)
        t1 = rand_element(rng, functor, a)
        mapped = apply_map(lambda x: f[x], t1)
        gr = graph(f, a, b)
        forward = value(gr, t1, mapped)
        backward = value(converse(gr), mapped, t1)
        if le(forward, ZERO) and le(backward, ZERO):
            return None
        return fail("L3", trial, "graph of a function lifted to a nonzero value",
                    f=str(f), t1=t1, mapped=mapped,
                    forward=forward, backward=backward)

    def l4(rng, trial):
        a = rand_carrier(rng, "a", cfg.max_size)
        den = rng.choice(_DENOMS[1:])
        eps = Fraction(rng.randint(1, den), den)
        t = rand_element(rng, functor, a)
        got = value(diagonal(a, eps), t, t)
        if le(got, eps):
            return None

        def fails(cand_t):
            return not le(value(diagonal(a, eps), cand_t, cand_t), eps)

        t = _shrink_element(t, fails)
        return fail("L4", trial, "epsilon-diagonal lifted above epsilon",
                    eps=eps, t=t, got=got)

    def l0(rng, trial):
        a = rand_carrier(rng, "a", cfg.max_size)
        b = rand_carrier(rng, "b", cfg.max_size)
        r = rand_rel(rng, a, b)
        t1 = rand_element(rng, functor, a)
        t2 = rand_element(rng, functor, b)
        fwd = value(r, t1, t2)
        bwd = value(converse(r), t2, t1)
        if eq(fwd, bwd):
            return None

        def fails(cand_r):
            return not eq(value(cand_r, t1, t2), value(converse(cand_r), t2, t1))

        r = _shrink_rel(r, fails)
        fwd = value(r, t1, t2)
        bwd = value(converse(r), t2, t1)
        t1 = _shrink_element(t1, lambda cand: not eq(
            value(r, cand, t2), value(converse(r), t2, cand)))
        t2 = _shrink_element(t2, lambda cand: not eq(
            value(r, t1, cand), value(converse(r), cand, t1)))
        return fail("L0", trial, "lifting does not preserve converse",
                    r=r, t1=t1, t2=t2,
                    forward=value(r, t1, t2), backward=value(converse(r), t2, t1))

    def naturality(rng, trial):
        a = rand_carrier(rng, "a", cfg.max_size)
        b = rand_carrier(rng, "b", cfg.max_size)
        a2 = rand_carrier(rng, "u", cfg.max_size)
        b2 = rand_carrier(rng, "v", cfg.max_size)
        f = rand_function(rng, a, a2)
        g = rand_function(rng, b, b2)
        r = rand_rel(rng, a2, b2)
        reindexed = FuzzyRel.from_function(a, b, lambda x, y: r.at(f[x], g[y]))
        t1 = rand_element(rng, functor, a)
        t2 = rand_element(rng, functor, b)
        mapped1 = apply_map(lambda x: f[x], t1)
        mapped2 = apply_map(lambda y: g[y], t2)
        lhs = value(reindexed, t1, t2)
        rhs = value(r, mapped1, mapped2)
        if eq(lhs, rhs):
            return None
        return fail("naturality", trial, "reindexing does not commute with lifting",
                    r=r, f=str(f), g=str(g), t1=t1, t2=t2, lhs=lhs, rhs=rhs)

    def hemimetric(rng, trial):
        a = rand_carrier(rng, "a", cfg.max_size)
        symmetric = converse_claimed
        d = rand_hemimetric(rng, a, symmetric)
        t = rand_element(rng, functor, a)
        t1 = rand_element(rng, functor, a)
        t2 = rand_element(rng, functor, a)
        t3 = rand_element(rng, functor, a)
        if not le(value(d, t, t), ZERO):
            return fail("hemimetric", trial, "lifted hemimetric lost reflexivity",
                        d=d, t=t, got=value(d, t, t))
        lhs = value(d, t1, t3)
        rhs = sat_add(value(d, t1, t2), value(d, t2, t3))
        if not le(lhs, rhs):
            return fail("hemimetric", trial, "lifted hemimetric lost the triangle inequality",
                        d=d, t1=t1, t2=t2, t3=t3, lhs=lhs, rhs=rhs)
        if symmetric and not eq(value(d, t1, t2), value(d, t2, t1)):
            return fail("hemimetric", trial, "lifted pseudometric lost symmetry",
                        d=d, t1=t1, t2=t2)
        return None

    checks = [
        _run_check("L1", True, cfg, l1),
        _run_check("L2", True, cfg, l2),
        _run_check("L3", True, cfg, l3),
        _run_check("L4", True, cfg, l4),
        _run_check("naturality", True, cfg, naturality),
        _run_check("hemimetric", True, cfg, hemimetric),
        _run_check("L0", converse_claimed, cfg, l0),
    ]
    return AxiomReport(tuple(checks))

"""The incremental fixpoint and the support-restricted grid search against
their full-recompute oracles in tests/oracles.py.

The fixpoint re-lifts a pair only when an entry it reads has changed, so
its iterates must be those of the loop that re-lifts every pair: whole
DistanceResults, traces included, and chains are compared for equality.
Systems come from fixed seeds at the sizes fixed in CASES (see
tests/conftest.py), and the cases cover every entry of LIFTING_KINDS and
two transport nodes sharing one chain's warm starts.  Carriers of more
than ten states make index order differ from the string order of the
state ids.
"""

import random
from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit import distance, liftings, transport
from laxkit.axioms import rand_carrier, rand_rel
from laxkit.functors import base
from laxkit.liftings import LIFTING_KINDS, grid_kantorovich_value
from tests.conftest import (
    CASES,
    DIST,
    H_SYM,
    KANT,
    LABELLED_DIST,
    SET,
    count_modality_tables,
    kinds,
    labelled,
    rand_system,
    systems,
)
from tests.oracles import (
    full_recompute_chain,
    full_recompute_distance,
    unrestricted_grid_value,
)

SEEDS = (0, 1, 2)
RUNS = (  # (tol, max_iter): exact stop, tolerance stop, cut-off
    (F(0), 25),
    (F(1, 64), 25),
    (F(0), 2),
)


def test_cases_cover_every_lifting_kind():
    assert {k for lifting, *_ in CASES.values() for k in kinds(lifting)} == set(LIFTING_KINDS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_distance_equals_full_recompute(name):
    for seed in SEEDS:
        lifting, sys_a, sys_b = systems(name, seed)
        for tol, max_iter in RUNS:
            for keep_trace in (True, False):
                got = lk.behavioural_distance(lifting, sys_a, sys_b, tol=tol,
                                              max_iter=max_iter, keep_trace=keep_trace)
                want = full_recompute_distance(lifting, sys_a, sys_b, tol=tol,
                                               max_iter=max_iter, keep_trace=keep_trace)
                assert got == want, (seed, tol, max_iter, keep_trace)


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_equals_full_recompute(name):
    for seed in SEEDS:
        lifting, sys_a, sys_b = systems(name, seed)
        for steps in (0, 1, 6):
            assert lk.distance_chain(lifting, sys_a, sys_b, steps) == \
                full_recompute_chain(lifting, sys_a, sys_b, steps), (seed, steps)


def test_the_cases_iterate():
    # the comparisons above would be weak if every chain stopped at once
    iterations = [lk.behavioural_distance(*systems(name, 0), max_iter=25).iterations
                  for name in CASES]
    assert sum(n >= 3 for n in iterations) >= len(CASES) // 2


GRID_FUNCTORS = {
    "pfin": (SET, ("dia", "box")),
    "dfin": (DIST, ("E",)),
    "maybe-dfin": (lk.Maybe(DIST), ("dia", "box")),
}


@pytest.mark.parametrize("functor_name", sorted(GRID_FUNCTORS))
@pytest.mark.parametrize("step", [F(1, 2), F(1, 3), F(1, 4)])
def test_grid_equals_unrestricted_search(functor_name, step):
    functor, names = GRID_FUNCTORS[functor_name]
    modalities = [functor.standard_modalities()[n] for n in names]
    rng = random.Random(f"grid/{functor_name}/{step}")
    for _ in range(34):
        a, b = rand_carrier(rng, "a", 3), rand_carrier(rng, "b", 3)
        rel = rand_rel(rng, a, b)
        t1, t2 = functor.random_element(rng, a), functor.random_element(rng, b)
        value = grid_kantorovich_value(modalities, step, rel.view(), t1, t2)
        assert value == unrestricted_grid_value(modalities, step, rel, t1, t2)
        # the dependency rule: entries off base(t1) x base(t2) do not matter
        block = {(x, y) for x in base(t1) for y in base(t2)}
        other = lk.FuzzyRel.from_function(
            a, b, lambda x, y: rel.at(x, y) if (x, y) in block else rng.choice((F(0), F(1))))
        assert grid_kantorovich_value(modalities, step, other.view(), t1, t2) == value


def test_lift_calls_follow_the_dependency_rule(monkeypatch):
    def frame(succ):
        return lk.Coalgebra.of(SET, lk.Carrier(tuple(succ)), {
            s: lk.fset(lk.IdEl(t) for t in ts) for s, ts in succ.items()
        })

    # a2 and b3 deadlock; b2 loops
    sys_a = frame({"a0": ["a1"], "a1": ["a0", "a2"], "a2": []})
    sys_b = frame({"b0": ["b1"], "b1": ["b2", "b3"], "b2": ["b2"], "b3": []})
    oracle = full_recompute_distance(H_SYM, sys_a, sys_b, keep_trace=True)
    states_a, states_b = sys_a.carrier.elements, sys_b.carrier.elements

    # step 1 lifts every pair; step n > 1 the pairs reading an entry that
    # step n - 1 changed
    predicted = len(states_a) * len(states_b)
    for before, after in zip(oracle.trace, oracle.trace[1:-1]):
        changed = {(k, l) for k in states_a for l in states_b
                   if before.at(k, l) != after.at(k, l)}
        predicted += sum(
            any((k, l) in changed for k in base(sys_a.step(a)) for l in base(sys_b.step(b)))
            for a in states_a for b in states_b
        )

    calls = []
    real = distance.lift_value

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distance, "lift_value", counted)
    result = lk.behavioural_distance(H_SYM, sys_a, sys_b, keep_trace=True)
    assert result == oracle
    assert result.iterations >= 3
    assert len(calls) == predicted
    assert len(calls) < result.iterations * len(states_a) * len(states_b)


def test_transport_starts_cold_once_per_pair_per_chain(monkeypatch):
    # every step after the first resumes each pair's solve from the basis
    # the step before left, so the northwest-corner starts count the pairs
    # of distributions, not the steps
    lifting, sys_a, sys_b = labelled(KANT), *[
        rand_system(random.Random(f"warm/{side}"), LABELLED_DIST, side, 5) for side in "ab"]
    solves, starts = [], []
    real_solve, real_start = liftings.min_cost_transport, transport._northwest_corner
    monkeypatch.setattr(liftings, "min_cost_transport",
                        lambda *args: solves.append(args) or real_solve(*args))
    monkeypatch.setattr(transport, "_northwest_corner",
                        lambda *args: starts.append(args) or real_start(*args))
    pairs = len(sys_a.carrier) * len(sys_b.carrier)

    oracle = full_recompute_distance(lifting, sys_a, sys_b, max_iter=8, keep_trace=True)
    assert len(starts) == len(solves)  # plain relations solve cold
    solves.clear()
    starts.clear()
    for chains in (1, 2):
        result = lk.behavioural_distance(lifting, sys_a, sys_b, max_iter=8, keep_trace=True)
        assert result == oracle
        assert len(starts) == chains * pairs  # each chain starts cold
    assert result.iterations >= 3
    assert len(solves) > len(starts)


def test_grid_resolves_its_modalities_once(monkeypatch):
    # the shape check and every lift read the one table the functor node
    # keeps, so the number of tables built does not grow with the lifts
    lifting, sys_a, sys_b = systems("grid-labelled", 0)
    tables, lifts = count_modality_tables(monkeypatch), []
    real_lift = distance.lift_value
    monkeypatch.setattr(distance, "lift_value", lambda *args: lifts.append(args) or real_lift(*args))
    counts = []
    for max_iter in (1, 4):
        tables.clear()
        lifts.clear()
        functor = lk.Pair(*[getattr(sys_a.functor, name) for name in ("left", "right")])
        fresh = lk.KantorovichGrid(lifting.modality_names, lifting.step)
        lk.behavioural_distance(fresh, lk.Coalgebra(functor, sys_a.carrier, sys_a.alpha),
                                lk.Coalgebra(functor, sys_b.carrier, sys_b.alpha),
                                max_iter=max_iter)
        counts.append((len(lifts), len(tables)))
    (few_lifts, few_tables), (many_lifts, many_tables) = counts
    assert few_lifts < many_lifts
    assert few_tables == many_tables == 1

"""The incremental fixpoint and the support-restricted grid search against
their full-recompute oracles in tests/oracles.py, and the grid search on
integers against the same search on Fractions.

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
import tracemalloc
from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit import distance, liftings, transport
from laxkit.axioms import rand_carrier, rand_rel
from laxkit.functors import base
from laxkit.liftings import LIFTING_KINDS, grid_kantorovich_value
from laxkit.moss import moss_modality
from tests.conftest import (
    CASES,
    DIST,
    H_SYM,
    KANT,
    LABELLED_DIST,
    SET,
    ZOO,
    count_modality_tables,
    kinds,
    labelled,
    rand_system,
    systems,
)
from tests.oracles import (
    fraction_grid_value,
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


def mixed_rel(rng, a, b):
    """A relation whose entries are drawn over several denominators."""
    def entry(x, y):
        den = rng.choice((2, 3, 5, 7, 12))
        return F(rng.randint(0, den), den)
    return lk.FuzzyRel.from_function(a, b, entry)


# name -> (functor, modality names, elements with an empty base or None)
INTEGER_GRID = {
    "pfin": (SET, ("dia", "box"), lk.fset([])),
    "dfin": (DIST, ("E",), None),
    "maybe-dfin": (lk.Maybe(DIST), ("dia", "box"), lk.NOTHING),
    # nullary label readouts next to the set modalities
    "labelled-pfin": (ZOO[3], ("at-1/2", "dia", "far-0", "box"), None),
}


@pytest.mark.parametrize("name", sorted(INTEGER_GRID))
@pytest.mark.parametrize("step", [F(1, 2), F(1, 3), F(1, 4), F(1, 5)])
def test_integer_grid_equals_the_fraction_search(name, step):
    functor, names, empty = INTEGER_GRID[name]
    modalities = [functor.standard_modalities()[n] for n in names]
    rng = random.Random(f"integer-grid/{name}/{step}")
    for trial in range(30):
        a, b = rand_carrier(rng, "a", 3), rand_carrier(rng, "b", 3)
        rel = mixed_rel(rng, a, b)
        t1, t2 = functor.random_element(rng, a), functor.random_element(rng, b)
        if empty is not None and trial % 5 == 0:
            t1 = empty  # an empty left set, then an empty right one
        if empty is not None and trial % 5 == 1:
            t2 = empty
        assert grid_kantorovich_value(modalities, step, rel.view(), t1, t2) == \
            fraction_grid_value(modalities, step, rel.view(), t1, t2), (trial, t1, t2)


@pytest.mark.parametrize("lifting, functor", [(H_SYM, SET), (KANT, DIST)])
def test_integer_grid_equals_the_fraction_search_on_moss_modalities(lifting, functor):
    # a Moss modality takes one table per placeholder: up to three of them
    # here, each combination of tables against its companions
    rng = random.Random(f"integer-grid/moss/{lifting.kind}")
    arities = set()
    for trial in range(12):
        step = F(1, 2 + trial % 2)
        a, b = rand_carrier(rng, "a", 2), rand_carrier(rng, "b", 3)
        rel = mixed_rel(rng, a, b)
        t1, t2 = functor.random_element(rng, a), functor.random_element(rng, b)
        modalities = [moss_modality(functor.random_element(rng, b), lifting, functor)
                      for _ in range(2)] + [SET.standard_modalities()["dia"]] * (functor is SET)
        arities |= {lam.arity for lam in modalities}
        assert grid_kantorovich_value(modalities, step, rel.view(), t1, t2) == \
            fraction_grid_value(modalities, step, rel.view(), t1, t2), trial
    assert 2 in arities


def test_grid_builds_each_companion_once_per_left_table(monkeypatch):
    # dia and box read one table and one companion; a table is not visited
    # again per modality
    visits = []
    real = liftings._left_tables

    def counting(*args):
        for table in real(*args):
            visits.append(table)
            yield table

    monkeypatch.setattr(liftings, "_left_tables", counting)
    a, b = lk.Carrier.of("a1", "a2", "a3"), lk.Carrier.of("b1", "b2")
    rel = mixed_rel(random.Random("companions"), a, b)
    t1 = lk.fset([lk.IdEl(x) for x in a.elements])
    t2 = lk.fset([lk.IdEl(y) for y in b.elements])
    modalities = [SET.standard_modalities()[n] for n in ("dia", "box")]
    value = grid_kantorovich_value(modalities, F(1, 4), rel.view(), t1, t2)
    assert value == fraction_grid_value(modalities, F(1, 4), rel.view(), t1, t2)
    assert len(visits) == 5 ** 3
    assert len({tuple(table.values()) for table, _ in visits}) == 5 ** 3


def grid_peak_bytes() -> int:
    # crisp entries keep the value at 0, so every table with a positive left
    # value reads its right-hand side, and the 101 ** 2 companions differ
    a, b = lk.Carrier.of("a1", "a2"), lk.Carrier.of("b1", "b2")
    rel = lk.FuzzyRel(a, b, ((F(0), F(1)), (F(1), F(0))))
    t1 = lk.fset([lk.IdEl("a1"), lk.IdEl("a2")])
    t2 = lk.fset([lk.IdEl("b1"), lk.IdEl("b2")])
    modalities = [SET.standard_modalities()[n] for n in ("dia", "box")]
    tracemalloc.start()
    try:
        assert grid_kantorovich_value(modalities, F(1, 100), rel.view(), t1, t2) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_memory_stays_bounded_at_a_fine_step(monkeypatch):
    bounded = grid_peak_bytes()
    assert bounded < 2_000_000
    # the bound is the memo's: unbounded, it keeps every companion (0.28 MB
    # against 2.2 MB on CPython 3.11)
    monkeypatch.setattr(liftings, "_GRID_MEMO", 10 ** 9)
    assert grid_peak_bytes() > 4 * bounded


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

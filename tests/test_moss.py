import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit import (
    Carrier,
    FuzzyRel,
    IdEl,
    base,
    companion,
    distance_chain,
    evaluate,
    fdist,
    fset,
    lift_value,
    logical_distance,
    moss_modality,
    separation_witness,
    synthesize,
    synthesize_levels,
    witness_value,
)
from laxkit import logic
from laxkit.axioms import rand_carrier, rand_rel, rand_unit
from laxkit.jsonio import encode_formula
from laxkit.logic import FORMULA_KINDS, semantics
from laxkit.moss import tree_size
from laxkit.systems import disjoint_union
from tests.conftest import CASES, number_const, systems
from tests.oracles import per_target_logical_distance
from tests.test_incremental import SEEDS

SET_FUNCTOR = lk.PFin(lk.Id())
H_SYM = lk.Hausdorff("sym", lk.IdLift())


def labelled_functor_and_lifting():
    const = number_const(("0", "1/5", "2/5", "7/10", "4/5"))
    functor = lk.Pair(const, lk.PFin(lk.Id()))
    lifting = lk.PairSum(F(1, 2), F(1, 2), lk.ConstLift(), lk.Hausdorff("sym", lk.IdLift()))
    return functor, lifting


def rand_labelled_system(rng, functor, size):
    labels = functor.left.labels.elements
    carrier = Carrier(tuple(f"s{i}" for i in range(size)))
    alpha = {}
    for s in carrier.elements:
        succs = [x for x in carrier.elements if rng.random() < 0.4]
        alpha[s] = lk.PairEl(
            lk.ConstEl(rng.choice(labels)),
            fset(IdEl(x) for x in succs),
        )
    return lk.Coalgebra.of(functor, carrier, alpha)


def identity_tables(carrier):
    """The crisp identity relation as predicate tables, one per state y:
    f_y(x) = 0 where x = y and 1 elsewhere."""
    return tuple({x: F(int(x != y)) for x in carrier.elements} for y in carrier.elements)


def test_presentation_round_trip_examples():
    # an element presents its Moss modality over its own leaves, unrenamed;
    # fed the identity relation's tables, the modality reads the lifted
    # discrete distance to the element, 0 at the element itself
    carrier = Carrier.of("a1", "a2", "a3")
    t = fset([IdEl("a2"), IdEl("a3")])
    mod = moss_modality(t, H_SYM, SET_FUNCTOR)
    assert isinstance(mod, lk.PredicateLifting)
    assert (mod.arity, mod.monotone, mod.nonexpansive, mod.dual_name) == (2, True, True, None)
    identity = identity_tables(carrier)[1:]  # the tables of a2 and a3
    assert mod.evaluator(t, identity) == 0
    assert mod.evaluator(fset([IdEl("a1"), IdEl("a2")]), identity) == 1

    functor, lifting = labelled_functor_and_lifting()
    labelled = lk.PairEl(lk.ConstEl("7/10"), t)
    mod = moss_modality(labelled, lifting, functor)
    assert mod.arity == 2 and mod.evaluator(labelled, identity) == 0
    relabelled = lk.PairEl(lk.ConstEl("1/5"), t)
    assert mod.evaluator(relabelled, identity) == F(1, 2) * F(1, 2)


def test_presentation_round_trip_random():
    rng = random.Random("present")
    zoo = [(SET_FUNCTOR, H_SYM), (lk.DFin(lk.Id()), lk.KantorovichD(lk.IdLift())),
           (lk.Pair(lk.PFin(lk.Id()), lk.DFin(lk.Id())),
            lk.PairMax(H_SYM, lk.KantorovichD(lk.IdLift())))]
    for functor, lifting in zoo:
        for _ in range(25):
            carrier = rand_carrier(rng, "a", 4)
            t = functor.random_element(rng, carrier)
            mod = moss_modality(t, lifting, functor)
            assert mod.arity == len(base(t))
            identity = dict(zip(carrier.elements, identity_tables(carrier)))
            assert mod.evaluator(t, tuple(identity[y] for y in base(t))) == 0


def test_moss_eval_against_direct_hausdorff():
    rng = random.Random("moss-direct")
    for _ in range(40):
        carrier = rand_carrier(rng, "x", 4)
        t0 = fset(IdEl(y) for y in rng.sample(("y1", "y2", "y3"), rng.randint(1, 3)))
        mod = moss_modality(t0, H_SYM, SET_FUNCTOR)
        args = tuple(
            {x: rand_unit(rng) for x in carrier.elements} for _ in range(mod.arity)
        )
        t = SET_FUNCTOR.random_element(rng, carrier)
        membership = FuzzyRel(
            carrier, Carrier(base(t0)),
            tuple(tuple(f[x] for f in args) for x in carrier.elements),
        )
        assert mod.evaluator(t, args) == lift_value(H_SYM, SET_FUNCTOR, membership.view(), t, t0)


def test_moss_eval_degenerate_singleton_presentation():
    mod = moss_modality(fset([IdEl("y")]), H_SYM, SET_FUNCTOR)
    f = {"x": F(1, 3), "y": F(3, 4)}
    t = fset([IdEl("x"), IdEl("y")])
    # one-column membership relation: sup-inf collapses to max into the column
    assert mod.evaluator(t, (f,)) == F(3, 4)


def test_moss_eval_transport_hand_case():
    functor = lk.DFin(lk.Id())
    lifting = lk.KantorovichD(lk.IdLift())
    mod = moss_modality(fdist([(IdEl("y1"), F(1, 2)), (IdEl("y2"), F(1, 2))]), lifting, functor)
    f1 = {"x": F(1, 4)}
    f2 = {"x": F(3, 4)}
    t = fdist([(IdEl("x"), F(1))])
    # the point mass must split between the two placeholders
    assert mod.evaluator(t, (f1, f2)) == F(1, 2) * F(1, 4) + F(1, 2) * F(3, 4)


def test_moss_eval_refuses_bad_tables():
    mod = moss_modality(fset([IdEl("y1"), IdEl("y2")]), H_SYM, SET_FUNCTOR)
    t = fset([IdEl("x")])
    with pytest.raises(lk.StructureError, match="derived modality takes 2 arguments, got 1"):
        mod.evaluator(t, ({"x": F(0)},))
    with pytest.raises(lk.StructureError, match="outside the unit interval"):
        mod.evaluator(t, ({"x": F(0)}, {"x": F(3, 2)}))


def test_separation_witness_achieves_lift():
    rng = random.Random("sep")
    functor, lifting = labelled_functor_and_lifting()
    cases = [(SET_FUNCTOR, H_SYM), (functor, lifting)]
    for fun, lif in cases:
        for _ in range(50):
            a = rand_carrier(rng, "a", 4)
            b = rand_carrier(rng, "b", 4)
            rel = rand_rel(rng, a, b)
            t1 = fun.random_element(rng, a)
            t2 = fun.random_element(rng, b)
            direct = lift_value(lif, fun, rel.view(), t1, t2)
            assert witness_value(lif, fun, rel, t1, t2) == direct


def test_random_witnesses_never_exceed_lift():
    rng = random.Random("bound")
    functor, lifting = labelled_functor_and_lifting()
    for fun, lif in ((SET_FUNCTOR, H_SYM), (functor, lifting)):
        for _ in range(100):
            a = rand_carrier(rng, "a", 4)
            b = rand_carrier(rng, "b", 4)
            rel = rand_rel(rng, a, b)
            t1 = fun.random_element(rng, a)
            t2 = fun.random_element(rng, b)
            idx_carrier = rand_carrier(rng, "i", 3)
            shape = fun.random_element(rng, idx_carrier)
            mod = moss_modality(shape, lif, fun)
            left = tuple(
                {x: rand_unit(rng) for x in a.elements} for _ in range(mod.arity)
            )
            right = tuple(companion(rel, f) for f in left)
            value = lk.sat_sub(mod.evaluator(t1, left), mod.evaluator(t2, right))
            assert value <= lift_value(lif, fun, rel.view(), t1, t2)


def test_grid_oracle_over_the_witness_modality_brackets_every_exact_lift():
    # the Kantorovich extension for the Moss modalities: the generic grid
    # oracle, given only the separation witness's modality, lands within
    # one grid step below the lifted value
    rng = random.Random("grid-witness")
    step = F(1, 2)
    exact = sorted(name for name, (lifting, *_) in CASES.items()
                   if lifting.approximation_slack() == 0)
    for name in exact:
        lifting, functor, _, _ = CASES[name]
        for _ in range(10):
            a, b = rand_carrier(rng, "a", 2), rand_carrier(rng, "b", 2)
            rel = rand_rel(rng, a, b)
            t1, t2 = functor.random_element(rng, a), functor.random_element(rng, b)
            direct = lift_value(lifting, functor, rel.view(), t1, t2)
            mod, _, _ = separation_witness(lifting, functor, rel, t2)
            value = lk.grid_kantorovich_value([mod], step, rel.view(), t1, t2)
            assert direct - step <= value <= direct, (name, t1, t2)


def test_synthesis_base_cases(labelled_frames):
    sys_a, sys_b, functor, lifting, _ = labelled_frames
    union, _, inj2 = disjoint_union(sys_a, sys_b)
    phi0 = synthesize(union, inj2["b1"], 0)
    assert phi0 == lk.FormulaConst(F(0))
    assert all(
        evaluate(phi0, union, x, lifting) == 0 for x in union.carrier.elements
    )


def formula_nodes(encoded) -> int:
    """The formula nodes of a JSON formula, counted as written."""
    if isinstance(encoded, list):
        return sum(map(formula_nodes, encoded))
    if not isinstance(encoded, dict):
        return 0
    return (encoded.get("kind") in FORMULA_KINDS) + sum(map(formula_nodes, encoded.values()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_size_counts_the_nodes_the_encoding_writes(name):
    _, sys_a, sys_b = systems(name, 0)
    union, _, _ = disjoint_union(sys_a, sys_b)
    for rank in range(5):
        for target in union.carrier.elements:
            formula = synthesize(union, target, rank)
            assert tree_size(formula) == formula_nodes(encode_formula(formula, union.functor))


def test_synthesis_matches_chain(labelled_frames):
    sys_a, sys_b, functor, lifting, _ = labelled_frames
    union, inj1, inj2 = disjoint_union(sys_a, sys_b)
    chain = distance_chain(lifting, union, union, 3)
    levels = synthesize_levels(union, 3)
    for k in range(4):
        for target in union.carrier.elements:
            table = semantics(levels[k][target], union, lifting)
            for x in union.carrier.elements:
                assert table[x] == chain[k].at(x, target)


@pytest.mark.parametrize("name", sorted(CASES))
def test_levels_for_targets_hold_the_full_levels_formulas_where_reached(name):
    """Given targets, synthesize_levels builds the top level over the
    targets and each level below over the successors of the one above, and
    every formula it builds is the one the full levels hold; the second
    system's states, logical_distance's targets, reach none of the first."""
    _, sys_a, sys_b = systems(name, 0)
    union, _, inj2 = disjoint_union(sys_a, sys_b)
    side_b = [inj2[b] for b in sys_b.carrier.elements]
    for rank in range(4):
        full = synthesize_levels(union, rank)
        for targets in [[t] for t in union.carrier.elements] + [side_b]:
            levels = synthesize_levels(union, rank, targets)
            assert len(levels) == rank + 1 and list(levels[rank]) == targets
            for k in range(rank):
                assert set(levels[k]) == {
                    x for s in levels[k + 1] for x in union.step(s).leaves()}
            for k, level in enumerate(levels):
                for s, formula in level.items():
                    assert formula == full[k][s]
        assert all(s in side_b for level in synthesize_levels(union, rank, side_b)
                   for s in level)


def test_synthesized_gap_is_the_distance(labelled_frames):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    union, inj1, inj2 = disjoint_union(sys_a, sys_b)
    phi = synthesize(union, inj2["b1"], 2)
    gap = lk.sat_sub(
        evaluate(phi, union, inj1["a1"], lifting),
        evaluate(phi, union, inj2["b1"], lifting),
    )
    assert gap == F(1, 5)
    assert evaluate(phi, union, inj2["b1"], lifting) == 0


def test_leaf_target_single_step_gap(labelled_frames):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    union, inj1, inj2 = disjoint_union(sys_a, sys_b)
    # b3 has no successors: the rank-1 gap at a2 is half the label difference
    phi = synthesize(union, inj2["b3"], 1)
    gap = lk.sat_sub(
        evaluate(phi, union, inj1["a2"], lifting),
        evaluate(phi, union, inj2["b3"], lifting),
    )
    assert gap == F(1, 2) * abs(F("1/5") - F("0"))


def test_logical_distance_examples(labelled_frames):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    rank0 = logical_distance(sys_a, sys_b, lifting, 0)
    assert all(v == 0 for row in rank0.values for v in row)
    rank2 = logical_distance(sys_a, sys_b, lifting, 2)
    assert rank2.at("a1", "b1") == F(1, 5)
    chain = distance_chain(lifting, sys_a, sys_b, 2)
    assert rank2 == chain[2]


def test_logical_distance_matches_chain_on_random_systems():
    rng = random.Random("hm")
    functor, lifting = labelled_functor_and_lifting()
    for _ in range(6):
        sys_a = rand_labelled_system(rng, functor, rng.randint(1, 4))
        sys_b = rand_labelled_system(rng, functor, rng.randint(1, 4))
        chain = distance_chain(lifting, sys_a, sys_b, 5)
        for n in range(6):
            assert logical_distance(sys_a, sys_b, lifting, n) == chain[n]


@pytest.mark.parametrize("name", sorted(n for n, (lifting, *_) in CASES.items()
                                         if lifting.kind != "kantorovich-grid"))
def test_logical_distance_equals_chain_on_every_case(name):
    # criterion 7 beyond the fixtures: every exact lifting kind, sizes fixed in CASES
    for seed in SEEDS:
        lifting, sys_a, sys_b = systems(name, seed)
        chain = distance_chain(lifting, sys_a, sys_b, 3)
        for n in range(4):
            got = logical_distance(sys_a, sys_b, lifting, n)
            assert got == chain[n], (seed, n)
            assert got == per_target_logical_distance(sys_a, sys_b, lifting, n), (seed, n)


def test_logical_distance_evaluates_each_formula_once(monkeypatch):
    # one lift per union state for each distinct synthesized formula, of
    # which there are at most |B| per rank; the per-target route repeats
    # the shared lower ranks for every target
    calls = []
    real = logic.lift_value
    monkeypatch.setattr(logic, "lift_value", lambda *args: calls.append(args) or real(*args))
    lifting, sys_a, sys_b = systems("hausdorff-sym", 0)
    size_a, size_b = len(sys_a.carrier), len(sys_b.carrier)
    rank_n = 3
    got = logical_distance(sys_a, sys_b, lifting, rank_n)
    shared = len(calls)
    calls.clear()
    assert per_target_logical_distance(sys_a, sys_b, lifting, rank_n) == got
    assert shared <= rank_n * (size_a + size_b) * size_b
    assert shared < len(calls)


def random_structural_formula(rng, functor, carrier, depth):
    """Random formula mixing connectives with structural modalities."""
    if depth == 0 or rng.random() < 0.25:
        return lk.FormulaConst(F(rng.randint(0, 8), 8))
    roll = rng.randrange(5)
    if roll == 0:
        return lk.And(random_structural_formula(rng, functor, carrier, depth - 1),
                      random_structural_formula(rng, functor, carrier, depth - 1))
    if roll == 1:
        return lk.Or(random_structural_formula(rng, functor, carrier, depth - 1),
                     random_structural_formula(rng, functor, carrier, depth - 1))
    if roll == 2:
        return lk.PlusC(random_structural_formula(rng, functor, carrier, depth - 1),
                        F(rng.randint(0, 4), 4))
    if roll == 3:
        return lk.MinusC(random_structural_formula(rng, functor, carrier, depth - 1),
                         F(rng.randint(0, 4), 4))
    shape = functor.random_element(rng, carrier)
    subs = {
        x: random_structural_formula(rng, functor, carrier, depth - 1)
        for x in carrier.elements
    }
    return lk.MossDelta(shape.map(lambda x: subs[x]))


def test_probabilistic_synthesis_end_to_end(prob_deadlock):
    # structural modalities over optional distributions drive the exact
    # transport solver inside formula evaluation
    system, functor, lifting = prob_deadlock
    chain = distance_chain(lifting, system, system, 4)
    for n in range(5):
        assert logical_distance(system, system, lifting, n) == chain[n]
    result = lk.behavioural_distance(lifting, system, system)
    assert result.converged and result.residual == 0
    assert lk.is_pseudometric(result.matrix)
    # the deadlock state is maximally far from both live states
    assert result.matrix.at("u0", "u2") == 1
    assert result.matrix.at("u1", "u2") == 1
    union, inj1, inj2 = disjoint_union(system, system)
    phi = synthesize(union, inj2["u1"], 3)
    for x in system.carrier.elements:
        got = evaluate(phi, union, inj1[x], lifting)
        assert got == result.matrix.at(x, "u1")


def test_structural_formulas_respect_rank_distances():
    # the value gap of any rank-k formula is bounded by the k-step distance
    rng = random.Random("moss-nonexp-logic")
    functor, lifting = labelled_functor_and_lifting()
    for _ in range(4):
        sys_a = rand_labelled_system(rng, functor, 3)
        sys_b = rand_labelled_system(rng, functor, 3)
        union, inj1, inj2 = disjoint_union(sys_a, sys_b)
        chain = distance_chain(lifting, sys_a, sys_b, 4)
        for _ in range(25):
            phi = random_structural_formula(
                rng, functor, union.carrier, rng.randint(1, 4)
            )
            k = phi.rank()
            table = semantics(phi, union, lifting)
            for a in sys_a.carrier.elements:
                for b in sys_b.carrier.elements:
                    gap = lk.sat_sub(table[inj1[a]], table[inj2[b]])
                    assert gap <= chain[k].at(a, b)


def test_logical_distance_on_integer_ids():
    # both systems use the ids 0..2, so the union must freshen non-string ids
    functor = lk.Pair(number_const(("0", "1/2", "1")), SET_FUNCTOR)
    lifting = lk.PairSum(F(1, 2), F(1, 2), lk.ConstLift(), H_SYM)
    edges_a = {0: ("0", [1, 2]), 1: ("1/2", []), 2: ("1", [2])}
    edges_b = {0: ("1/2", [1]), 1: ("0", [0, 2]), 2: ("1", [])}

    def system(edges, name):
        return lk.Coalgebra.of(functor, Carrier(tuple(name(s) for s in edges)), {
            name(s): lk.PairEl(lk.ConstEl(label), fset(IdEl(name(t)) for t in succs))
            for s, (label, succs) in edges.items()
        })

    union, _, inj2 = disjoint_union(system(edges_a, int), system(edges_b, int))
    assert len(union.carrier) == 6 and set(inj2.values()).isdisjoint(range(3))
    for rank_n in (1, 3):
        by_int = logical_distance(system(edges_a, int), system(edges_b, int), lifting, rank_n)
        by_str = logical_distance(system(edges_a, str), system(edges_b, str), lifting, rank_n)
        assert by_int.values == by_str.values


# Two 8-state Kripke frames with branching up to 3, as perfbench's generator
# draws them, and two 8-state Markov chains with a deadlock and supports of
# 3.  Synthesized formulas share their subformulas, so their trees unfold
# exponentially in the rank; a hash or a set that walked the unfolded tree
# took 0.25 s on the frames at rank 20, growing about 1.7 times per rank,
# and a distribution that did took 3.7 s on the chains at rank 14.
RANK_64_PROGRAM = """
import random, time
from fractions import Fraction as F
import laxkit as lk
rng = random.Random(5)
def frame(prefix):
    states = [f"{prefix}{i}" for i in range(8)]
    stuck = rng.choice(states)
    succs = {s: [] if s == stuck else sorted(rng.sample(states, rng.randint(1, 3)))
             for s in states}
    return lk.Coalgebra.of(lk.PFin(lk.Id()), lk.Carrier(tuple(states)), {
        s: lk.fset(lk.IdEl(t) for t in succs[s]) for s in states})
def chain(prefix):
    states = [f"{prefix}{i}" for i in range(8)]
    stuck = rng.choice(states)
    def step():
        cuts = sorted(rng.sample(range(1, 12), 2))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [12])]
        return lk.just(lk.fdist((lk.IdEl(t), F(w, 12))
                                for t, w in zip(rng.sample(states, 3), weights)))
    return lk.Coalgebra.of(lk.Maybe(lk.DFin(lk.Id())), lk.Carrier(tuple(states)), {
        s: lk.NOTHING if s == stuck else step() for s in states})
cases = [(frame("a"), frame("b"), lk.Hausdorff("sym", lk.IdLift())),
         (chain("a"), chain("b"), lk.MaybeLift(lk.KantorovichD(lk.IdLift())))]
for sys_a, sys_b, lifting in cases:
    started = time.perf_counter()
    chain_64 = lk.distance_chain(lifting, sys_a, sys_b, 64)[64]
    assert lk.logical_distance(sys_a, sys_b, lifting, 64) == chain_64
    print(time.perf_counter() - started)
"""


def test_rank_64_logical_distance_on_branching_systems_stays_fast():
    # run in a child process, so that an exponential walk inside one C-level
    # hash call meets the timeout instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    done = subprocess.run([sys.executable, "-c", RANK_64_PROGRAM], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert all(float(seconds) < 10 for seconds in done.stdout.split())

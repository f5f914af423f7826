import random
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
    moss_eval,
    presentation_of,
    synthesize,
    synthesize_levels,
    witness_value,
)
from laxkit import logic
from laxkit.axioms import rand_carrier, rand_element, rand_rel, rand_unit
from laxkit.logic import semantics
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


def test_presentation_round_trip_examples():
    t = fset([IdEl("a2"), IdEl("a3")])
    mod, placeholders = presentation_of(t, H_SYM, SET_FUNCTOR)
    assert placeholders == ("a2", "a3")
    assert mod.indexed == fset([IdEl(1), IdEl(2)])
    rebuilt = mod.indexed.map(lambda i: placeholders[i - 1])
    assert rebuilt == t

    functor, lifting = labelled_functor_and_lifting()
    labelled = lk.PairEl(lk.ConstEl("7/10"), fset([IdEl("a2"), IdEl("a3")]))
    mod, placeholders = presentation_of(labelled, lifting, functor)
    assert mod.indexed == lk.PairEl(lk.ConstEl("7/10"), fset([IdEl(1), IdEl(2)]))
    assert mod.indexed.map(lambda i: placeholders[i - 1]) == labelled


def test_presentation_round_trip_random():
    rng = random.Random("present")
    zoo = [SET_FUNCTOR, lk.DFin(lk.Id()), lk.Pair(lk.PFin(lk.Id()), lk.DFin(lk.Id()))]
    for functor in zoo:
        for _ in range(25):
            carrier = rand_carrier(rng, "a", 4)
            t = rand_element(rng, functor, carrier)
            mod, placeholders = presentation_of(t, H_SYM, functor)
            assert set(base(mod.indexed)) <= set(range(1, mod.arity + 1))
            assert mod.indexed.map(lambda i: placeholders[i - 1]) == t


def test_moss_eval_against_direct_hausdorff():
    rng = random.Random("moss-direct")
    for _ in range(40):
        carrier = rand_carrier(rng, "x", 4)
        t0_members = sorted(rng.sample(range(1, 4), rng.randint(1, 3)))
        mod = lk.MossModality(
            fset(IdEl(i) for i in t0_members), 3, H_SYM, SET_FUNCTOR
        )
        args = tuple(
            {x: rand_unit(rng) for x in carrier.elements} for _ in range(3)
        )
        t = rand_element(rng, SET_FUNCTOR, carrier)
        got = moss_eval(mod, carrier, args, t)
        membership = FuzzyRel(
            carrier, mod.index_carrier(),
            tuple(tuple(args[i][x] for i in range(3)) for x in carrier.elements),
        )
        assert got == lift_value(H_SYM, SET_FUNCTOR, membership.view(), t, mod.indexed)


def test_moss_eval_degenerate_singleton_presentation():
    carrier = Carrier.of("x", "y")
    mod = lk.MossModality(fset([IdEl(1)]), 1, H_SYM, SET_FUNCTOR)
    f = {"x": F(1, 3), "y": F(3, 4)}
    t = fset([IdEl("x"), IdEl("y")])
    # one-column membership relation: sup-inf collapses to max into the column
    assert moss_eval(mod, carrier, (f,), t) == F(3, 4)


def test_moss_eval_transport_hand_case():
    functor = lk.DFin(lk.Id())
    lifting = lk.KantorovichD(lk.IdLift())
    carrier = Carrier.of("x")
    mod = lk.MossModality(
        fdist([(IdEl(1), F(1, 2)), (IdEl(2), F(1, 2))]), 2, lifting, functor
    )
    f1 = {"x": F(1, 4)}
    f2 = {"x": F(3, 4)}
    t = fdist([(IdEl("x"), F(1))])
    # the point mass must split between the two index targets
    assert moss_eval(mod, carrier, (f1, f2), t) == F(1, 2) * F(1, 4) + F(1, 2) * F(3, 4)


def test_moss_modalities_monotone():
    rng = random.Random("moss-mono")
    for _ in range(40):
        a = rand_carrier(rng, "a", 4)
        t2_carrier = rand_carrier(rng, "b", 3)
        t2 = rand_element(rng, SET_FUNCTOR, t2_carrier)
        mod, _ = presentation_of(t2, H_SYM, SET_FUNCTOR)
        lo = tuple({x: rand_unit(rng) for x in a.elements} for _ in range(mod.arity))
        hi = tuple(
            {x: min(F(1), lo[i][x] + rand_unit(rng)) for x in a.elements}
            for i in range(mod.arity)
        )
        t = rand_element(rng, SET_FUNCTOR, a)
        assert moss_eval(mod, a, lo, t) <= moss_eval(mod, a, hi, t)


def test_moss_modalities_nonexpansive():
    rng = random.Random("moss-nonexp")
    for _ in range(40):
        a = rand_carrier(rng, "a", 4)
        t2_carrier = rand_carrier(rng, "b", 3)
        t2 = rand_element(rng, SET_FUNCTOR, t2_carrier)
        mod, _ = presentation_of(t2, H_SYM, SET_FUNCTOR)
        f = tuple({x: rand_unit(rng) for x in a.elements} for _ in range(mod.arity))
        g = tuple({x: rand_unit(rng) for x in a.elements} for _ in range(mod.arity))
        spread = max(
            (abs(f[i][x] - g[i][x]) for i in range(mod.arity) for x in a.elements),
            default=F(0),
        )
        t = rand_element(rng, SET_FUNCTOR, a)
        assert abs(moss_eval(mod, a, f, t) - moss_eval(mod, a, g, t)) <= spread


def test_separation_witness_achieves_lift():
    rng = random.Random("sep")
    functor, lifting = labelled_functor_and_lifting()
    cases = [(SET_FUNCTOR, H_SYM), (functor, lifting)]
    for fun, lif in cases:
        for _ in range(50):
            a = rand_carrier(rng, "a", 4)
            b = rand_carrier(rng, "b", 4)
            rel = rand_rel(rng, a, b)
            t1 = rand_element(rng, fun, a)
            t2 = rand_element(rng, fun, b)
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
            t1 = rand_element(rng, fun, a)
            t2 = rand_element(rng, fun, b)
            idx_carrier = rand_carrier(rng, "i", 3)
            shape = rand_element(rng, fun, idx_carrier)
            mod, _ = presentation_of(shape, lif, fun)
            left = tuple(
                {x: rand_unit(rng) for x in a.elements} for _ in range(mod.arity)
            )
            right = tuple(companion(rel, f) for f in left)
            value = lk.sat_sub(
                moss_eval(mod, a, left, t1), moss_eval(mod, b, right, t2)
            )
            assert value <= lift_value(lif, fun, rel.view(), t1, t2)


def test_synthesis_base_cases(labelled_frames):
    sys_a, sys_b, functor, lifting, _ = labelled_frames
    union, _, inj2 = disjoint_union(sys_a, sys_b)
    phi0 = synthesize(union, inj2["b1"], 0)
    assert phi0 == lk.FormulaConst(F(0))
    assert all(
        evaluate(phi0, union, x, lifting) == 0 for x in union.carrier.elements
    )


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
    shape = rand_element(rng, functor, carrier)
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

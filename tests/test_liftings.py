import dataclasses
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit import (
    AxiomConfig,
    Carrier,
    Certificate,
    ConstLift,
    DFin,
    Discount,
    FuzzyRel,
    Hausdorff,
    Id,
    IdEl,
    IdLift,
    KantorovichD,
    KantorovichGrid,
    LiftingSpec,
    MaybeLift,
    NOTHING,
    PFin,
    StructureError,
    RelView,
    WassersteinD,
    behavioural_distance,
    check_axioms,
    check_certificate,
    fdist,
    fset,
    grid_error_bound,
    grid_kantorovich_value,
    just,
    lift_value,
    liftings,
    logical_distance,
)
from laxkit.axioms import rand_carrier, rand_hemimetric, rand_rel
from laxkit.liftings import LIFTING_KINDS
from laxkit.modalities import PredicateLifting
from laxkit import core
from laxkit.logic import membership
from tests.oracles import (
    fraction_grid_value,
    fraction_pair_sum,
    min_sup_over_set_couplings,
    rational_transport_simplex,
    sup_distance,
    two_pass_hausdorff,
)
from tests.conftest import CASES, kinds, number_const, rand_system, rel_from

SET_FUNCTOR = PFin(Id())
DIST_FUNCTOR = DFin(Id())
H_SYM = Hausdorff("sym", IdLift())
H_LEFT = Hausdorff("left", IdLift())
H_RIGHT = Hausdorff("right", IdLift())


def two_carriers():
    return Carrier.of("x1", "x2"), Carrier.of("y1", "y2")


def rand_unit_mixed(rng):
    """0, 1 or k/d with d drawn from 1..12, so entries seldom share a denominator."""
    den = rng.randint(1, 12)
    return rng.choice((F(0), F(1), F(rng.randint(0, den), den)))


def mixed_rel(rng, source, target):
    return FuzzyRel(source, target, tuple(tuple(rand_unit_mixed(rng) for _ in target)
                                          for _ in source))


def test_worked_example_values(labelled_frames):
    sys_a, sys_b, functor, lifting, cert = labelled_frames
    rel = cert.relation
    assert lift_value(lifting, functor, rel.view(), sys_a.step("a1"), sys_b.step("b1")) == F(1, 5)
    assert lift_value(lifting, functor, rel.view(), sys_a.step("a2"), sys_b.step("b3")) == F(1, 10)
    assert lift_value(lifting, functor, rel.view(), sys_a.step("a3"), sys_b.step("b2")) == F(1, 20)


def test_hausdorff_empty_set_conventions():
    a, b = two_carriers()
    rel = rel_from(a, b, {("x1", "y1"): F(1, 3)})
    singleton_a = fset([IdEl("x1")])
    singleton_b = fset([IdEl("y1")])
    empty = fset([])
    assert lift_value(H_SYM, SET_FUNCTOR, rel.view(), singleton_a, singleton_b) == F(1, 3)
    assert lift_value(H_SYM, SET_FUNCTOR, rel.view(), empty, empty) == 0
    assert lift_value(H_SYM, SET_FUNCTOR, rel.view(), singleton_a, empty) == 1
    assert lift_value(H_LEFT, SET_FUNCTOR, rel.view(), empty, singleton_b) == 0
    assert lift_value(H_RIGHT, SET_FUNCTOR, rel.view(), empty, singleton_b) == 1


def test_hausdorff_one_sided_split():
    a, b = two_carriers()
    rel = rel_from(a, b, {("x1", "y1"): F(0), ("x2", "y1"): F(1)})
    u = fset([IdEl("x1"), IdEl("x2")])
    v = fset([IdEl("y1")])
    assert lift_value(H_LEFT, SET_FUNCTOR, rel.view(), u, v) == 1
    assert lift_value(H_RIGHT, SET_FUNCTOR, rel.view(), u, v) == 0
    assert lift_value(H_SYM, SET_FUNCTOR, rel.view(), u, v) == 1


def test_hausdorff_lifts_each_pair_once(monkeypatch):
    # all three variants equal the definition that lifts each direction's
    # pairs on its own, and read every (a, b) exactly once: under id as one
    # block of the relation's integers, with no lift per pair; under a sub-
    # lifting that reads no block (the default lift_block), by one lift each
    calls, blocks = [], []
    real, real_block = IdLift.lift_ratio, IdLift.lift_block
    monkeypatch.setattr(IdLift, "lift_ratio",
                        lambda self, *args: calls.append(args) or real(self, *args))
    monkeypatch.setattr(IdLift, "lift_block", lambda self, functor, rel, xs, ys: (
        blocks.append((xs, ys)) or real_block(self, functor, rel, xs, ys)))
    rng = random.Random("hausdorff-one-pass")

    def rand_set(carrier):
        return fset(IdEl(x) for x in carrier.elements if rng.random() < 0.5)

    empty = fset([])
    for trial in range(60):
        a, b = rand_carrier(rng, "a", 4), rand_carrier(rng, "b", 4)
        rel = (rand_rel, mixed_rel)[trial % 2](rng, a, b)
        t1, t2 = rand_set(a), rand_set(b)
        for s1, s2 in ((t1, t2), (empty, t2), (t1, empty), (empty, empty)):
            for lifting in (H_SYM, H_LEFT, H_RIGHT):
                want = two_pass_hausdorff(lifting, SET_FUNCTOR, rel.view(), s1, s2)
                calls.clear()
                blocks.clear()
                assert lifting.lift(SET_FUNCTOR, rel.view(), s1, s2) == want
                assert calls == [] and blocks == [(s1.members, s2.members)]
                with monkeypatch.context() as by_pairs:
                    by_pairs.setattr(IdLift, "lift_block", LiftingSpec.lift_block)
                    assert lifting.lift(SET_FUNCTOR, rel.view(), s1, s2) == want
                assert len(calls) == len(s1.members) * len(s2.members)


def test_pair_sum_matches_the_fraction_oracle():
    rng = random.Random("pair-sum")
    labels = Carrier.of("p", "q")
    a, b = Carrier.of("x1", "x2", "x3"), Carrier.of("y1", "y2")
    for _ in range(60):
        metric = FuzzyRel(labels, labels, ((F(0), rand_unit_mixed(rng)),
                                           (rand_unit_mixed(rng), F(0))))
        functor = lk.Pair(lk.Const(labels, metric), SET_FUNCTOR)
        lifting = lk.PairSum(rand_unit_mixed(rng), rand_unit_mixed(rng), ConstLift(), H_SYM)
        rel = mixed_rel(rng, a, b)
        t1 = lk.PairEl(lk.ConstEl(rng.choice("pq")), SET_FUNCTOR.random_element(rng, a))
        t2 = lk.PairEl(lk.ConstEl(rng.choice("pq")), SET_FUNCTOR.random_element(rng, b))
        try:
            want = fraction_pair_sum(lifting, functor, rel.view(), t1, t2)
        except StructureError as exc:
            with pytest.raises(StructureError, match=f"^{exc}$"):
                lifting.lift(functor, rel.view(), t1, t2)
        else:
            assert lifting.lift(functor, rel.view(), t1, t2) == want
    # a lift past 1 directly, without the weight check of LiftingSpec.match
    metric = FuzzyRel(labels, labels, ((F(0), F(1, 2)), (F(1, 2), F(0))))
    functor = lk.Pair(lk.Const(labels, metric), SET_FUNCTOR)
    heavy = lk.PairSum(F(1), F(1), ConstLift(), H_SYM)
    rel = rel_from(a, b, {})
    t1 = lk.PairEl(lk.ConstEl("p"), fset([IdEl("x1")]))
    t2 = lk.PairEl(lk.ConstEl("q"), fset([IdEl("y1")]))
    for lift in (heavy.lift, lambda *args: fraction_pair_sum(heavy, *args)):
        with pytest.raises(StructureError) as exc:
            lift(functor, rel.view(), t1, t2)
        assert str(exc.value) == "value 3/2 outside the unit interval"


def test_transport_lifting_point_masses():
    a, b = two_carriers()
    rel = rel_from(a, b, {("x1", "y1"): F(2, 5)})
    for lifting in (KantorovichD(IdLift()), WassersteinD(IdLift())):
        assert lift_value(
            lifting, DIST_FUNCTOR, rel.view(),
            fdist([(IdEl("x1"), F(1))]), fdist([(IdEl("y1"), F(1))]),
        ) == F(2, 5)
        # unique coupling: split source against a point target
        split = fdist([(IdEl("x1"), F(1, 2)), (IdEl("x2"), F(1, 2))])
        point = fdist([(IdEl("y1"), F(1))])
        expected = F(1, 2) * rel.at("x1", "y1") + F(1, 2) * rel.at("x2", "y1")
        assert lift_value(lifting, DIST_FUNCTOR, rel.view(), split, point) == expected


def test_kantorovich_equals_wasserstein_by_shared_solver():
    rng = random.Random("kw")
    for _ in range(30):
        a = rand_carrier(rng, "a", 4)
        b = rand_carrier(rng, "b", 4)
        rel = rand_rel(rng, a, b)
        t1 = DIST_FUNCTOR.random_element(rng, a)
        t2 = DIST_FUNCTOR.random_element(rng, b)
        k = lift_value(KantorovichD(IdLift()), DIST_FUNCTOR, rel.view(), t1, t2)
        w = lift_value(WassersteinD(IdLift()), DIST_FUNCTOR, rel.view(), t1, t2)
        assert k == w


def test_hausdorff_is_min_over_set_couplings():
    rng = random.Random("hw")
    for _ in range(60):
        a = rand_carrier(rng, "a", 4)
        b = rand_carrier(rng, "b", 4)
        rel = rand_rel(rng, a, b)
        t1 = SET_FUNCTOR.random_element(rng, a)
        t2 = SET_FUNCTOR.random_element(rng, b)
        m1 = [m.value for m in t1.members]
        m2 = [m.value for m in t2.members]
        coupled = min_sup_over_set_couplings(
            len(m1), len(m2), lambda i, j: rel.at(m1[i], m2[j])
        )
        assert lift_value(H_SYM, SET_FUNCTOR, rel.view(), t1, t2) == coupled


def test_pair_and_discount_combinators(labelled_frames):
    _, _, functor, lifting, _ = labelled_frames
    const = functor.left
    a = Carrier.of("p")
    b = Carrier.of("q")
    rel = rel_from(a, b, {("p", "q"): F(1)})
    t1 = lk.PairEl(lk.ConstEl("7/10"), fset([lk.IdEl("p")]))
    t2 = lk.PairEl(lk.ConstEl("2/5"), fset([lk.IdEl("q")]))
    # weighted sum: 1/2 * 3/10 + 1/2 * 1
    assert lift_value(lifting, functor, rel.view(), t1, t2) == F(13, 20)
    pmax = lk.PairMax(ConstLift(), Hausdorff("sym", IdLift()))
    assert lift_value(pmax, functor, rel.view(), t1, t2) == F(1)
    half = Discount(F(1, 2), lifting)
    assert lift_value(half, functor, rel.view(), t1, t2) == F(13, 40)


def test_maybe_lift_deadlock_conventions():
    functor = lk.Maybe(DIST_FUNCTOR)
    lifting = MaybeLift(KantorovichD(IdLift()))
    a, b = two_carriers()
    rel = rel_from(a, b, {("x1", "y1"): F(1, 4)})
    dist_a = just(fdist([(IdEl("x1"), F(1))]))
    dist_b = just(fdist([(IdEl("y1"), F(1))]))
    assert lift_value(lifting, functor, rel.view(), NOTHING, NOTHING) == 0
    assert lift_value(lifting, functor, rel.view(), NOTHING, dist_b) == 1
    assert lift_value(lifting, functor, rel.view(), dist_a, NOTHING) == 1
    assert lift_value(lifting, functor, rel.view(), dist_a, dist_b) == F(1, 4)


def test_match_lifting_shapes():
    assert H_SYM.match(SET_FUNCTOR) == []
    assert H_SYM.match(DIST_FUNCTOR) != []
    assert KantorovichD(IdLift()).match(SET_FUNCTOR) != []
    const = number_const(("0", "1/4"))
    functor = lk.Pair(const, Id())
    heavy = lk.PairSum(F(1), F(1), ConstLift(), IdLift())
    problems = heavy.match(functor)
    assert problems and "weighted sum can reach" in problems[0][1]
    ok = lk.PairSum(F(1), F(1, 2), ConstLift(), IdLift())
    assert ok.match(functor) == []  # label range 1/4 <= 1 - 1/2
    lk.require_match(ok, functor)
    with pytest.raises(StructureError) as err:
        lk.require_match(lk.PairSum(F(1), F(1), ConstLift(), H_SYM), lk.Pair(Id(), Id()))
    assert str(err.value) == (
        "lifting does not fit the system functor: .left: ConstLift needs a label component; "
        ".right: Hausdorff needs a finite-set component")


def test_range_bound_tracks_discounts():
    const = number_const(("0", "1/4"))
    functor = lk.Pair(const, Id())
    assert ConstLift().range_bound(const) == F(1, 4)
    assert Discount(F(1, 2), IdLift()).range_bound(Id()) == F(1, 2)
    combo = lk.PairSum(F(1), F(1, 2), ConstLift(), IdLift())
    assert combo.range_bound(functor) == F(3, 4)


def test_claims_converse():
    assert H_SYM.claims_converse(SET_FUNCTOR)
    assert not H_LEFT.claims_converse(SET_FUNCTOR)
    assert not H_RIGHT.claims_converse(SET_FUNCTOR)
    assert KantorovichD(IdLift()).claims_converse(DIST_FUNCTOR)
    assert KantorovichGrid(("dia", "box"), F(1, 4)).claims_converse(SET_FUNCTOR)
    assert not KantorovichGrid(("dia",), F(1, 4)).claims_converse(SET_FUNCTOR)
    assert Discount(F(1, 2), H_SYM).claims_converse(SET_FUNCTOR)
    assert not Discount(F(1, 2), H_LEFT).claims_converse(SET_FUNCTOR)


def test_default_functor_follows_the_shape_through_discounts():
    assert Discount(F(1, 2), H_SYM).default_functor() == SET_FUNCTOR
    assert Discount(F(1, 2), MaybeLift(KantorovichD(IdLift()))).default_functor() == \
        lk.Maybe(DIST_FUNCTOR)
    with pytest.raises(StructureError) as err:
        Discount(F(1, 2), lk.PairMax(ConstLift(), IdLift())).default_functor()
    assert str(err.value) == "lifting.sub.left: a label component has no default label metric"


def test_grid_converse_reads_modality_aliases():
    for names in (("<>", "box"), ("dia", "[]"), ("<>", "[]")):
        assert KantorovichGrid(names, F(1, 4)).claims_converse(SET_FUNCTOR)
    assert not KantorovichGrid(("<>",), F(1, 4)).claims_converse(SET_FUNCTOR)


def test_grid_matches_one_sided_hausdorff_within_step():
    rng = random.Random("grid")
    step = F(1, 8)
    grid = KantorovichGrid(("dia",), step)
    for _ in range(25):
        a = rand_carrier(rng, "a", 3)
        b = rand_carrier(rng, "b", 3)
        rel = rand_rel(rng, a, b)
        t1 = SET_FUNCTOR.random_element(rng, a)
        t2 = SET_FUNCTOR.random_element(rng, b)
        closed = lift_value(H_LEFT, SET_FUNCTOR, rel.view(), t1, t2)
        approx = lift_value(grid, SET_FUNCTOR, rel.view(), t1, t2)
        assert approx <= closed <= approx + step


def test_grid_exact_on_single_state_carriers():
    step = F(1, 5)
    grid = KantorovichGrid(("dia",), step)
    a, b = Carrier.of("x"), Carrier.of("y")
    for value in (F(0), F(2, 5), F(1)):
        rel = rel_from(a, b, {("x", "y"): value})
        t1, t2 = fset([IdEl("x")]), fset([IdEl("y")])
        closed = lift_value(H_LEFT, SET_FUNCTOR, rel.view(), t1, t2)
        approx = lift_value(grid, SET_FUNCTOR, rel.view(), t1, t2)
        assert approx <= closed <= approx + step


def test_grid_on_all_one_relation():
    step = F(1, 8)
    grid = KantorovichGrid(("dia",), step)
    a, b = two_carriers()
    rel = FuzzyRel.constant(a, b, F(1))
    t1 = fset([IdEl("x1"), IdEl("x2")])
    t2 = fset([IdEl("y1")])
    closed = lift_value(H_LEFT, SET_FUNCTOR, rel.view(), t1, t2)
    approx = lift_value(grid, SET_FUNCTOR, rel.view(), t1, t2)
    assert approx <= closed <= approx + step


def test_grid_error_bound_contract():
    mods = SET_FUNCTOR.standard_modalities()
    assert grid_error_bound([mods["dia"]], F(1, 16)) == F(1, 16)
    clamped = PredicateLifting("jump", 1, True, False, mods["dia"].evaluator)
    with pytest.raises(StructureError):
        grid_error_bound([clamped], F(1, 16))
    # a step no grid has carries no bound either, as KantorovichGrid refuses it
    for step in (F(2, 5), 1, F(0)):
        with pytest.raises(StructureError, match="grid step must be 1/k"):
            grid_error_bound([mods["dia"]], step)


def test_grid_step_must_be_a_unit_fraction():
    assert KantorovichGrid(("dia",), F(1)).step == 1
    for step in (1, 0.25, F(0), F(2, 3), F(2)):
        with pytest.raises(StructureError, match="grid step must be 1/k"):
            KantorovichGrid(("dia",), step)


def peak_bytes(run):
    """run() and the peak memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_cap_refuses_before_building_levels():
    # the cap is checked on the number of levels, before any level exists;
    # a list of k + 1 levels would take about 100 bytes per level
    a, b = two_carriers()
    rel = FuzzyRel.constant(a, b, F(1, 2))
    t1, t2 = fset([IdEl("x1"), IdEl("x2")]), fset([IdEl("y1")])
    dia = SET_FUNCTOR.standard_modalities()["dia"]
    for k in (300_000, 100_000_000):
        def refused():
            with pytest.raises(StructureError) as err:
                grid_kantorovich_value([dia], F(1, k), rel.view(), t1, t2)
            return str(err.value)
        message, peak = peak_bytes(refused)
        assert message == (f"grid search over {k + 1}^2 tables exceeds the cap; "
                           "use a coarser step or smaller carriers")
        assert peak < 100_000
    # a left element with no members searches one empty table and needs no level
    value, peak = peak_bytes(
        lambda: grid_kantorovich_value([dia], F(1, 100_000_000), rel.view(), fset([]), t2))
    assert value == 0 and peak < 100_000


def test_grid_node_from_a_list_of_names_is_hashable():
    node = KantorovichGrid(["dia", "box"], F(1, 4))
    assert node == KantorovichGrid(("dia", "box"), F(1, 4))
    assert hash(node) == hash(KantorovichGrid(("dia", "box"), F(1, 4)))


def test_grid_refuses_non_monotone():
    a, b = two_carriers()
    rel = FuzzyRel.constant(a, b, F(1))
    flip = PredicateLifting(
        "flip", 1, False, True,
        lambda el, args: F(1) - max((args[0][m.value] for m in el.members), default=F(1)),
    )
    with pytest.raises(StructureError):
        grid_kantorovich_value([flip], F(1, 2), rel.view(), fset([IdEl("x1")]), fset([IdEl("y1")]))


def test_nonexpansive_in_the_relation():
    rng = random.Random("nonexp")
    const = number_const(("0", "1/4"))
    labelled = lk.Pair(const, SET_FUNCTOR)
    cases = [
        (H_SYM, SET_FUNCTOR),
        (H_LEFT, SET_FUNCTOR),
        (KantorovichD(IdLift()), DIST_FUNCTOR),
        (MaybeLift(KantorovichD(IdLift())), lk.Maybe(DIST_FUNCTOR)),
        (lk.PairSum(F(1, 2), F(1, 2), ConstLift(), Hausdorff("sym", IdLift())), labelled),
        (Hausdorff("left", lk.PairSum(F(1), F(1, 2), ConstLift(), IdLift())),
         PFin(lk.Pair(const, Id()))),
        (KantorovichGrid(("dia",), F(1, 4)), SET_FUNCTOR),
    ]
    for lifting, functor in cases:
        for _ in range(25):
            a = rand_carrier(rng, "a", 4)
            b = rand_carrier(rng, "b", 4)
            r1 = rand_rel(rng, a, b)
            r2 = rand_rel(rng, a, b)
            t1 = functor.random_element(rng, a)
            t2 = functor.random_element(rng, b)
            gap = abs(
                lift_value(lifting, functor, r1.view(), t1, t2)
                - lift_value(lifting, functor, r2.view(), t1, t2)
            )
            assert gap <= sup_distance(r1, r2)


def test_lifted_hemimetric_stays_hemimetric():
    rng = random.Random("hemi")
    for lifting, functor in ((H_SYM, SET_FUNCTOR), (KantorovichD(IdLift()), DIST_FUNCTOR)):
        for _ in range(25):
            a = rand_carrier(rng, "a", 4)
            d = rand_hemimetric(rng, a, symmetric=False)
            ts = [functor.random_element(rng, a) for _ in range(3)]
            for t in ts:
                assert lift_value(lifting, functor, d.view(), t, t) == 0
            lhs = lift_value(lifting, functor, d.view(), ts[0], ts[2])
            rhs = lk.sat_add(
                lift_value(lifting, functor, d.view(), ts[0], ts[1]),
                lift_value(lifting, functor, d.view(), ts[1], ts[2]),
            )
            assert lhs <= rhs


def test_lifted_pseudometric_stays_symmetric():
    rng = random.Random("pseudo")
    for _ in range(25):
        a = rand_carrier(rng, "a", 4)
        d = rand_hemimetric(rng, a, symmetric=True)
        t1 = SET_FUNCTOR.random_element(rng, a)
        t2 = SET_FUNCTOR.random_element(rng, a)
        assert lift_value(H_SYM, SET_FUNCTOR, d.view(), t1, t2) == \
            lift_value(H_SYM, SET_FUNCTOR, d.view(), t2, t1)


# ---------------------------------------------------------------------------
# Lifting commutes with renaming states to carrier indices


def _has_collection(functor):
    return isinstance(functor, (PFin, DFin)) or any(
        _has_collection(child) for child in functor.children())


def test_the_renaming_cases_cover_every_lifting_kind():
    assert {kind for lifting, *_ in CASES.values() for kind in kinds(lifting)} == set(
        liftings.LIFTING_KINDS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_index_rows_lift_as_the_named_relation(name):
    # renaming both elements' states to their carrier indices, and reading
    # the relation's rows by index, gives the lift of the relation by name.
    # Carriers of 20 and 13 states: "a10".."a19" sort before "a2" but their
    # indices after 2, so mapping an element to indices reorders its members
    lifting, functor, _, _ = CASES[name]
    rng = random.Random(f"two-addressings/{name}")
    sys_a, sys_b = rand_system(rng, functor, "a", 20), rand_system(rng, functor, "b", 13)
    rel = (rand_rel, mixed_rel)[len(name) % 2](rng, sys_a.carrier, sys_b.carrier)
    rows = RelView(range(len(rel.values)),
                   {i: dict(enumerate(row)) for i, row in enumerate(rel.values)}, {})
    index_a, index_b = sys_a.carrier.index, sys_b.carrier.index
    reordered = False
    for a in sys_a.carrier.elements:
        t1 = sys_a.step(a)
        mapped = t1.map(index_a)
        reordered |= list(mapped.leaves()) != [index_a(x) for x in t1.leaves()]
        for b in sys_b.carrier.elements:
            t2 = sys_b.step(b)
            named = lift_value(lifting, functor, rel.view(), t1, t2)
            assert lift_value(lifting, functor, rows, mapped, t2.map(index_b)) == named
    assert reordered == _has_collection(functor)


@pytest.fixture
def warm_starts_seen(monkeypatch):
    """The warm start each transport solve of a lift was given, in order."""
    seen = []
    real = liftings.min_cost_transport

    def solve(mu, nu, cost, warm=None):
        seen.append(warm)
        return real(mu, nu, cost, warm)

    monkeypatch.setattr(liftings, "min_cost_transport", solve)
    return seen


TRANSPORT_CASES = ["kantorovich", "wasserstein", "pair-max", "maybe", "two-transports",
                   "hausdorff-kantorovich"]


@pytest.mark.parametrize("name", TRANSPORT_CASES)
def test_only_the_chain_resumes_transport_solves(name, warm_starts_seen):
    lifting, functor, _, _ = CASES[name]
    rng = random.Random(f"cold-solves/{name}")
    sys_a, sys_b = rand_system(rng, functor, "a", 4), rand_system(rng, functor, "b", 4)
    # a certificate check, in both directions, also of a system against itself
    for left, right in ((sys_a, sys_b), (sys_a, sys_a)):
        rel = rand_rel(rng, left.carrier, right.carrier)
        check_certificate(lifting, left, right, Certificate(rel, "bisimulation"))
    # the logic's structural tables, and the law suite's trials
    logical_distance(sys_a, sys_b, lifting, 2)
    check_axioms(lifting, functor, AxiomConfig(trials=6, max_size=3, seed=1))
    assert warm_starts_seen and all(warm is None for warm in warm_starts_seen)
    # the fixpoint chain resumes its solves, so the probe sees warm starts
    behavioural_distance(lifting, sys_a, sys_b, max_iter=4)
    assert any(warm is not None for warm in warm_starts_seen)


# ---------------------------------------------------------------------------
# Lifts read off a view's integers equal the Fraction definitions

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
          79, 83, 89, 97)


def coprime_rel(rng, source, target):
    """Entries k/p with a different prime p for every entry."""
    primes = iter(rng.sample(PRIMES, len(source) * len(target)))
    return FuzzyRel(source, target, tuple(
        tuple(F(rng.randint(0, p), p) for p in (next(primes) for _ in target)) for _ in source))


def integer_views(rng, rel):
    """rel as each maker of integer rows views it: two steps of a chain
    (the second sharing some rows, and the warm starts, with the first),
    FuzzyRel.view and a membership view, plain and complemented."""
    a, b = rel.source, rel.target
    rows = {x: dict(zip(b, row)) for x, row in zip(a, rel.values)}
    starts = {}
    yield RelView(a, rows, starts), rel
    moved = rand_rel(rng, a, b)
    later = {x: row if rng.random() < 0.5 else dict(zip(b, new))
             for (x, row), new in zip(rows.items(), moved.values)}
    yield (RelView(a, later, starts),
           FuzzyRel(a, b, tuple(tuple(row.values()) for row in later.values())))
    yield rel.view(), rel
    columns = list(zip(*rel.values)) or [()] * len(b)
    yield membership(a, b, [dict(zip(a, col)) for col in columns]), rel
    yield membership(a, b, [{x: 1 - v for x, v in zip(a, col)} for col in columns], True), rel


def test_lifts_on_integer_views_equal_the_fraction_definitions():
    rng = random.Random("integer-views")
    transports = (KantorovichD(IdLift()), WassersteinD(IdLift()))

    def subsets(carrier):
        return [fset([])] + [fset(IdEl(x) for x in carrier if rng.random() < 0.6)
                             for _ in range(3)]

    def dists(carrier):
        out = []
        for _ in range(3):
            support = rng.sample(carrier.elements, rng.randint(1, len(carrier)))
            weights = [rng.randint(1, 7) for _ in support]
            out.append(fdist((IdEl(x), F(w, sum(weights))) for x, w in zip(support, weights)))
        return out

    built = 0
    for trial in range(16):
        a, b = rand_carrier(rng, "a", 4), rand_carrier(rng, "b", 4)
        sets_a, sets_b, dists_a, dists_b = subsets(a), subsets(b), dists(a), dists(b)
        for make in (rand_rel, mixed_rel, coprime_rel):
            for view, rel in integer_views(rng, make(rng, a, b)):
                fractions = rel.view()
                for s1 in sets_a:
                    for s2 in sets_b:
                        for lifting in (H_SYM, H_LEFT, H_RIGHT):
                            assert lifting.lift(SET_FUNCTOR, view, s1, s2) == \
                                two_pass_hausdorff(lifting, SET_FUNCTOR, fractions, s1, s2)
                for d1 in dists_a:
                    for d2 in dists_b:
                        mu, nu = [p for _, p in d1.pairs], [q for _, q in d2.pairs]
                        cost = [[rel.at(x.value, y.value) for y, _ in d2.pairs] for x, _ in d1.pairs]
                        want, _ = rational_transport_simplex(mu, nu, cost)
                        for lifting in transports:
                            assert lifting.lift(DIST_FUNCTOR, view, d1, d2) == want
                # every block was read off the view's integers
                built += view.scaled is not None
    assert built == 16 * 3 * 5


def test_a_view_builds_its_integer_rows_once(monkeypatch):
    # a chain step's view and a membership view build their integer rows
    # on their first block read, and every later read reuses them; a
    # relation's view reads the relation's own form and builds none
    rng = random.Random("integer-rows-once")
    a, b = rand_carrier(rng, "a", 4), rand_carrier(rng, "b", 4)
    rel = coprime_rel(rng, a, b)
    calls = []
    real = core.scaled_entries
    monkeypatch.setattr(core, "scaled_entries",
                        lambda source, values: calls.append(values) or real(source, values))
    t1, t2 = fset(IdEl(x) for x in a), fset(IdEl(y) for y in b)
    want = two_pass_hausdorff(H_SYM, SET_FUNCTOR, rel.view(), t1, t2)
    rows = {x: dict(zip(b, row)) for x, row in zip(a, rel.values)}
    chain = RelView(a, rows, {})
    member = membership(a, b, [dict(zip(a, col)) for col in zip(*rel.values)])
    own = rel.view()
    for view, builds in ((chain, True), (member, True), (own, False)):
        calls.clear()
        assert (view.scaled is None) == builds
        assert H_SYM.lift(SET_FUNCTOR, view, t1, t2) == want
        assert len(calls) == builds
        form = view.scaled
        for _ in range(4):
            assert H_SYM.lift(SET_FUNCTOR, view, t1, t2) == want
            assert len(calls) == builds and view.scaled is form
    assert own.scaled[0] == rel.scaled[0]
    den, ints = chain.scaled
    assert ints == {x: {y: v * den for y, v in zip(b, row)} for x, row in zip(a, rel.values)}


def test_a_relation_view_refuses_a_foreign_element_before_and_after_its_integer_rows():
    # a bad left or right leaf fails alike on every maker's view, fresh and
    # after two block reads, which built its integer rows
    rng = random.Random("foreign-leaf")
    a, b = rand_carrier(rng, "a", 3), rand_carrier(rng, "b", 3)
    t1, t2 = fset(IdEl(x) for x in a), fset(IdEl(y) for y in b)
    bad = fset([IdEl("nowhere")])
    for read, _ in integer_views(rng, coprime_rel(rng, a, b)):
        fresh = dataclasses.replace(read)
        for _ in range(2):
            H_SYM.lift(SET_FUNCTOR, read, t1, t2)
        assert read.scaled and fresh.scaled is None
        for view in (fresh, read):
            for u, v in ((bad, t2), (t1, bad)):
                with pytest.raises(StructureError, match="nowhere"):
                    H_SYM.lift(SET_FUNCTOR, view, u, v)
            with pytest.raises(StructureError, match="nowhere"):
                view.block(["nowhere"], [])


# ---------------------------------------------------------------------------
# Every kind evaluates once, to an integer ratio that lift turns into a Fraction


def node_oracle(lifting, functor, rel, t1, t2):
    """The node's value by its definition on Fractions, over its children's
    lifts: Hausdorff and pair-sum through the oracles' forms, transport
    through the rational simplex, the grid through the Fraction search."""
    if isinstance(lifting, IdLift):
        return rel.values[t1.value][t2.value]
    if isinstance(lifting, ConstLift):
        return functor.metric.at(t1.label, t2.label)
    if isinstance(lifting, Hausdorff):
        return two_pass_hausdorff(lifting, functor, rel, t1, t2)
    if isinstance(lifting, lk.PairSum):
        return fraction_pair_sum(lifting, functor, rel, t1, t2)
    if isinstance(lifting, lk.PairMax):
        return max(lifting.left.lift(functor.left, rel, t1.left, t2.left),
                   lifting.right.lift(functor.right, rel, t1.right, t2.right))
    if isinstance(lifting, Discount):
        return lifting.factor * lifting.sub.lift(functor, rel, t1, t2)
    if isinstance(lifting, MaybeLift):
        if t1.value is None or t2.value is None:
            return F(int((t1.value is None) != (t2.value is None)))
        return lifting.sub.lift(functor.sub, rel, t1.value, t2.value)
    if isinstance(lifting, KantorovichD):
        cost = [[lifting.sub.lift(functor.sub, rel, x, y) for y, _ in t2.pairs]
                for x, _ in t1.pairs]
        return rational_transport_simplex([p for _, p in t1.pairs], [q for _, q in t2.pairs],
                                          cost)[0]
    assert isinstance(lifting, KantorovichGrid)
    return fraction_grid_value(lifting._modalities(functor), lifting.step, rel, t1, t2)


def sub_pairs(lifting, functor, t1, t2):
    """(child, child functor, u1, u2): every pair of elements a child of the
    node lifts while the node lifts t1 and t2."""
    if isinstance(lifting, (lk.PairSum, lk.PairMax)):
        yield lifting.left, functor.left, t1.left, t2.left
        yield lifting.right, functor.right, t1.right, t2.right
    elif isinstance(lifting, Discount):
        yield lifting.sub, functor, t1, t2
    elif isinstance(lifting, MaybeLift):
        if t1.value is not None and t2.value is not None:
            yield lifting.sub, functor.sub, t1.value, t2.value
    elif isinstance(lifting, Hausdorff):
        for a in t1.members:
            for b in t2.members:
                yield lifting.sub, functor.sub, a, b
    elif isinstance(lifting, KantorovichD):
        for x, _ in t1.pairs:
            for y, _ in t2.pairs:
                yield lifting.sub, functor.sub, x, y


def check_ratio_tree(lifting, functor, rel, t1, t2, seen):
    """lift_ratio's range, lift as its reduced Fraction and the node's
    oracle, at this node and at every pair of elements below it; seen
    counts the empty sets and deadlocks met."""
    num, den = lifting.lift_ratio(functor, rel, t1, t2)
    assert type(num) is int and type(den) is int and 0 <= num <= den and den > 0
    value = lifting.lift(functor, rel, t1, t2)
    assert type(value) is F and value == F(num, den)
    assert value == node_oracle(lifting, functor, rel, t1, t2), (lifting, t1, t2)
    if isinstance(lifting, Hausdorff):
        seen["empty sets"] += not t1.members or not t2.members
    if isinstance(lifting, MaybeLift):
        seen["deadlocks"] += t1.value is None or t2.value is None
    for child, sub, u1, u2 in sub_pairs(lifting, functor, t1, t2):
        check_ratio_tree(child, sub, rel, u1, u2, seen)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_kind_lifts_through_one_integer_ratio(name):
    lifting, functor, _, _ = CASES[name]
    rng = random.Random(f"ratio-kernel/{name}")
    a, b = Carrier.of("a0", "a1", "a2", "a3"), Carrier.of("b0", "b1", "b2")
    seen = dict.fromkeys(("empty sets", "deadlocks"), 0)
    for make in (mixed_rel, coprime_rel):
        rel = make(rng, a, b)
        xs = [functor.random_element(rng, a) for _ in range(5)]
        ys = [functor.random_element(rng, b) for _ in range(4)]
        for view, _ in integer_views(rng, rel):
            for t1 in xs:
                for t2 in ys:
                    check_ratio_tree(lifting, functor, view, t1, t2, seen)
            # a block, the node's own or the default one, holds the per-pair lifts
            default = lambda *args: LiftingSpec.lift_block(lifting, *args)
            for block in (lifting.lift_block, default):
                den, rows = block(functor, view, xs, ys)
                assert [[F(n, den) for n in row] for row in rows] == \
                    [[lifting.lift(functor, view, t1, t2) for t2 in ys] for t1 in xs]
    kinds_met = set(kinds(lifting))
    assert seen["empty sets"] or "hausdorff" not in kinds_met
    assert seen["deadlocks"] or "maybe" not in kinds_met


def test_no_lifting_kind_defines_its_own_lift():
    # one evaluation per kind: the base class alone turns a ratio into a Fraction
    for cls in LIFTING_KINDS.values():
        assert cls.lift is LiftingSpec.lift and cls.lift_ratio is not LiftingSpec.lift_ratio

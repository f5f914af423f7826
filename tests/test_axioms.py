import random
from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit import AxiomConfig, axioms, check_axioms, core, liftings, logic, moss
from laxkit.axioms import rand_carrier, rand_hemimetric, rand_rel, rand_unit

from tests.conftest import ZOO, named_check, number_const
from tests.oracles import (
    fraction_rand_hemimetric,
    randint_carrier,
    randint_element,
    randint_rel,
    randint_unit,
)

FAST = AxiomConfig(trials=120, max_size=4, seed=11)


def names(report):
    return {c.name: c.passed for c in report.checks}


def test_hausdorff_sym_passes_everything():
    report = check_axioms(lk.Hausdorff("sym", lk.IdLift()), lk.PFin(lk.Id()), FAST)
    assert report.ok
    assert all(names(report).values())
    assert named_check(report, "L0").claimed


def test_hausdorff_left_fails_only_converse():
    report = check_axioms(lk.Hausdorff("left", lk.IdLift()), lk.PFin(lk.Id()), FAST)
    assert not report.ok
    assert report.consistent  # it never claimed converse preservation
    got = names(report)
    assert got == {
        "L1": True, "L2": True, "L3": True, "L4": True,
        "naturality": True, "hemimetric": True, "L0": False,
    }
    cex = named_check(report, "L0").counterexample
    assert cex.check == "L0"
    assert "r" in cex.data and "t1" in cex.data


def test_transport_liftings_pass():
    for lifting in (lk.KantorovichD(lk.IdLift()), lk.WassersteinD(lk.IdLift())):
        report = check_axioms(lifting, lk.DFin(lk.Id()), FAST)
        assert report.ok, names(report)


def test_weighted_step_composite():
    const = number_const(("0", "1/4"))
    functor = lk.PFin(lk.Pair(const, lk.Id()))
    lifting = lk.Hausdorff("left", lk.PairSum(F(1), F(1, 2), lk.ConstLift(), lk.IdLift()))
    report = check_axioms(lifting, functor, FAST)
    got = names(report)
    assert all(got[k] for k in ("L1", "L2", "L3", "L4", "naturality", "hemimetric"))
    assert report.consistent


def test_discounted_encoding_of_the_weighted_step():
    # same composite written with an explicit discount node on the successor
    const = number_const(("0", "1/4"))
    functor = lk.PFin(lk.Pair(const, lk.Id()))
    lifting = lk.Hausdorff("left", lk.PairSum(
        F(1), F(1), lk.ConstLift(), lk.Discount(F(1, 2), lk.IdLift())
    ))
    assert lifting.match(functor) == []  # bounds 1/4 + 1/2 <= 1
    report = check_axioms(lifting, functor, FAST)
    got = names(report)
    assert all(got[k] for k in ("L1", "L2", "L3", "L4", "naturality", "hemimetric"))


def test_half_label_hausdorff_composite(labelled_frames):
    *_, functor, lifting, _ = labelled_frames
    report = check_axioms(lifting, functor, AxiomConfig(trials=80, max_size=4, seed=3))
    assert report.ok  # symmetric composite, L0 included


def test_grid_lifting_checked_with_slack():
    cfg = AxiomConfig(trials=30, max_size=3, seed=5)
    report = check_axioms(
        lk.KantorovichGrid(("dia", "box"), F(1, 4)), lk.PFin(lk.Id()), cfg
    )
    assert report.ok  # inequalities get the documented grid slack


def test_reports_are_reproducible():
    cfg = AxiomConfig(trials=40, max_size=4, seed=21)
    lifting = lk.Hausdorff("left", lk.IdLift())
    first = check_axioms(lifting, lk.PFin(lk.Id()), cfg)
    second = check_axioms(lifting, lk.PFin(lk.Id()), cfg)
    a = named_check(first, "L0").counterexample
    b = named_check(second, "L0").counterexample
    assert (a.trial, a.data) == (b.trial, b.data)


def test_random_hemimetrics_really_are_hemimetrics():
    rng = random.Random("gen-check")
    for _ in range(50):
        carrier = lk.Carrier(tuple(f"s{i}" for i in range(rng.randint(1, 5))))
        d = rand_hemimetric(rng, carrier, symmetric=False)
        assert lk.is_hemimetric(d)
        p = rand_hemimetric(rng, carrier, symmetric=True)
        assert lk.is_pseudometric(p)


@pytest.mark.parametrize("symmetric", [False, True])
def test_integer_hemimetric_closure_matches_the_fraction_oracle(symmetric):
    for seed in range(3000):
        carrier = lk.Carrier(tuple(f"a{i}" for i in range(1 + seed % 5)))
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        d = rand_hemimetric(rng, carrier, symmetric)
        assert d == fraction_rand_hemimetric(oracle_rng, carrier, symmetric), seed
        assert rng.getstate() == oracle_rng.getstate()  # the same draws


@pytest.mark.parametrize("lifting, functor, bound", [
    (lk.Hausdorff("sym", lk.IdLift()), lk.PFin(lk.Id()), 6918),
    (lk.KantorovichD(lk.IdLift()), lk.DFin(lk.Id()), 10969),
], ids=["hausdorff-sym", "kantorovich"])
def test_law_suite_builds_few_fractions(lifting, functor, bound, monkeypatch):
    """Fractions built by one law-suite run stay at most 0.6x the count
    measured while composition and the hemimetric closure ran on
    Fractions: 6918 for hausdorff-sym and 10969 for kantorovich."""
    real = F.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(None)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    check_axioms(lifting, functor, AxiomConfig(trials=25, max_size=5, seed=0))
    monkeypatch.undo()
    assert len(built) <= 0.6 * bound


def test_choice_over_a_range_draws_as_randrange():
    """rng.choice(range(a, b)) makes the one _randbelow(b - a) call that
    rng.randrange(a, b) makes: the same value, with the rng left in the
    same state, so draws that index ranges keep randrange's stream."""
    bounds = ([(0, k + 1) for k in range(4)] + [(1, k + 1) for k in range(1, 4)]
              + [(1, 7), (1, 65), (3, 2**40)])
    for seed in range(500):
        rng, oracle = random.Random(seed), random.Random(seed)
        for a, b in bounds:
            assert rng.choice(range(a, b)) == oracle.randrange(a, b), seed
            assert rng.getstate() == oracle.getstate(), seed


@pytest.mark.parametrize("functor", ZOO, ids=["pfin", "dfin", "maybe-dfin", "labelled-pfin"])
def test_table_draws_match_the_randint_oracle(functor):
    """Every draw from the tables equals the randint oracle's draw and leaves
    the rng in the same state, so the law suite's stream is the randint one."""
    for seed in range(250):
        rng, oracle = random.Random(seed), random.Random(seed)

        def same(got, want):
            assert got == want, seed
            assert rng.getstate() == oracle.getstate(), seed
            return got

        a = same(rand_carrier(rng, "a", 5), randint_carrier(oracle, "a", 5))
        b = same(rand_carrier(rng, "b", 3), randint_carrier(oracle, "b", 3))
        same(rand_unit(rng), randint_unit(oracle))
        same(rand_rel(rng, a, b), randint_rel(oracle, a, b))
        symmetric = seed % 2 == 0
        same(rand_hemimetric(rng, a, symmetric), fraction_rand_hemimetric(oracle, a, symmetric))
        for carrier in (a, b, a):
            same(functor.random_element(rng, carrier), randint_element(oracle, functor, carrier))


SHIPPED_SUITES = [
    (lk.Hausdorff("sym", lk.IdLift()), lk.PFin(lk.Id())),
    (lk.Hausdorff("left", lk.IdLift()), lk.PFin(lk.Id())),
    (lk.KantorovichD(lk.IdLift()), lk.DFin(lk.Id())),
    (lk.MaybeLift(lk.WassersteinD(lk.IdLift())), lk.Maybe(lk.DFin(lk.Id()))),
    (lk.Hausdorff("left", lk.PairSum(F(1), F(1, 2), lk.ConstLift(), lk.IdLift())),
     lk.PFin(lk.Pair(number_const(("0", "1/4")), lk.Id()))),
]


def test_unchecked_relations_of_a_law_suite_pass_the_check(monkeypatch):
    """Each relation a law suite builds without FuzzyRel's entry check (its
    draws, compose, converse, graph and diagonal, the converses of shrink
    candidates included) holds Fractions in [0, 1], is what the checked
    constructor builds from the same rows, and carries tuple rows of
    integers that are its entries times their denominator."""
    real = lk.FuzzyRel._of_units.__func__
    built = []

    def checked(cls, source, target, values, scaled):
        rel = real(cls, source, target, values, scaled)
        assert all(type(x) is F for row in values for x in row)
        assert lk.FuzzyRel(source, target, values) == rel
        built.append(rel)
        return rel

    monkeypatch.setattr(lk.FuzzyRel, "_of_units", classmethod(checked))
    for lifting, functor in SHIPPED_SUITES:
        check_axioms(lifting, functor, AxiomConfig(trials=20, max_size=4, seed=2))
    assert len(built) > 1000
    assert not any(rel.scaled is None for rel in built)
    for rel in built:
        den, ints = rel.scaled
        assert type(ints) is tuple and all(type(row) is tuple for row in ints)
        assert [[F(k, den) for k in row] for row in ints] == [list(row) for row in rel.values]


@pytest.mark.parametrize("lifting, functor, fractions", [
    (lk.Hausdorff("sym", lk.IdLift()), lk.PFin(lk.Id()), 212),
    (lk.KantorovichD(lk.IdLift()), lk.DFin(lk.Id()), 435),
], ids=["hausdorff-sym", "kantorovich"])
def test_law_suite_draws_build_and_check_no_fractions(lifting, functor, fractions,
                                                      monkeypatch):
    """With the draws indexing tables, one law-suite run builds at most 212
    (hausdorff-sym) and 435 (kantorovich) Fractions, where a Fraction built
    per draw made 1263 and 2312, and drawn distributions built through
    fdist made 447 (kantorovich), and runs at most 280 unit checks, where
    re-checking every drawn relation made 3189."""
    real_new, real_as_unit = F.__new__, core.as_unit
    built, checks = [], []

    def counted(cls, *args, **kwargs):
        built.append(None)
        return real_new(cls, *args, **kwargs)

    def counted_as_unit(value):
        checks.append(None)
        return real_as_unit(value)

    monkeypatch.setattr(F, "__new__", counted)
    for module in (core, logic, moss):
        monkeypatch.setattr(module, "as_unit", counted_as_unit)
    check_axioms(lifting, functor, AxiomConfig(trials=25, max_size=5, seed=0))
    monkeypatch.undo()
    assert len(built) <= fractions
    assert len(checks) <= 280


# Lawless liftings, test-only (no JSON kind, so none registers in
# LIFTING_KINDS).  Each breaks one law, so the law suite's shrink path for
# that law runs; no shipped family fails anything but L0.  The reported,
# shrunk case is read back from the counterexample and every reported value
# is recomputed there.


class SpikeAtZero(lk.LiftingSpec):
    """Breaks L1: 1 exactly where the relation is 0, else 0."""

    functor_type, mismatch = lk.Id, "needs the identity functor"

    def lift_ratio(self, functor, rel, t1, t2):
        return int(rel.values[t1.value][t2.value] == 0), 1


class Squared(lk.LiftingSpec):
    """Breaks L2: the relation's value squared, superadditive."""

    functor_type, mismatch = lk.Id, "needs the identity functor"

    def lift_ratio(self, functor, rel, t1, t2):
        value = rel.values[t1.value][t2.value]
        return value.numerator ** 2, value.denominator ** 2


class CountMembers(lk.LiftingSpec):
    """Breaks L4: min(1, |t1|/4), whatever the relation."""

    functor_type, mismatch = lk.PFin, "needs a finite-set component"

    def lift_ratio(self, functor, rel, t1, t2):
        return min(len(t1.members), 4), 4


class FarSizes(lk.LiftingSpec):
    """Breaks the hemimetric law's triangle inequality: 1 between sets whose
    sizes differ by two or more, else 0, whatever the relation."""

    functor_type, mismatch = lk.PFin, "needs a finite-set component"

    def lift_ratio(self, functor, rel, t1, t2):
        return int(abs(len(t1.members) - len(t2.members)) >= 2), 1


class LeftClaimingSymmetry(lk.LiftingSpec):
    """Breaks the hemimetric law's symmetry: left Hausdorff, which keeps
    hemimetrics but not symmetry, claiming converse as a leaf kind does."""

    functor_type, mismatch = lk.PFin, "needs a finite-set component"

    def lift_ratio(self, functor, rel, t1, t2):
        return lk.Hausdorff("left", lk.IdLift()).lift_ratio(functor, rel, t1, t2)


def reported_rel(rows, source, target):
    """A rendered relation back as a FuzzyRel over the suite's carrier names."""
    return lk.FuzzyRel(lk.Carrier(tuple(f"{source}{i}" for i in range(len(rows)))),
                       lk.Carrier(tuple(f"{target}{j}" for j in range(len(rows[0])))),
                       tuple(tuple(F(x) for x in row) for row in rows))


def reported_set(text):
    """A rendered set of states, such as '{a1, a2}', back as a set element."""
    inner = text.strip("{}")
    return lk.fset(lk.IdEl(x) for x in inner.split(", ") if x)


@pytest.mark.parametrize("seed", range(4))
def test_l1_report_is_a_monotonicity_counterexample_after_shrinking(seed):
    lifting, functor = SpikeAtZero(), lk.Id()
    cfg = AxiomConfig(trials=120, max_size=4, seed=seed)
    cex = named_check(check_axioms(lifting, functor, cfg), "L1").counterexample
    assert cex is not None and cex.description == "smaller relation lifted to a larger value"
    smaller = reported_rel(cex.data["smaller"], "a", "b")
    larger = reported_rel(cex.data["larger"], "a", "b")
    t1, t2 = lk.IdEl(cex.data["t1"]), lk.IdEl(cex.data["t2"])
    # shrinking keeps the law's premise: the smaller relation stays below
    assert smaller.entrywise_le(larger)
    assert (lifting.lift(functor, smaller.view(), t1, t2)
            > lifting.lift(functor, larger.view(), t1, t2))
    # every entry went to 0, and the push to 1 leaves zeros alone
    assert all(x == 0 for row in smaller.values for x in row)


def test_shrinker_keeps_zeroed_entries_at_zero(monkeypatch):
    """On hausdorff-left's L0 counterexamples, an entry that a still-failing
    candidate holds at 0 (the push-to-0 pass zeroed it) is 0 in the report."""
    real = axioms._shrink_rel
    shrunk = []

    def recorded(rel, still_fails):
        accepted = []

        def recording(candidate):
            fails = still_fails(candidate)
            if fails:
                accepted.append(candidate)
            return fails

        shrunk.append((rel, accepted, real(rel, recording)))
        return shrunk[-1][2]

    monkeypatch.setattr(axioms, "_shrink_rel", recorded)
    lifting, functor = lk.Hausdorff("left", lk.IdLift()), lk.PFin(lk.Id())
    for seed in range(20):
        check_axioms(lifting, functor, AxiomConfig(trials=20, max_size=5, seed=seed))
    zeroed = 0
    for rel, accepted, result in shrunk:
        for i, row in enumerate(rel.values):
            for j, x in enumerate(row):
                if x != 0 and any(c.values[i][j] == 0 for c in accepted):
                    zeroed += 1
                    assert result.values[i][j] == 0
    assert zeroed > 100


def test_l2_report_is_recomputed_at_the_shrunk_relation():
    lifting, functor = Squared(), lk.Id()
    cex = named_check(check_axioms(lifting, functor, FAST), "L2").counterexample
    assert cex is not None and cex.description == (
        "composite relation lifted above the composed bound")
    r = reported_rel(cex.data["r"], "a", "b")
    s = reported_rel(cex.data["s"], "b", "c")
    t1, t2, t3 = (lk.IdEl(cex.data[k]) for k in ("t1", "t2", "t3"))
    lhs = lifting.lift(functor, lk.compose(r, s).view(), t1, t3)
    rhs = lk.sat_add(lifting.lift(functor, r.view(), t1, t2),
                     lifting.lift(functor, s.view(), t2, t3))
    assert lhs > rhs
    # rows other than t1's are never read, so the shrinker settled them at 0
    assert all(x == 0 for a, row in zip(r.source.elements, r.values) if a != t1.value
               for x in row)


def test_l4_reports_the_value_at_the_shrunk_element():
    lifting, functor = CountMembers(), lk.PFin(lk.Id())
    cfg = AxiomConfig(trials=200, max_size=5, seed=11)
    cex = named_check(check_axioms(lifting, functor, cfg), "L4").counterexample
    assert cex is not None and cex.description == "epsilon-diagonal lifted above epsilon"
    eps, t = F(cex.data["eps"]), reported_set(cex.data["t"])
    carrier = lk.Carrier(tuple(m.value for m in t.members))
    got = lifting.lift(functor, lk.diagonal(carrier, eps).view(), t, t)
    assert F(cex.data["got"]) == got
    assert got > eps
    # shrunk: dropping any one member no longer breaks the law
    for i in range(len(t.members)):
        smaller = lk.SetEl(t.members[:i] + t.members[i + 1:])
        assert lifting.lift(functor, lk.diagonal(carrier, eps).view(), smaller, smaller) <= eps


def test_hemimetric_reports_a_lost_triangle_and_a_lost_symmetry():
    lifting, functor = FarSizes(), lk.PFin(lk.Id())
    cex = named_check(check_axioms(lifting, functor, FAST), "hemimetric").counterexample
    assert cex.description == "lifted hemimetric lost the triangle inequality"
    d = reported_rel(cex.data["d"], "a", "a")
    t1, t2, t3 = (reported_set(cex.data[k]) for k in ("t1", "t2", "t3"))
    lhs = lifting.lift(functor, d.view(), t1, t3)
    assert (F(cex.data["lhs"]), F(cex.data["rhs"])) == (lhs, lk.sat_add(
        lifting.lift(functor, d.view(), t1, t2), lifting.lift(functor, d.view(), t2, t3)))
    assert lhs > F(cex.data["rhs"])
    lifting = LeftClaimingSymmetry()
    assert lifting.claims_converse(functor)
    cex = named_check(check_axioms(lifting, functor, FAST), "hemimetric").counterexample
    assert cex.description == "lifted pseudometric lost symmetry"
    d = reported_rel(cex.data["d"], "a", "a")
    t1, t2 = reported_set(cex.data["t1"]), reported_set(cex.data["t2"])
    assert lifting.lift(functor, d.view(), t1, t2) != lifting.lift(functor, d.view(), t2, t1)

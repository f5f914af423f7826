"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s`).  All
comparisons are exact rational equality unless a criterion states an
explicit bound (the grid oracle's 1/16, the fixpoint residual).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import laxkit as lk
from laxkit import (
    AxiomConfig,
    Carrier,
    IdEl,
    behavioural_distance,
    check_axioms,
    companion,
    distance_chain,
    evaluate,
    fset,
    lift_value,
    logical_distance,
    moss_modality,
    sup_distance,
    synthesize_levels,
    witness_value,
)
from laxkit.axioms import rand_carrier, rand_element, rand_rel, rand_unit
from laxkit.cli import main
from laxkit.logic import Neg, semantics
from laxkit.systems import disjoint_union
from tests.oracles import (
    min_sup_over_set_couplings,
    transport_value_by_vertex_enumeration,
)
from tests.conftest import fixture_path, number_const
from tests.test_logic import plain_ts, random_formula

SET_FUNCTOR = lk.PFin(lk.Id())
DIST_FUNCTOR = lk.DFin(lk.Id())
H_SYM = lk.Hausdorff("sym", lk.IdLift())
H_LEFT = lk.Hausdorff("left", lk.IdLift())


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description} "
          f"({time.monotonic() - started:.1f}s)")


def labelled_bundle():
    const = number_const(("0", "1/5", "2/5", "7/10", "4/5"))
    functor = lk.Pair(const, lk.PFin(lk.Id()))
    lifting = lk.PairSum(F(1, 2), F(1, 2), lk.ConstLift(),
                         lk.Hausdorff("sym", lk.IdLift()))
    return functor, lifting


def rand_labelled_system(rng, functor, max_states):
    labels = functor.left.labels.elements
    carrier = Carrier(tuple(f"s{i}" for i in range(rng.randint(1, max_states))))
    alpha = {
        s: lk.PairEl(
            lk.ConstEl(rng.choice(labels)),
            fset(IdEl(x) for x in carrier.elements if rng.random() < 0.4),
        )
        for s in carrier.elements
    }
    return lk.Coalgebra.of(functor, carrier, alpha)


def test_criterion_1_worked_example_exactness(capsys):
    with capsys.disabled(), criterion(1, "bundled certificate reproduces the lifted "
                                         "values 1/5, 1/10, 1/20 exactly"):
        started = time.monotonic()
        code = main([
            "check-cert",
            "--cert", fixture_path("labelled_kripke_cert.json"),
            "--system", fixture_path("labelled_kripke_a.json"),
            "--system", fixture_path("labelled_kripke_b.json"),
            "--lifting", fixture_path("half_label_hausdorff.json"),
            "--output", "/tmp/laxkit_accept1.json",
        ])
        elapsed = time.monotonic() - started
        assert code == 0
        report = json.load(open("/tmp/laxkit_accept1.json"))
        assert report["verdict"] == "ok"
        lifted = {tuple(row["pair"]): row["lifted"] for row in report["forward"]}
        assert lifted == {
            ("a1", "b1"): "1/5", ("a2", "b3"): "1/10", ("a3", "b2"): "1/20",
        }
        assert all(row["slack"] == "0" for row in report["forward"])
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_fixpoint_engine(capsys):
    with capsys.disabled(), criterion(2, "exact fixpoint in <= 3 iterations with "
                                         "distance(a1,b1) = 1/5 and tight listed pairs"):
        functor, lifting = labelled_bundle()

        def state(label, succs):
            return lk.PairEl(lk.ConstEl(label), fset(IdEl(s) for s in succs))

        sys_a = lk.Coalgebra.of(functor, Carrier.of("a1", "a2", "a3"), {
            "a1": state("7/10", ["a2", "a3"]),
            "a2": state("1/5", []), "a3": state("4/5", []),
        })
        sys_b = lk.Coalgebra.of(functor, Carrier.of("b1", "b2", "b3"), {
            "b1": state("2/5", ["b2", "b3"]),
            "b2": state("7/10", []), "b3": state("0", []),
        })
        result = behavioural_distance(lifting, sys_a, sys_b)
        assert result.converged and result.residual == 0
        assert result.iterations <= 3
        assert result.matrix.at("a1", "b1") == F(1, 5)
        listed = {("a1", "b1"): F(1, 5), ("a2", "b3"): F(1, 10), ("a3", "b2"): F(1, 20)}
        for pair, claimed in listed.items():
            assert claimed - result.matrix.at(*pair) == 0  # certificate gap 0


def test_criterion_3_axiom_suites(capsys):
    with capsys.disabled(), criterion(3, "law suites: 500 exact trials for the four "
                                         "liftings; one-sided variant yields a "
                                         "converse counterexample"):
        started = time.monotonic()
        cfg = AxiomConfig(trials=500, max_size=5, seed=0)
        const = number_const(("0", "1/4"))
        weighted = lk.Hausdorff(
            "left", lk.PairSum(F(1), F(1, 2), lk.ConstLift(), lk.IdLift())
        )
        weighted_functor = lk.PFin(lk.Pair(const, lk.Id()))
        suites = [
            ("set lifting", H_SYM, SET_FUNCTOR, True),
            ("transport lifting K", lk.KantorovichD(lk.IdLift()), DIST_FUNCTOR, True),
            ("transport lifting W", lk.WassersteinD(lk.IdLift()), DIST_FUNCTOR, True),
            ("weighted-step composite", weighted, weighted_functor, False),
        ]
        for name, lifting, functor, expect_l0 in suites:
            report = check_axioms(lifting, functor, cfg)
            for check in ("L1", "L2", "L3", "L4", "naturality", "hemimetric"):
                assert report.by_name(check).passed, (name, check)
            if expect_l0:
                assert report.by_name("L0").passed, name
        left_report = check_axioms(H_LEFT, SET_FUNCTOR, cfg)
        cex = left_report.by_name("L0").counterexample
        assert cex is not None and cex.data
        elapsed = time.monotonic() - started
        assert elapsed <= 60, f"took {elapsed:.1f}s"


def test_criterion_4_transport_duality(capsys):
    with capsys.disabled(), criterion(4, "sup-over-pairs equals inf-over-couplings on "
                                         "200 distribution instances, certified by "
                                         "exhaustive vertex enumeration, exactly"):
        rng = random.Random("acceptance-4")
        kant = lk.KantorovichD(lk.IdLift())
        wass = lk.WassersteinD(lk.IdLift())
        for _ in range(200):
            a = rand_carrier(rng, "a", 3)
            b = rand_carrier(rng, "b", 3)
            rel = rand_rel(rng, a, b)
            t1 = rand_element(rng, DIST_FUNCTOR, a)
            t2 = rand_element(rng, DIST_FUNCTOR, b)
            k = lift_value(kant, DIST_FUNCTOR, rel.view(), t1, t2)
            w = lift_value(wass, DIST_FUNCTOR, rel.view(), t1, t2)
            mu = [p for _, p in t1.pairs]
            nu = [p for _, p in t2.pairs]
            cost = [[rel.at(x.value, y.value) for y, _ in t2.pairs]
                    for x, _ in t1.pairs]
            enumerated = transport_value_by_vertex_enumeration(mu, nu, cost)
            assert k == w == enumerated


def test_criterion_5_set_couplings_and_grid(capsys):
    with capsys.disabled(), criterion(5, "set lifting equals min-over-couplings on 200 "
                                         "instances; grid oracle within 1/16 of the "
                                         "one-sided closed form on 100 instances"):
        rng = random.Random("acceptance-5")
        for _ in range(200):
            a = Carrier(tuple(f"a{i}" for i in range(4)))
            b = Carrier(tuple(f"b{i}" for i in range(4)))
            rel = rand_rel(rng, a, b)
            u = sorted(rng.sample(a.elements, rng.randint(0, 4)))
            v = sorted(rng.sample(b.elements, rng.randint(0, 4)))
            t1 = fset(IdEl(x) for x in u)
            t2 = fset(IdEl(y) for y in v)
            direct = lift_value(H_SYM, SET_FUNCTOR, rel.view(), t1, t2)
            coupled = min_sup_over_set_couplings(
                len(u), len(v), lambda i, j: rel.at(u[i], v[j])
            )
            assert direct == coupled
        step = F(1, 16)
        grid = lk.KantorovichGrid(("dia",), step)
        assert lk.grid_error_bound(
            [lk.standard_modalities(SET_FUNCTOR)["dia"]], step
        ) == step
        for _ in range(100):
            a = rand_carrier(rng, "a", 3)
            b = rand_carrier(rng, "b", 3)
            rel = rand_rel(rng, a, b)
            t1 = rand_element(rng, SET_FUNCTOR, a)
            t2 = rand_element(rng, SET_FUNCTOR, b)
            closed = lift_value(H_LEFT, SET_FUNCTOR, rel.view(), t1, t2)
            approx = lift_value(grid, SET_FUNCTOR, rel.view(), t1, t2)
            assert abs(closed - approx) <= step


def test_criterion_6_derived_modalities_recover_the_lifting(capsys):
    with capsys.disabled(), criterion(6, "derived-modality witnesses attain every "
                                         "lifted value exactly and 1000 random "
                                         "witness pairs never exceed it"):
        rng = random.Random("acceptance-6")
        labelled_functor, labelled_lifting = labelled_bundle()
        cases = [(SET_FUNCTOR, H_SYM), (labelled_functor, labelled_lifting)]
        for index in range(100):
            functor, lifting = cases[index % 2]
            a = rand_carrier(rng, "a", 4)
            b = rand_carrier(rng, "b", 4)
            rel = rand_rel(rng, a, b)
            t1 = rand_element(rng, functor, a)
            t2 = rand_element(rng, functor, b)
            direct = lift_value(lifting, functor, rel.view(), t1, t2)
            assert witness_value(lifting, functor, rel, t1, t2) == direct
            for _ in range(10):  # 1000 random witness pairs in total
                shape = rand_element(rng, functor, rand_carrier(rng, "i", 3))
                mod = moss_modality(shape, lifting, functor)
                left = tuple(
                    {x: rand_unit(rng) for x in a.elements}
                    for _ in range(mod.arity)
                )
                right = tuple(companion(rel, f) for f in left)
                value = lk.sat_sub(mod.evaluator(t1, left), mod.evaluator(t2, right))
                assert value <= direct


def test_criterion_7_characteristic_logic(capsys):
    with capsys.disabled(), criterion(7, "rank-n logical distance equals the chain for "
                                         "n <= 5 on 20 random systems; rank-10 sup "
                                         "sits within the reported residual"):
        rng = random.Random("acceptance-7")
        functor, lifting = labelled_bundle()
        for _ in range(10):  # ten pairs = twenty random systems
            sys_a = rand_labelled_system(rng, functor, 6)
            sys_b = rand_labelled_system(rng, functor, 6)
            chain = distance_chain(lifting, sys_a, sys_b, 5)
            for n in range(6):
                assert logical_distance(sys_a, sys_b, lifting, n) == chain[n]
            # every entry is witnessed by its synthesized formula, exactly
            union, inj1, inj2 = disjoint_union(sys_a, sys_b)
            formulas = synthesize_levels(union, 3)[3]
            chain3 = distance_chain(lifting, sys_a, sys_b, 3)[3]
            for b in sys_b.carrier.elements:
                table = semantics(formulas[inj2[b]], union, lifting)
                assert table[inj2[b]] == 0
                for a in sys_a.carrier.elements:
                    gap = lk.sat_sub(table[inj1[a]], table[inj2[b]])
                    assert gap == chain3.at(a, b)
            # depth-10 logic approximates the limit within the residual
            at_ten = behavioural_distance(lifting, sys_a, sys_b, tol=0, max_iter=10)
            logic_ten = logical_distance(sys_a, sys_b, lifting, 10)
            assert logic_ten == at_ten.matrix
            limit = behavioural_distance(lifting, sys_a, sys_b, tol=0, max_iter=60)
            assert sup_distance(logic_ten, limit.matrix) <= at_ten.residual


def test_criterion_8_logic_property_suite(capsys):
    with capsys.disabled(), criterion(8, "1000 random formulas stay below behavioural "
                                         "distance; negation duality is exact for the "
                                         "dual-closed sup/inf pair"):
        rng = random.Random("acceptance-8")
        mods = [("dia", 1), ("box", 1)]
        checked = 0
        while checked < 1000:
            names = tuple(f"s{i}" for i in range(rng.randint(1, 5)))
            edges = {
                s: [t for t in names if rng.random() < 0.4] for s in names
            }
            system = plain_ts(edges)
            fixpoint = behavioural_distance(H_SYM, system, system, max_iter=400)
            assert fixpoint.converged and fixpoint.residual == 0
            for _ in range(50):
                phi = random_formula(rng, mods, 4)
                tables = {s: evaluate(phi, system, s) for s in names}
                for x in names:
                    assert evaluate(Neg(phi), system, x) == 1 - tables[x]
                    for y in names:
                        assert lk.sat_sub(tables[x], tables[y]) <= fixpoint.matrix.at(x, y)
                checked += 1

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import laxkit as lk
from laxkit import (
    Certificate,
    StructureError,
    behavioural_distance,
    check_certificate,
    compose,
    converse,
    distance_chain,
    diagonal,
    lift_value,
)
from laxkit import distance, functors, liftings
from laxkit.axioms import rand_rel
from laxkit.distance import check_setup
from laxkit.jsonio import decode_certificate, decode_lifting, decode_system, load_json
from laxkit.liftings import LIFTING_KINDS, LiftingSpec
from tests.conftest import (CASES, DIST, KANT, fixture_path, kinds, rand_system, rel_from,
                            systems)
from tests.oracles import (full_recompute_distance, least_certificate_gap, sup_distance,
                           two_pass_certificate)

# Full fixpoint matrix for the labelled-frame pair, worked out by hand:
# rows a1..a3, columns b1..b3.
FRAMES_FIXPOINT = (
    (F(1, 5), F(1, 2), F(17, 20)),
    (F(3, 5), F(1, 4), F(1, 10)),
    (F(7, 10), F(1, 20), F(2, 5)),
)


def test_certificate_worked_example(labelled_frames):
    sys_a, sys_b, _, lifting, cert = labelled_frames
    verdict = check_certificate(lifting, sys_a, sys_b, cert)
    assert verdict.ok
    listed = {row.pair: row.claimed - row.lifted for row in verdict.forward}
    assert listed == {("a1", "b1"): 0, ("a2", "b3"): 0, ("a3", "b2"): 0}
    assert verdict.backward is not None
    assert all(row.claimed == row.lifted for row in verdict.backward)


def test_all_one_certificate_is_vacuous(labelled_frames):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    cert = Certificate(
        lk.FuzzyRel.constant(sys_a.carrier, sys_b.carrier, F(1)), "bisimulation"
    )
    verdict = check_certificate(lifting, sys_a, sys_b, cert)
    assert verdict.ok
    assert verdict.forward == () and verdict.backward == ()


def test_tightened_certificate_fails(labelled_frames):
    sys_a, sys_b, _, lifting, cert = labelled_frames
    rel = rel_from(sys_a.carrier, sys_b.carrier, {
        ("a1", "b1"): F(3, 20), ("a2", "b3"): F(1, 10), ("a3", "b2"): F(1, 20),
    })
    verdict = check_certificate(lifting, sys_a, sys_b, Certificate(rel, "simulation"))
    assert not verdict.ok
    bad = [(r.pair, r.claimed - r.lifted) for r in verdict.forward if r.claimed < r.lifted]
    assert bad == [(("a1", "b1"), F(-1, 20))]


def test_fixpoint_worked_example(labelled_frames):
    sys_a, sys_b, _, lifting, cert = labelled_frames
    chain = distance_chain(lifting, sys_a, sys_b, 3)
    assert chain[1].at("a1", "b1") == F(3, 20)
    assert chain[2].at("a1", "b1") == F(1, 5)
    assert chain[3] == chain[2]
    result = behavioural_distance(lifting, sys_a, sys_b)
    assert result.converged and result.residual == 0
    assert result.iterations <= 3
    assert result.matrix.values == FRAMES_FIXPOINT
    # listed certificate pairs are tight
    for pair in (("a1", "b1"), ("a2", "b3"), ("a3", "b2")):
        assert result.matrix.at(*pair) == cert.relation.at(*pair)


def test_identical_systems_zero_on_the_diagonal(labelled_frames):
    sys_a, _, _, lifting, _ = labelled_frames
    result = behavioural_distance(lifting, sys_a, sys_a)
    assert result.converged
    assert all(result.matrix.at(a, a) == 0 for a in sys_a.carrier.elements)


def test_equivalent_states_reach_zero_matrix_in_one_iteration():
    functor = lk.PFin(lk.Id())
    system = lk.Coalgebra.of(functor, lk.Carrier.of("s"), {"s": lk.fset([lk.IdEl("s")])})
    result = behavioural_distance(lk.Hausdorff("sym", lk.IdLift()), system, system)
    assert result.converged and result.iterations == 1
    assert all(v == 0 for row in result.matrix.values for v in row)


def test_certificate_gap_worked_example(labelled_frames):
    sys_a, sys_b, _, lifting, cert = labelled_frames
    gap = least_certificate_gap(lifting, sys_a, sys_b, cert)
    # widest slack sits at (a2, b2): claimed 1 against distance 1/4
    assert gap == F(3, 4)
    fixpoint = behavioural_distance(lifting, sys_a, sys_b).matrix
    assert least_certificate_gap(
        lifting, sys_a, sys_b, Certificate(fixpoint, "simulation")
    ) == 0
    all_one = Certificate(
        lk.FuzzyRel.constant(sys_a.carrier, sys_b.carrier, F(1)), "simulation"
    )
    expected = max(1 - v for row in FRAMES_FIXPOINT for v in row)
    assert least_certificate_gap(lifting, sys_a, sys_b, all_one) == expected


def test_gap_requires_valid_certificate(labelled_frames):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    bogus = Certificate(
        lk.FuzzyRel.constant(sys_a.carrier, sys_b.carrier, F(0)), "simulation"
    )
    with pytest.raises(StructureError):
        least_certificate_gap(lifting, sys_a, sys_b, bogus)


def test_weighted_loops_geometric_chain(weighted_loops):
    sys_a, sys_b, _, lifting = weighted_loops
    chain = distance_chain(lifting, sys_a, sys_b, 12)
    # d_n = 1/4 * (1 + 1/2 + ... + 2^{1-n}) = 1/2 (1 - 2^{-n})
    for n, step in enumerate(chain):
        assert step.at("s", "t") == F(1, 2) * (1 - F(1, 2 ** n))
    # long-horizon run serves as the oracle for the tolerance stop
    long = behavioural_distance(lifting, sys_a, sys_b, tol=F(1, 2 ** 30), max_iter=120)
    assert long.converged
    short = behavioural_distance(lifting, sys_a, sys_b, tol=F(1, 100), max_iter=120)
    assert short.converged and short.residual <= F(1, 100)
    assert sup_distance(short.matrix, long.matrix) <= 2 * short.residual


def test_honest_non_convergence(weighted_loops):
    sys_a, sys_b, _, lifting = weighted_loops
    result = behavioural_distance(lifting, sys_a, sys_b, tol=0, max_iter=8)
    assert not result.converged
    assert result.residual == F(1, 2 ** 9)
    assert result.iterations == 8


def test_gap_bound_for_contracting_liftings(weighted_loops, labelled_frames):
    sys_a, sys_b, _, lifting = weighted_loops
    assert lifting.contraction_factor() == F(1, 2)
    result = behavioural_distance(lifting, sys_a, sys_b, tol=0, max_iter=8)
    # the remaining gap to the limit 1/2 is exactly residual * c/(1-c) here
    true_gap = F(1, 2) - result.matrix.at("s", "t")
    assert result.gap_bound == result.residual == true_gap
    # exact convergence leaves no gap
    frames = labelled_frames
    exact = behavioural_distance(frames[3], frames[0], frames[1])
    assert frames[3].contraction_factor() == F(1, 2)
    assert exact.gap_bound == 0
    # no contraction factor, no bound
    plain = behavioural_distance(
        lk.Hausdorff("sym", lk.IdLift()),
        *_two_plain_systems(),
    )
    assert plain.gap_bound is None


def _two_plain_systems():
    functor = lk.PFin(lk.Id())
    mk = lambda names, edges: lk.Coalgebra.of(
        functor, lk.Carrier(tuple(names)),
        {s: lk.fset(lk.IdEl(t) for t in edges.get(s, ())) for s in names},
    )
    return mk(["s", "r"], {"s": ["r"]}), mk(["u"], {"u": ["u"]})


def test_trace_is_the_chain(labelled_frames):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    result = behavioural_distance(lifting, sys_a, sys_b, keep_trace=True)
    chain = distance_chain(lifting, sys_a, sys_b, result.iterations)
    assert list(result.trace) == chain


def test_chain_is_monotone(labelled_frames, weighted_loops):
    for bundle in (labelled_frames[:2] + (labelled_frames[3],),
                   weighted_loops[:2] + (weighted_loops[3],)):
        sys_a, sys_b, lifting = bundle
        chain = distance_chain(lifting, sys_a, sys_b, 6)
        for lo, hi in zip(chain, chain[1:]):
            assert lo.entrywise_le(hi)


@dataclass(frozen=True)
class _Antitone(LiftingSpec):
    """2/3 * (1 - rel) at the successors: it raises the zero matrix, then
    lowers what it raised."""

    functor_type = lk.Id
    mismatch = "needs the identity functor"

    def lift_ratio(self, functor, rel, t1, t2):
        return 2 * (rel.den - rel.ints[t1.value][t2.value]), 3 * rel.den


def test_a_decreasing_chain_is_refused():
    carrier = lk.Carrier.of("s", "t")
    system = lk.Coalgebra.of(lk.Id(), carrier, {"s": lk.IdEl("t"), "t": lk.IdEl("s")})
    assert distance_chain(_Antitone(), system, system, 1)[1].values == ((F(2, 3),) * 2,) * 2
    message = "^iteration chain decreased; the lifting violates monotonicity$"
    for run in (lambda: behavioural_distance(_Antitone(), system, system),
                lambda: distance_chain(_Antitone(), system, system, 2),
                lambda: full_recompute_distance(_Antitone(), system, system)):
        with pytest.raises(StructureError, match=message):
            run()


def test_every_ok_certificate_bounds_the_distance(labelled_frames):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    fixpoint = behavioural_distance(lifting, sys_a, sys_b).matrix
    rng = random.Random("cert-bound")
    found = 0
    for _ in range(120):
        rel = rand_rel(rng, sys_a.carrier, sys_b.carrier)
        # push random candidates up; those that check must dominate the fixpoint
        verdict = check_certificate(lifting, sys_a, sys_b, Certificate(rel, "simulation"))
        if verdict.ok:
            found += 1
            assert fixpoint.entrywise_le(rel)
    assert found  # the all-one relation guarantees at least the vacuous case


def test_diagonal_is_a_simulation(labelled_frames, prob_deadlock):
    sys_a, _, _, lifting, _ = labelled_frames
    verdict = check_certificate(
        lifting, sys_a, sys_a, Certificate(diagonal(sys_a.carrier), "simulation")
    )
    assert verdict.ok
    system, _, plifting = prob_deadlock
    verdict = check_certificate(
        plifting, system, system, Certificate(diagonal(system.carrier), "simulation")
    )
    assert verdict.ok


def test_composition_of_ok_simulations(labelled_frames):
    sys_a, sys_b, _, lifting, cert = labelled_frames
    # R: A -> B from the fixture, S: B -> A its converse (both check out)
    r = cert.relation
    s = converse(r)
    assert check_certificate(lifting, sys_a, sys_b, Certificate(r, "simulation")).ok
    assert check_certificate(lifting, sys_b, sys_a, Certificate(s, "simulation")).ok
    composed = compose(r, s)
    verdict = check_certificate(lifting, sys_a, sys_a, Certificate(composed, "simulation"))
    assert verdict.ok


def test_fixpoint_is_a_fixpoint(labelled_frames):
    sys_a, sys_b, functor, lifting, _ = labelled_frames
    result = behavioural_distance(lifting, sys_a, sys_b)
    assert result.residual == 0
    for a in sys_a.carrier.elements:
        for b in sys_b.carrier.elements:
            image = lift_value(
                lifting, functor, result.matrix.view(), sys_a.step(a), sys_b.step(b)
            )
            assert image == result.matrix.at(a, b)


def test_single_system_distance_is_hemimetric(labelled_frames, prob_deadlock):
    sys_a, _, _, lifting, _ = labelled_frames
    matrix = behavioural_distance(lifting, sys_a, sys_a).matrix
    assert lk.is_pseudometric(matrix)  # converse-preserving lifting
    system, _, plifting = prob_deadlock
    matrix = behavioural_distance(plifting, system, system).matrix
    assert lk.is_pseudometric(matrix)


def test_one_sided_lifting_gives_hemimetric_only(weighted_loops):
    sys_a, _, functor, lifting = weighted_loops
    # two-state system where the asymmetric lifting separates directions
    const = functor.sub.left
    carrier = lk.Carrier.of("p", "q")
    system = lk.Coalgebra.of(functor, carrier, {
        "p": lk.fset([lk.PairEl(lk.ConstEl("0"), lk.IdEl("p"))]),
        "q": lk.fset([]),
    })
    matrix = behavioural_distance(lifting, system, system, tol=F(1, 1000)).matrix
    assert lk.is_hemimetric(matrix)
    assert not lk.is_pseudometric(matrix)  # deadlock simulates the loop one way


def test_check_setup_refuses_two_functors_and_a_misfit(labelled_frames, prob_deadlock):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    deadlock, _, deadlock_lifting = prob_deadlock
    check_setup(lifting, sys_a, sys_b)
    # every entry point that takes two systems refuses through check_setup
    for run in (check_setup, behavioural_distance,
                lambda *args: lk.logical_distance(args[1], args[2], args[0], 1)):
        with pytest.raises(StructureError) as err:
            run(lifting, sys_a, deadlock)
        assert str(err.value) == "the two systems must share a functor"
        with pytest.raises(StructureError) as err:
            run(deadlock_lifting, sys_a, sys_b)
        assert str(err.value) == ("lifting does not fit the system functor: "
                                  "<root>: MaybeLift needs an optional component")


# ---------------------------------------------------------------------------
# One pass for converse-preserving liftings: a bisimulation's backward rows
# are its forward rows transposed, checked against the two-pass oracle


def preserves_converse(lifting, functor):
    """Whether a bisimulation check may read its backward rows off the
    forward lifts: the lifting is exact and claims converse."""
    return lifting.approximation_slack() == 0 and lifting.claims_converse(functor)


def certificates(lifting, sys_a, sys_b, seed):
    """The fixpoint reached within 25 steps (valid when it converged and the
    lifting preserves converse) and two random relations (mostly violated;
    about a third of their entries are 1, so vacuous pairs are skipped)."""
    rng = random.Random(f"cert/{seed}")
    fixpoint = behavioural_distance(lifting, sys_a, sys_b, max_iter=25).matrix
    rels = [fixpoint] + [rand_rel(rng, sys_a.carrier, sys_b.carrier) for _ in range(2)]
    return [Certificate(rel, kind) for rel in rels for kind in ("simulation", "bisimulation")]


def counting(monkeypatch, module, name):
    """The list of the arguments of every later call of module.name."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_equals_two_pass_check(monkeypatch, name):
    calls = counting(monkeypatch, distance, "lift_value")
    verdicts = set()
    for seed in (0, 1, 2):
        lifting, sys_a, sys_b = systems(name, seed)
        for cert in certificates(lifting, sys_a, sys_b, seed):
            want = two_pass_certificate(lifting, sys_a, sys_b, cert)
            calls.clear()
            got = check_certificate(lifting, sys_a, sys_b, cert)
            assert got == want, (seed, cert)
            one_pass = cert.kind == "bisimulation" and preserves_converse(lifting, sys_a.functor)
            second = 0 if one_pass else len(got.backward or ())
            assert len(calls) == len(got.forward) + second
            verdicts.add((cert.kind, got.ok))
    # each case meets a violated bisimulation, and most a valid one too
    assert ("bisimulation", False) in verdicts


def test_one_pass_covers_every_exact_converse_kind():
    # the cases above that take one pass reach every kind that claims
    # converse; the grid claims it too but approximates, so never does
    covered, valid = set(), 0
    for name in CASES:
        lifting, sys_a, sys_b = systems(name, 0)
        if preserves_converse(lifting, sys_a.functor):
            covered |= set(kinds(lifting))
            fixpoint = behavioural_distance(lifting, sys_a, sys_b, max_iter=25)
            valid += fixpoint.converged and check_certificate(
                lifting, sys_a, sys_b, Certificate(fixpoint.matrix, "bisimulation")).ok
    assert covered == set(LIFTING_KINDS) - {"kantorovich-grid"}
    assert valid >= 5


def test_one_sided_bisimulation_takes_two_passes(monkeypatch):
    # left Hausdorff does not preserve converse: its backward rows are not
    # the forward rows transposed, so they are lifted over r° again
    calls = counting(monkeypatch, distance, "lift_value")
    differs = 0
    for seed in (0, 1, 2):
        lifting, sys_a, sys_b = systems("hausdorff-left", seed)
        for cert in certificates(lifting, sys_a, sys_b, seed)[1::2]:
            calls.clear()
            got = check_certificate(lifting, sys_a, sys_b, cert)
            assert got == two_pass_certificate(lifting, sys_a, sys_b, cert)
            assert len(calls) == len(got.forward) + len(got.backward)
            transposed = {row.pair[::-1]: row.lifted for row in got.forward}
            differs += any(row.lifted != transposed[row.pair] for row in got.backward)
    assert differs


def test_a_directed_label_metric_takes_two_passes(monkeypatch):
    # a const over a hemimetric that is not symmetric does not claim converse
    labels = lk.Carrier(("lo", "hi"))
    metric = lk.FuzzyRel.from_function(
        labels, labels, lambda x, y: F(1, 2) if (x, y) == ("hi", "lo") else F(0))
    functor = lk.Const(labels, metric)
    lifting = lk.ConstLift()
    sys_a = lk.Coalgebra.of(functor, lk.Carrier(("a0", "a1")),
                            {"a0": lk.ConstEl("lo"), "a1": lk.ConstEl("hi")})
    sys_b = lk.Coalgebra.of(functor, lk.Carrier(("b0", "b1")),
                            {"b0": lk.ConstEl("lo"), "b1": lk.ConstEl("hi")})
    rel = lk.FuzzyRel.from_function(
        sys_a.carrier, sys_b.carrier,
        lambda a, b: metric.at(sys_a.step(a).label, sys_b.step(b).label))
    cert = Certificate(rel, "bisimulation")
    calls = counting(monkeypatch, distance, "lift_value")
    got = check_certificate(lifting, sys_a, sys_b, cert)
    assert got == two_pass_certificate(lifting, sys_a, sys_b, cert)
    assert len(calls) == 8 and not got.ok
    bad = [(r.pair, r.claimed - r.lifted) for r in got.forward + got.backward
           if r.claimed < r.lifted]
    assert bad == [(("b1", "a0"), F(-1, 2))]


def test_bisimulation_solves_each_transport_once(monkeypatch):
    # under kantorovich a bisimulation costs the transport solves of a
    # simulation of the same relation
    solves = counting(monkeypatch, liftings, "min_cost_transport")
    rng = random.Random("cert/transport")
    sys_a, sys_b = (rand_system(rng, DIST, side, 5) for side in "ab")
    rel = rand_rel(rng, sys_a.carrier, sys_b.carrier)
    counts = {}
    for kind in ("simulation", "bisimulation"):
        solves.clear()
        verdict = check_certificate(KANT, sys_a, sys_b, Certificate(rel, kind))
        counts[kind] = len(solves)
    assert counts["simulation"] == len(verdict.forward) > 0
    assert counts["bisimulation"] == counts["simulation"]


# (systems, lifting, certificate) fixture files; a missing certificate is
# the diagonal of the left system, a simulation of it by itself
FIXTURE_CASES = {
    "labelled_kripke": (("labelled_kripke_a.json", "labelled_kripke_b.json"),
                        "half_label_hausdorff.json", "labelled_kripke_cert.json"),
    "prob_deadlock": (("prob_deadlock.json", "prob_deadlock.json"), "prob_lifting.json", None),
}


def _decoded(name):
    """Fresh systems, lifting and certificate decoded from the case's files."""
    (path_a, path_b), lifting_path, cert_path = FIXTURE_CASES[name]
    sys_a, sys_b = (decode_system(load_json(fixture_path(p)))[0] for p in (path_a, path_b))
    lifting = decode_lifting(load_json(fixture_path(lifting_path)))
    if cert_path is None:
        cert = Certificate(diagonal(sys_a.carrier), "simulation")
    else:
        cert = decode_certificate(load_json(fixture_path(cert_path)))
    return lifting, sys_a, sys_b, cert


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_lifts_read_elements_as_the_systems_carry_them(monkeypatch, name):
    """The chain, a certificate check and the structural modality lift the
    transition elements as they are: after decoding and synthesis, none of
    them builds a set or a distribution element."""
    built = []
    for factory in ("fset", "fdist"):
        real = getattr(functors, factory)

        def counted(items, real=real):
            built.append(real.__name__)
            return real(items)

        monkeypatch.setattr(functors, factory, counted)
    dist_case, cert_case, (lifting, sys_a, sys_b, _) = (_decoded(name) for _ in range(3))
    union = lk.disjoint_union(sys_a, sys_b)[0]
    formula = lk.synthesize(union, union.carrier.elements[0], 3)
    calls = {
        "distance": lambda: behavioural_distance(*dist_case[:3]),
        "certificate": lambda: check_certificate(*cert_case),
        "semantics": lambda: lk.semantics(formula, union, lifting),
    }
    counts = {}
    for call, run in calls.items():
        del built[:]
        run()
        counts[call] = len(built)
    assert counts == dict.fromkeys(calls, 0)


# ---------------------------------------------------------------------------
# Certificates under an approximate lifting: a row is accepted only when its
# claim clears the lifted value by the grid's slack


def item_two_systems():
    """s -> 1/2 a1 + 1/2 a2 with a1, a2 looping, against t -> b looping, and
    the simulation certificate with rows s: 1/12, a1: 1/3, a2: 0."""
    point = lambda x: lk.fdist([(lk.IdEl(x), F(1))])
    sys_a = lk.Coalgebra.of(DIST, lk.Carrier.of("s", "a1", "a2"), {
        "s": lk.fdist([(lk.IdEl("a1"), F(1, 2)), (lk.IdEl("a2"), F(1, 2))]),
        "a1": point("a1"), "a2": point("a2")})
    sys_b = lk.Coalgebra.of(DIST, lk.Carrier.of("t", "b"), {"t": point("b"), "b": point("b")})
    claims = {"s": F(1, 12), "a1": F(1, 3), "a2": F(0)}
    rel = lk.FuzzyRel.from_function(sys_a.carrier, sys_b.carrier, lambda a, b: claims[a])
    return sys_a, sys_b, Certificate(rel, "simulation")


def test_a_grid_leaves_a_certificate_within_its_slack_undecided():
    sys_a, sys_b, cert = item_two_systems()
    exact = check_certificate(KANT, sys_a, sys_b, cert)
    assert not exact.ok and (exact.slack, exact.undecided) == (0, 0)
    assert exact.forward[0] == distance.SlackRow(("s", "t"), F(1, 12), F(1, 6))
    grid = lk.KantorovichGrid(("E",), F(1, 2))
    verdict = check_certificate(grid, sys_a, sys_b, cert)
    # the grid lifts (s, t) to 1/12, its claim: "ok" would certify a row
    # the exact lifting violates
    assert verdict.forward[0] == distance.SlackRow(("s", "t"), F(1, 12), F(1, 12))
    assert all(r.lifted <= r.claimed < r.lifted + F(1, 2) for r in verdict.forward)
    assert (verdict.ok, verdict.slack, verdict.undecided) == (False, F(1, 2), 6)


def test_a_grid_without_an_error_bound_is_refused(monkeypatch):
    real = functors.DFin._modalities

    def unflagged(self):
        return {name: dataclasses.replace(lam, nonexpansive=False)
                for name, lam in real(self).items()}

    monkeypatch.setattr(functors.DFin, "_modalities", unflagged)
    functor = lk.DFin(lk.Id())
    sys_a, sys_b, cert = item_two_systems()
    sys_a, sys_b = (lk.Coalgebra(functor, s.carrier, s.alpha) for s in (sys_a, sys_b))
    with pytest.raises(StructureError) as err:
        check_certificate(lk.KantorovichGrid(("E",), F(1, 2)), sys_a, sys_b, cert)
    assert str(err.value) == ("modality E is not flagged nonexpansive; the grid oracle "
                              "carries no error bound for it")


GRID_AND_EXACT = {  # functor, grid modality, the exact lifting it approximates
    "dfin": (DIST, "E", KANT),
    "pfin": (lk.PFin(lk.Id()), "dia", lk.Hausdorff("left", lk.IdLift())),
}
CLAIMS = [F(k, 12) for k in range(13)]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(GRID_AND_EXACT)), step=st.sampled_from([F(1, 2), F(1, 3)]),
       seed=st.integers(0, 2 ** 32), kind=st.sampled_from(["simulation", "bisimulation"]),
       claims=st.lists(st.sampled_from(CLAIMS), min_size=9, max_size=9))
def test_a_row_the_grid_accepts_the_exact_lifting_accepts(name, step, seed, kind, claims):
    functor, modality, exact = GRID_AND_EXACT[name]
    rng = random.Random(seed)
    sys_a, sys_b = (rand_system(rng, functor, prefix, 3) for prefix in "ab")
    rel = lk.FuzzyRel(sys_a.carrier, sys_b.carrier,
                      tuple(tuple(claims[3 * i:3 * i + 3]) for i in range(3)))
    cert = Certificate(rel, kind)
    grid = check_certificate(lk.KantorovichGrid((modality,), step), sys_a, sys_b, cert)
    truth = check_certificate(exact, sys_a, sys_b, cert)
    rows = list(zip(grid.forward + (grid.backward or ()), truth.forward + (truth.backward or ())))
    assert all(g.pair == t.pair and g.claimed == t.claimed for g, t in rows)
    for g, t in rows:
        if g.claimed >= g.lifted + step:
            assert t.claimed >= t.lifted, (g, t)
    if grid.ok:
        assert truth.ok


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(GRID_AND_EXACT)), step=st.sampled_from([F(1, 2), F(1, 3)]),
       seed=st.integers(0, 2 ** 32))
def test_a_grid_distance_carries_its_slack_and_stays_below_the_exact_one(name, step, seed):
    # G <= L on every relation and both are monotone, so every grid iterate
    # lies below the exact one, and below the exact fixpoint
    functor, modality, exact = GRID_AND_EXACT[name]
    rng = random.Random(seed)
    sys_a, sys_b = (rand_system(rng, functor, prefix, 3) for prefix in "ab")
    grid = lk.KantorovichGrid((modality,), step)
    low = behavioural_distance(grid, sys_a, sys_b, max_iter=6)
    high = behavioural_distance(exact, sys_a, sys_b, max_iter=6)
    assert (low.slack, high.slack) == (step, 0)
    for g, e in zip(distance_chain(grid, sys_a, sys_b, 6), distance_chain(exact, sys_a, sys_b, 6)):
        assert g.entrywise_le(e)
    if high.converged:
        assert low.matrix.entrywise_le(high.matrix)


def test_a_grid_distance_without_an_error_bound_is_refused(monkeypatch):
    real = functors.DFin._modalities
    monkeypatch.setattr(functors.DFin, "_modalities", lambda self: {
        name: dataclasses.replace(lam, nonexpansive=False) for name, lam in real(self).items()})
    sys_a, sys_b, _ = item_two_systems()
    functor = lk.DFin(lk.Id())
    sys_a, sys_b = (lk.Coalgebra(functor, s.carrier, s.alpha) for s in (sys_a, sys_b))
    with pytest.raises(StructureError) as err:
        behavioural_distance(lk.KantorovichGrid(("E",), F(1, 2)), sys_a, sys_b)
    assert str(err.value) == ("modality E is not flagged nonexpansive; the grid oracle "
                              "carries no error bound for it")

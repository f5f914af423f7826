import os
import random
import sys
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import laxkit as lk

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def named_check(report, name):
    """The CheckResult of an AxiomReport's law called name."""
    return {c.name: c for c in report.checks}[name]


def number_const(values):
    labels = lk.Carrier(tuple(values))
    nums = {v: F(v) for v in values}
    metric = lk.FuzzyRel.from_function(labels, labels, lambda x, y: abs(nums[x] - nums[y]))
    return lk.Const(labels, metric)


# One seeded case per lifting shape, shared by the differential tests of the
# fixpoint (tests/test_incremental.py) and of certificates
# (tests/test_distance.py); together they cover every entry of LIFTING_KINDS.
LABELS = number_const(("0", "1/4", "3/5", "1"))
SET, DIST = lk.PFin(lk.Id()), lk.DFin(lk.Id())
H_SYM = lk.Hausdorff("sym", lk.IdLift())
H_LEFT = lk.Hausdorff("left", lk.IdLift())
KANT = lk.KantorovichD(lk.IdLift())

LABELLED_SET, LABELLED_DIST = lk.Pair(LABELS, SET), lk.Pair(LABELS, DIST)

# One functor per element shape: sets, distributions, optional values and
# labelled pairs; together their random elements reach every draw.
ZOO = [
    lk.PFin(lk.Id()),
    lk.DFin(lk.Id()),
    lk.Maybe(lk.DFin(lk.Id())),
    lk.Pair(number_const(("0", "1/2")), lk.PFin(lk.Id())),
]


def labelled(lifting):
    return lk.PairSum(F(1, 2), F(1, 2), lk.ConstLift(), lifting)


# name -> (lifting, functor, |A|, |B|)
CASES = {
    "id": (lk.IdLift(), lk.Id(), 4, 3),
    "const": (lk.ConstLift(), LABELS, 4, 3),
    "hausdorff-sym": (H_SYM, SET, 12, 5),
    "hausdorff-left": (labelled(H_LEFT), LABELLED_SET, 5, 4),
    "hausdorff-right": (labelled(lk.Hausdorff("right", lk.IdLift())), LABELLED_SET, 5, 11),
    "kantorovich": (labelled(KANT), LABELLED_DIST, 4, 4),
    "wasserstein": (lk.MaybeLift(lk.WassersteinD(lk.IdLift())), lk.Maybe(DIST), 3, 5),
    "pair-sum": (labelled(H_SYM), LABELLED_SET, 11, 4),
    "pair-max": (lk.PairMax(H_LEFT, KANT), lk.Pair(SET, DIST), 4, 3),
    "pair-max-sym": (lk.PairMax(H_SYM, KANT), lk.Pair(SET, DIST), 4, 3),
    "discount": (lk.Discount(F(1, 2), H_SYM), SET, 5, 5),
    "maybe": (lk.MaybeLift(KANT), lk.Maybe(DIST), 4, 4),
    # two transport nodes share one chain's warm starts
    "two-transports": (labelled(lk.PairMax(KANT, lk.WassersteinD(lk.IdLift()))),
                       lk.Pair(LABELS, lk.Pair(DIST, DIST)), 4, 4),
    "hausdorff-kantorovich": (lk.Hausdorff("sym", KANT), lk.PFin(DIST), 4, 3),
    "weighted-loops": (lk.Hausdorff("left", lk.PairSum(F(1), F(1, 2), lk.ConstLift(),
                                                       lk.IdLift())),
                       lk.PFin(lk.Pair(number_const(("0", "1/4")), lk.Id())), 4, 3),
    "grid-set": (lk.KantorovichGrid(("dia", "box"), F(1, 2)), SET, 3, 3),
    "grid-labelled": (lk.KantorovichGrid(("dia", "at-1/4"), F(1, 2)), LABELLED_SET, 3, 3),
    "grid-dist": (lk.KantorovichGrid(("dia", "box"), F(1, 3)), lk.Maybe(DIST), 3, 2),
}
def rand_system(rng, functor, prefix, size):
    carrier = lk.Carrier(tuple(f"{prefix}{i}" for i in range(size)))
    return lk.Coalgebra.of(functor, carrier, {
        s: functor.random_element(rng, carrier) for s in carrier.elements
    })


def systems(name, seed):
    lifting, functor, size_a, size_b = CASES[name]
    rng = random.Random(f"{name}/{seed}")
    return lifting, rand_system(rng, functor, "a", size_a), rand_system(rng, functor, "b", size_b)


def kinds(lifting):
    yield lifting.kind
    for name in lifting.child_fields:
        yield from kinds(getattr(lifting, name))


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3)
               | st.sampled_from(["0", "1", "1/2", "0.25", "3/2", "x", "dia", "at-0"])
               | st.text(max_size=4))


def json_values(keys, kinds):
    """Any JSON value; its objects draw their keys from `keys` and, as
    grammar nodes, their 'kind' from `kinds`."""
    def extend(children):
        fields = st.dictionaries(st.sampled_from(keys), children, max_size=3)
        node = st.builds(lambda kind, rest: {"kind": kind, **rest}, st.sampled_from(kinds), fields)
        return st.lists(children, max_size=3) | fields | node
    return st.recursive(JSON_LEAVES, extend, max_leaves=12)


def json_paths(value, at=()):
    """The path (a tuple of keys and indices) of every value inside value."""
    yield at
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from json_paths(child, at + (key,))


def replaced(value, path, new):
    """A copy of value with the value at path replaced by new."""
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = replaced(value[path[0]], path[1:], new)
    return out


@st.composite
def mutants(draw, valid, values):
    """valid with one value inside it, drawn by path, replaced by one of values."""
    path = draw(st.sampled_from(list(json_paths(valid))))
    return replaced(valid, path, draw(values))


def count_modality_tables(monkeypatch):
    """Record every functor node that builds its modality table.

    FunctorSpec.standard_modalities is the one place a table is built, on
    a call that finds none kept on the node; the list grows by the node
    on each such call.
    """
    built = []
    real = lk.FunctorSpec.standard_modalities

    def counted(functor):
        if "_modality_table" not in vars(functor):
            built.append(functor)
        return real(functor)

    monkeypatch.setattr(lk.FunctorSpec, "standard_modalities", counted)
    return built


def rel_from(source, target, entries, default=F(1)):
    return lk.FuzzyRel.from_function(
        source, target, lambda a, b: entries.get((a, b), default)
    )


@pytest.fixture(scope="session")
def labelled_frames():
    """Two small labelled Kripke frames, their lifting, and the tight
    bisimulation certificate between them."""
    const = number_const(("0", "1/5", "2/5", "7/10", "4/5"))
    functor = lk.Pair(const, lk.PFin(lk.Id()))

    def state(label, succs):
        return lk.PairEl(lk.ConstEl(label), lk.fset(lk.IdEl(s) for s in succs))

    sys_a = lk.Coalgebra.of(functor, lk.Carrier.of("a1", "a2", "a3"), {
        "a1": state("7/10", ["a2", "a3"]),
        "a2": state("1/5", []),
        "a3": state("4/5", []),
    })
    sys_b = lk.Coalgebra.of(functor, lk.Carrier.of("b1", "b2", "b3"), {
        "b1": state("2/5", ["b2", "b3"]),
        "b2": state("7/10", []),
        "b3": state("0", []),
    })
    lifting = lk.PairSum(F(1, 2), F(1, 2), lk.ConstLift(), lk.Hausdorff("sym", lk.IdLift()))
    rel = rel_from(sys_a.carrier, sys_b.carrier, {
        ("a1", "b1"): F(1, 5), ("a2", "b3"): F(1, 10), ("a3", "b2"): F(1, 20),
    })
    cert = lk.Certificate(rel, "bisimulation")
    return sys_a, sys_b, functor, lifting, cert


@pytest.fixture(scope="session")
def weighted_loops():
    """One-state weighted transition systems whose distance chain is an
    infinite geometric sum (limit 1/2, never attained)."""
    const = number_const(("0", "1/4"))
    functor = lk.PFin(lk.Pair(const, lk.Id()))
    lifting = lk.Hausdorff("left", lk.PairSum(F(1), F(1, 2), lk.ConstLift(), lk.IdLift()))
    sys_a = lk.Coalgebra.of(functor, lk.Carrier.of("s"), {
        "s": lk.fset([lk.PairEl(lk.ConstEl("0"), lk.IdEl("s"))]),
    })
    sys_b = lk.Coalgebra.of(functor, lk.Carrier.of("t"), {
        "t": lk.fset([lk.PairEl(lk.ConstEl("1/4"), lk.IdEl("t"))]),
    })
    return sys_a, sys_b, functor, lifting


@pytest.fixture(scope="session")
def prob_deadlock():
    """Probabilistic system with a deadlock state."""
    functor = lk.Maybe(lk.DFin(lk.Id()))
    system = lk.Coalgebra.of(functor, lk.Carrier.of("u0", "u1", "u2"), {
        "u0": lk.just(lk.fdist([(lk.IdEl("u1"), F(1, 3)), (lk.IdEl("u2"), F(2, 3))])),
        "u1": lk.just(lk.fdist([(lk.IdEl("u1"), F(1))])),
        "u2": lk.NOTHING,
    })
    lifting = lk.MaybeLift(lk.KantorovichD(lk.IdLift()))
    return system, functor, lifting

import random
from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit import Carrier
from laxkit.axioms import rand_carrier, rand_function, rand_unit
from laxkit.modalities import dual_of, is_dual_closed, resolve_modality
from tests.conftest import H_SYM, KANT, ZOO

# one lifting per ZOO functor, in order, for the Moss modalities
ZOO_LIFTINGS = [
    H_SYM,
    KANT,
    lk.MaybeLift(KANT),
    lk.PairSum(F(1, 2), F(1, 2), lk.ConstLift(), H_SYM),
]


def rand_tables(rng, carrier, arity):
    return tuple({x: rand_unit(rng) for x in carrier.elements} for _ in range(arity))


def modalities_under_test():
    """(functor, modality) for every standard modality of every ZOO functor,
    then for the Moss modalities of three random elements of each."""
    for functor in ZOO:
        for lam in functor.standard_modalities().values():
            yield functor, lam
    rng = random.Random("moss-shapes")
    for functor, lifting in zip(ZOO, ZOO_LIFTINGS):
        for _ in range(3):
            shape = functor.random_element(rng, rand_carrier(rng, "y", 3))
            yield functor, lk.moss_modality(shape, lifting, functor)


def test_registry_contents():
    assert set(lk.PFin(lk.Id()).standard_modalities()) == {"dia", "box"}
    assert set(lk.DFin(lk.Id()).standard_modalities()) == {"E"}
    assert set(lk.Maybe(lk.DFin(lk.Id())).standard_modalities()) == {"dia", "box"}
    labelled = ZOO[3].standard_modalities()
    assert {"at-0", "far-0", "dia", "box"} <= set(labelled)
    assert lk.PFin(lk.PFin(lk.Id())).standard_modalities() == {}


def test_aliases_resolve():
    mods = lk.PFin(lk.Id()).standard_modalities()
    assert resolve_modality(mods, "<>") is mods["dia"]
    assert resolve_modality(mods, "[]") is mods["box"]
    with pytest.raises(lk.StructureError):
        resolve_modality(mods, "E")


def test_dual_closure():
    assert is_dual_closed(lk.PFin(lk.Id()).standard_modalities())
    assert is_dual_closed(lk.DFin(lk.Id()).standard_modalities())
    assert is_dual_closed(ZOO[3].standard_modalities())  # symmetric label metric
    asym = Carrier.of("lo", "hi")
    metric = lk.FuzzyRel(asym, asym, ((F(0), F(1, 2)), (F(0), F(0))))
    assert not is_dual_closed(lk.Const(asym, metric).standard_modalities())


def test_naturality():
    rng = random.Random("nat-mod")
    for functor, lam in modalities_under_test():
        for _ in range(30):
            x = rand_carrier(rng, "x", 4)
            y = rand_carrier(rng, "y", 4)
            f = rand_function(rng, x, y)
            t = functor.random_element(rng, x)
            tables_y = rand_tables(rng, y, lam.arity)
            composed = tuple(
                {a: g[f[a]] for a in x.elements} for g in tables_y
            )
            assert lam.evaluator(t.map(lambda v: f[v]), tables_y) == \
                lam.evaluator(t, composed)


def test_monotone_and_nonexpansive_flags_hold():
    rng = random.Random("flag-mod")
    for functor, lam in modalities_under_test():
        assert lam.monotone and lam.nonexpansive
        for _ in range(30):
            x = rand_carrier(rng, "x", 4)
            t = functor.random_element(rng, x)
            lo = rand_tables(rng, x, lam.arity)
            bump = rand_tables(rng, x, lam.arity)
            hi = tuple(
                {a: min(F(1), lo[i][a] + bump[i][a]) for a in x.elements}
                for i in range(lam.arity)
            )
            assert lam.evaluator(t, lo) <= lam.evaluator(t, hi)
            other = rand_tables(rng, x, lam.arity)
            spread = max(
                (abs(lo[i][a] - other[i][a])
                 for i in range(lam.arity) for a in x.elements),
                default=F(0),
            )
            assert abs(lam.evaluator(t, lo) - lam.evaluator(t, other)) <= spread


def test_dual_equations_hold():
    rng = random.Random("dual-mod")
    for functor in ZOO:
        mods = functor.standard_modalities()
        if not is_dual_closed(mods):
            continue
        for name, lam in mods.items():
            dual = dual_of(mods, name)
            for _ in range(30):
                x = rand_carrier(rng, "x", 4)
                t = functor.random_element(rng, x)
                tables = rand_tables(rng, x, lam.arity)
                flipped = tuple(
                    {a: F(1) - tab[a] for a in x.elements} for tab in tables
                )
                assert dual.evaluator(t, tables) == 1 - lam.evaluator(t, flipped)


def test_expectation_is_self_dual():
    mods = lk.DFin(lk.Id()).standard_modalities()
    assert mods["E"].dual_name == "E"

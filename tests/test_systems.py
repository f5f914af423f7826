from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit import Carrier, Coalgebra, IdEl, PFin, Id, StructureError, fset
from laxkit.functors import DistEl
from laxkit.systems import disjoint_union, validate


def simple_ts(names, edges):
    carrier = Carrier(tuple(names))
    return Coalgebra.of(
        PFin(Id()), carrier,
        {s: fset(IdEl(t) for t in edges.get(s, ())) for s in names},
    )


def test_validate_worked_example(labelled_frames):
    sys_a, sys_b, *_ = labelled_frames
    assert validate(sys_a).ok
    assert validate(sys_b).ok


def test_validate_reports_bad_mass():
    functor = lk.DFin(Id())
    carrier = Carrier.of("x", "y")
    bad = DistEl(((IdEl("x"), F(1, 2)), (IdEl("y"), F(1, 3))))
    system = Coalgebra.of(functor, carrier, {"x": bad, "y": bad})
    report = validate(system)
    assert not report.ok
    assert any("mass 5/6" in msg for _, _, msg in report.errors())


def test_validate_reports_foreign_state():
    system = simple_ts(["s"], {"s": ["s"]})
    broken = Coalgebra.of(PFin(Id()), Carrier.of("s"), {"s": fset([IdEl("ghost")])})
    assert validate(system).ok
    report = validate(broken)
    assert not report.ok
    assert "alpha[s]" in report.errors()[0][1]


def test_validate_passes_dedup_warnings_through():
    system = simple_ts(["s"], {"s": ["s"]})
    report = validate(system, raw_alpha={"s": ["duplicate set member deduplicated"]})
    assert report.ok
    assert report.warnings()


def test_alpha_must_be_total():
    with pytest.raises(StructureError):
        Coalgebra.of(PFin(Id()), Carrier.of("a", "b"), {"a": fset([])})


def test_disjoint_union_worked_example(labelled_frames):
    sys_a, sys_b, *_ = labelled_frames
    union, inj1, inj2 = disjoint_union(sys_a, sys_b)
    assert len(union.carrier) == 6
    assert validate(union).ok
    # labels survive the embedding
    assert union.step(inj1["a1"]).left == sys_a.step("a1").left
    assert union.step(inj2["b1"]).left == sys_b.step("b1").left


def test_disjoint_union_with_empty_system():
    system = simple_ts(["s", "r"], {"s": ["r"]})
    empty = Coalgebra.of(PFin(Id()), Carrier(()), {})
    union, inj1, _ = disjoint_union(system, empty)
    assert union.carrier == system.carrier
    assert all(union.step(inj1[s]) == system.step(s) for s in system.carrier.elements)


def test_self_union_renames():
    system = simple_ts(["s", "r"], {"s": ["r"], "r": ["s"]})
    union, inj1, inj2 = disjoint_union(system, system)
    assert len(union.carrier) == 4
    assert inj1["s"] != inj2["s"]
    assert union.step(inj2["s"]) == fset([IdEl(inj2["r"])])


def test_union_requires_same_functor(prob_deadlock):
    system, *_ = prob_deadlock
    other = simple_ts(["s"], {})
    with pytest.raises(StructureError):
        disjoint_union(system, other)


def test_union_of_validating_systems_validates():
    import random
    from laxkit.axioms import rand_carrier

    rng = random.Random("union-prop")
    functor = lk.Pair(lk.PFin(Id()), lk.DFin(Id()))
    for _ in range(20):
        c1 = rand_carrier(rng, "a", 4)
        c2 = rand_carrier(rng, "a", 4)  # same prefix forces renaming
        s1 = Coalgebra.of(functor, c1, {s: functor.random_element(rng, c1) for s in c1})
        s2 = Coalgebra.of(functor, c2, {s: functor.random_element(rng, c2) for s in c2})
        assert validate(s1).ok and validate(s2).ok
        union, _, _ = disjoint_union(s1, s2)
        assert validate(union).ok

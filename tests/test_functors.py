import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from laxkit import (
    Carrier,
    ConstEl,
    DFin,
    DistEl,
    Id,
    IdEl,
    Maybe,
    MaybeEl,
    NOTHING,
    PFin,
    Pair,
    PairEl,
    SetEl,
    StructureError,
    base,
    fdist,
    fset,
    just,
)
from laxkit.functors import FUNCTOR_KINDS, canonical_key
from laxkit.jsonio import decode_element, decode_functor, encode_element, encode_functor
from tests.conftest import number_const
from tests.oracles import fraction_fdist

FUNCTOR_ZOO = [
    PFin(Id()),
    DFin(Id()),
    Pair(PFin(Id()), DFin(Id())),
    Maybe(DFin(Id())),
    PFin(Pair(DFin(Id()), Id())),
    Maybe(PFin(Id())),
]


def carriers():
    return Carrier.of("x", "y", "z"), Carrier.of("u", "v")


def test_fset_dedups_and_sorts():
    el = fset([IdEl("b"), IdEl("a"), IdEl("b")])
    assert el == fset([IdEl("a"), IdEl("b")])
    assert [m.value for m in el.members] == ["a", "b"]


def test_fdist_merges_and_checks_mass():
    el = fdist([(IdEl("x"), F(1, 2)), (IdEl("x"), F(1, 4)), (IdEl("y"), F(1, 4))])
    assert el.pairs == ((IdEl("x"), F(3, 4)), (IdEl("y"), F(1, 4)))
    with pytest.raises(StructureError):
        fdist([(IdEl("x"), F(1, 2)), (IdEl("y"), F(1, 3))])
    with pytest.raises(StructureError):
        fdist([(IdEl("x"), F(0)), (IdEl("y"), F(1))])


def _probability_lists():
    """Support pairs as fdist gets them: normalised weights (mass 1, with
    duplicate support), raw ints and Fractions (mass off 1, entries <= 0)."""
    label = st.sampled_from("xyz")
    normalised = st.lists(st.tuples(label, st.integers(1, 6)), min_size=1, max_size=5).map(
        lambda ws: [(x, F(w, sum(w for _, w in ws))) for x, w in ws])
    raw = st.lists(st.tuples(label, st.one_of(
        st.integers(-1, 2), st.builds(F, st.integers(-2, 6), st.integers(1, 6)))), max_size=5)
    return st.one_of(normalised, raw)


@settings(max_examples=300, deadline=None)
@given(_probability_lists())
def test_fdist_matches_the_fraction_oracle(raw):
    pairs = [(IdEl(x), p) for x, p in raw]

    def outcome(build):
        try:
            return build(pairs).pairs
        except StructureError as exc:
            return str(exc)

    assert outcome(fdist) == outcome(fraction_fdist)
    if not isinstance(outcome(fdist), str):
        built = fdist(pairs)
        assert DistEl(built.pairs) == built  # passes the constructor's own check


def rebuilt(el):
    """el with every set and distribution node rebuilt through its checked
    constructor, which refuses members out of canonical order."""
    if isinstance(el, SetEl):
        return SetEl(tuple(map(rebuilt, el.members)))
    if isinstance(el, DistEl):
        return DistEl(tuple((rebuilt(m), p) for m, p in el.pairs))
    if isinstance(el, PairEl):
        return PairEl(rebuilt(el.left), rebuilt(el.right))
    if isinstance(el, MaybeEl) and el.value is not None:
        return MaybeEl(rebuilt(el.value))
    return el


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("wxyz"), max_size=6), st.integers(0, 2**32 - 1))
def test_built_sets_and_distributions_pass_the_constructors_check(labels, seed):
    """fset, fdist and the random draws build their sorted results without
    SetEl's and DistEl's sort check; rebuilt through it, each is unchanged."""
    members = [IdEl(x) for x in labels]
    nested = fset(fset(members[:i]) for i in range(len(members) + 1))
    assert rebuilt(nested) == nested
    assert rebuilt(nested.map(str.upper)) == nested.map(str.upper)
    rng = random.Random(seed)
    carrier = Carrier(tuple(f"s{i}" for i in range(1 + seed % 5)))
    for functor in FUNCTOR_ZOO:
        el = functor.random_element(rng, carrier)
        assert rebuilt(el) == el
        assert rebuilt(el.map(lambda x: carrier.elements[0])) == el.map(
            lambda x: carrier.elements[0])


def test_raw_constructors_demand_canonical_order():
    with pytest.raises(StructureError):
        SetEl((IdEl("b"), IdEl("a")))
    with pytest.raises(StructureError):
        DistEl(((IdEl("b"), F(1, 2)), (IdEl("a"), F(1, 2))))


def test_apply_map_identity():
    x, _ = carriers()
    rng = random.Random("id-law")
    for functor in FUNCTOR_ZOO:
        for _ in range(20):
            el = functor.random_element(rng, x)
            assert el.map(lambda v: v) == el


def test_apply_map_pushforward_merges():
    el = fdist([(IdEl("x"), F(1, 2)), (IdEl("y"), F(1, 2))])
    assert el.map(lambda v: "z") == fdist([(IdEl("z"), F(1))])


def test_apply_map_composition_law():
    x, _ = carriers()
    targets = Carrier.of("p", "q")
    rng = random.Random("comp-law")
    for functor in FUNCTOR_ZOO:
        for _ in range(20):
            el = functor.random_element(rng, x)
            f = {v: rng.choice(targets.elements) for v in x.elements}
            g = {v: rng.choice(x.elements) for v in targets.elements}
            composed = el.map(lambda v: g[f[v]])
            staged = el.map(lambda v: f[v]).map(lambda v: g[v])
            assert composed == staged


def test_base_examples():
    el = PairEl(ConstEl("7/10"), fset([IdEl("a2"), IdEl("a3")]))
    assert base(el) == ("a2", "a3")
    assert base(NOTHING) == ()
    assert base(fdist([(IdEl("x"), F(1, 3)), (IdEl("y"), F(2, 3))])) == ("x", "y")


def test_base_of_mapped_element_within_image():
    x, _ = carriers()
    rng = random.Random("base-law")
    for functor in FUNCTOR_ZOO:
        for _ in range(20):
            el = functor.random_element(rng, x)
            f = {v: rng.choice(("p", "q")) for v in x.elements}
            mapped = el.map(lambda v: f[v])
            assert set(base(mapped)) <= {f[v] for v in base(el)}


def test_element_errors_spot_checks():
    x, _ = carriers()
    ok = lambda v: v in x
    good = fset([IdEl("x")])
    assert PFin(Id()).element_errors(good, ok) == []
    # wrong shape
    errs = PFin(Id()).element_errors(IdEl("x"), ok)
    assert errs and errs[0][0] == "error"
    # foreign state
    errs = PFin(Id()).element_errors(fset([IdEl("nope")]), ok)
    assert any("not in the carrier" in m for _, _, m in errs)
    # bad mass is reported, not raised
    bad_mass = DistEl(((IdEl("x"), F(1, 2)), (IdEl("y"), F(1, 3))))
    errs = DFin(Id()).element_errors(bad_mass, ok)
    assert any("mass 5/6" in m for _, _, m in errs)


def test_render_element():
    el = PairEl(ConstEl("7/10"), fset([IdEl("a2"), IdEl("a3")]))
    assert el.render() == "(7/10, {a2, a3})"
    assert NOTHING.render() == "nothing"
    assert just(IdEl("x")).render() == "just x"


def test_canonical_key_is_total_and_stable():
    values = ["a", 3, F(1, 2), ("a", 1), IdEl("a"), fset([IdEl("a")]), NOTHING]
    keys = [canonical_key(v) for v in values]
    assert sorted(keys) == sorted(keys, key=lambda k: k)  # comparable
    assert len(set(keys)) == len(keys)


LABELS = number_const(("0", "1/2", "1"))
# one functor per registered kind, plus one built from every kind at once
KIND_EXAMPLES = {
    "id": Id(),
    "const": LABELS,
    "pfin": PFin(Pair(Id(), LABELS)),
    "dfin": DFin(Maybe(Id())),
    "pair": Pair(LABELS, DFin(Id())),
    "maybe": Maybe(PFin(Id())),
    "every-kind": Pair(Maybe(DFin(PFin(Id()))), LABELS),
}


def test_kind_examples_cover_the_registry():
    assert [type(KIND_EXAMPLES[kind]) for kind in FUNCTOR_KINDS] == list(FUNCTOR_KINDS.values())


@pytest.mark.parametrize("name", list(KIND_EXAMPLES))
def test_every_functor_kind_samples_validates_and_round_trips(name):
    functor = KIND_EXAMPLES[name]
    assert decode_functor(json.loads(json.dumps(encode_functor(functor)))) == functor
    x, _ = carriers()
    rng = random.Random(f"kinds:{name}")
    for _ in range(40):
        el = functor.random_element(rng, x)
        assert isinstance(el, functor.element_type)
        assert functor.element_errors(el, lambda v: v in x) == []
        raw = json.loads(json.dumps(encode_element(functor, el)))
        assert decode_element(functor, raw, "el") == el
        assert el.map(lambda v: v) == el

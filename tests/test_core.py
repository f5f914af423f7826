import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from laxkit import (
    Carrier,
    Certificate,
    Coalgebra,
    FuzzyRel,
    Hausdorff,
    Id,
    IdEl,
    IdLift,
    PFin,
    StructureError,
    check_certificate,
    companion,
    compose,
    converse,
    diagonal,
    fset,
    graph,
    is_hemimetric,
    is_pseudometric,
)
from laxkit.axioms import rand_hemimetric, rand_rel
from laxkit.core import as_unit, format_ratio, format_unit, parse_unit, sat_add, sat_sub

from tests.oracles import (
    fraction_compose,
    fraction_is_hemimetric,
    fraction_is_pseudometric,
    is_nonexpansive_pair,
    sup_distance,
)


@st.composite
def unit_fraction(draw):
    den = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
    return F(draw(st.integers(0, den)), den)


@st.composite
def carrier(draw, prefix, max_size=4, min_size=1):
    size = draw(st.integers(min_size, max_size))
    return Carrier(tuple(f"{prefix}{i}" for i in range(size)))


@st.composite
def rel(draw, source, target):
    rows = tuple(
        tuple(draw(unit_fraction()) for _ in target.elements)
        for _ in source.elements
    )
    return FuzzyRel(source, target, rows)


@st.composite
def rel_pair_chain(draw):
    a = draw(carrier("a"))
    b = draw(carrier("b"))
    c = draw(carrier("c"))
    return draw(rel(a, b)), draw(rel(b, c))


@st.composite
def rel_triple_chain(draw):
    a, b, c, d = (draw(carrier(p)) for p in "abcd")
    return draw(rel(a, b)), draw(rel(b, c)), draw(rel(c, d))


@st.composite
def function_between(draw, source, target):
    return {a: draw(st.sampled_from(target.elements)) for a in source.elements}


def test_scalar_saturation():
    assert sat_add(F(3, 5), F(7, 10)) == 1
    assert sat_add(F(1, 4), F(1, 4)) == F(1, 2)
    assert sat_sub(F(1, 4), F(1, 2)) == 0
    assert sat_sub(F(9, 10), F(1, 20)) == F(17, 20)


def test_parse_unit_exact_decimals():
    assert parse_unit("0.2") == F(1, 5)
    assert parse_unit("7/10") == F(7, 10)
    with pytest.raises(StructureError):
        parse_unit("3/2")
    with pytest.raises(StructureError):
        parse_unit("zebra")


def test_a_value_past_the_integer_text_limit_is_a_structure_error():
    assert format_unit(F(2, 3 ** 9000)) == f"2/{3 ** 9000}"  # 4295 digits
    with pytest.raises(StructureError) as exc:
        format_unit(F(1, 3 ** 9100))
    assert str(exc.value) == ("a value with a 4342-digit integer exceeds the limit of 4300 "
                              "digits for integer text")
    with pytest.raises(StructureError, match="a 4301-digit integer"):
        format_ratio(10 ** 4300, 1)
    with pytest.raises(StructureError, match="a 4301-digit integer"):
        format_ratio(-(10 ** 4300), 7)


def test_compose_diagonal_is_unit():
    a = Carrier.of("x", "y")
    b = Carrier.of("u", "v", "w")
    r = FuzzyRel(a, b, ((F(1, 3), F(0), F(1)), (F(2, 5), F(1, 2), F(1, 6))))
    assert compose(r, diagonal(b)) == r
    assert compose(diagonal(a), r) == r


def test_compose_truncates():
    a, b, c = Carrier.of("a"), Carrier.of("b"), Carrier.of("c")
    r = FuzzyRel(a, b, ((F(3, 5),),))
    s = FuzzyRel(b, c, ((F(7, 10),),))
    assert compose(r, s).at("a", "c") == 1


def test_compose_two_by_two_hand_case():
    a = Carrier.of("a1", "a2")
    b = Carrier.of("b1", "b2")
    c = Carrier.of("c1", "c2")
    r = FuzzyRel(a, b, ((F(1, 5), F(9, 10)), (F(1), F(1, 10))))
    s = FuzzyRel(b, c, ((F(3, 10), F(1)), (F(2, 5), F(0))))
    got = compose(r, s)
    # brute-force oracle over the middle carrier
    for x in a.elements:
        for z in c.elements:
            expected = min(
                sat_add(r.at(x, y), s.at(y, z)) for y in b.elements
            )
            assert got.at(x, z) == expected
    assert got.at("a1", "c1") == F(1, 2)


def test_compose_empty_middle_is_all_one():
    a = Carrier.of("x")
    empty = Carrier(())
    c = Carrier.of("z")
    r = FuzzyRel(a, empty, ((),))
    s = FuzzyRel(empty, c, ())
    assert compose(r, s).at("x", "z") == 1


@st.composite
def rel_any_denominators(draw, source, target):
    unit = st.one_of(st.sampled_from([F(0), F(1)]),
                     st.fractions(min_value=0, max_value=1, max_denominator=10**4))
    return FuzzyRel(source, target,
                    tuple(tuple(draw(unit) for _ in target) for _ in source))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_integer_compose_matches_the_fraction_oracle(data):
    a, b, c = (data.draw(carrier(p, max_size=3, min_size=0)) for p in "abc")
    r, s = data.draw(rel_any_denominators(a, b)), data.draw(rel_any_denominators(b, c))
    got = compose(r, s)
    assert got == fraction_compose(r, s)
    assert all(type(x) is F for row in got.values for x in row)


@pytest.mark.parametrize("value, text", [
    (F(-1, 2), "value -1/2 outside the unit interval"),
    (F(3, 2), "value 3/2 outside the unit interval"),
    (2, "value 2 outside the unit interval"),
    (-1, "value -1 outside the unit interval"),
])
def test_values_outside_the_unit_interval_are_refused(value, text):
    one = Carrier.of("x")
    with pytest.raises(StructureError) as exc:
        as_unit(value)
    assert str(exc.value) == text
    with pytest.raises(StructureError) as exc:
        FuzzyRel(one, one, ((value,),))
    assert str(exc.value) == text


def test_relation_entries_are_stored_as_checked_fractions():
    assert as_unit("2/3") == F(2, 3) and as_unit(0.5) == F(1, 2)
    c = Carrier.of("x", "y")
    r = FuzzyRel(c, c, ((0.5, 1), (0, True)))
    assert r.values == ((F(1, 2), F(1)), (F(0), F(1)))
    assert all(type(x) is F for row in r.values for x in row)
    assert all(type(x) is F for row in compose(r, r).values for x in row)
    assert FuzzyRel(c, c, (("2/3", F(1)), (F(0), F(1)))).values[0] == (F(2, 3), F(1))
    # rows that hold Fractions only are kept as given
    rows = ((F(1, 2), F(1)), (F(0), F(1, 3)))
    assert FuzzyRel(c, c, rows).values is rows


def test_public_constructor_checks_shapes_and_entries():
    """FuzzyRel(...) checks every caller's rows; only builders whose rows are
    unit Fractions by construction skip the check."""
    a, b = Carrier.of("x", "y"), Carrier.of("u")
    coerced = FuzzyRel(a, b, ((0,), (1,)))
    assert coerced.values == ((F(0),), (F(1),))
    assert all(type(x) is F for row in coerced.values for x in row)
    for bad, text in ((F(3, 2), "value 3/2 outside the unit interval"),
                      (F(-1, 2), "value -1/2 outside the unit interval")):
        with pytest.raises(StructureError) as exc:
            FuzzyRel(a, b, ((F(0),), (bad,)))
        assert str(exc.value) == text
    with pytest.raises(StructureError) as exc:
        FuzzyRel(a, b, ((F(0),),))
    assert str(exc.value) == "row count does not match source carrier"
    with pytest.raises(StructureError) as exc:
        FuzzyRel(a, b, ((F(0),), (F(0), F(1))))
    assert str(exc.value) == "column count does not match target carrier"


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_unchecked_builders_yield_what_the_check_admits(data, seed):
    """compose, converse, graph, diagonal and the law suite's draws skip the
    entry check: each yields Fractions in [0, 1] on rows of the carriers'
    shape, so the checked constructor rebuilds it unchanged."""
    a, c = data.draw(carrier("a", min_size=0)), data.draw(carrier("c", min_size=0))
    b = data.draw(carrier("b"))
    r, s = data.draw(rel_any_denominators(a, b)), data.draw(rel_any_denominators(b, c))
    f = data.draw(function_between(a, b))
    eps = data.draw(st.one_of(unit_fraction(), st.sampled_from([0, 1])))
    rng = random.Random(seed)
    for built in (compose(r, s), converse(r), graph(f, a, b, eps), diagonal(a, eps),
                  rand_rel(rng, a, b), rand_hemimetric(rng, a, True),
                  rand_hemimetric(rng, b, False)):
        assert all(type(x) is F and 0 <= x <= 1 for row in built.values for x in row)
        assert FuzzyRel(built.source, built.target, built.values) == built


def block_fractions(block) -> list:
    den, rows = block
    return [[F(k, den) for k in row] for row in rows]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_unchecked_builders_carry_their_entries_as_integers(data, seed):
    """compose, converse, graph, diagonal and the law suite's draws carry
    tuple rows of integers that are their entries times one denominator,
    and so do checked relations and their converses; every block a view
    of one reads is the relation's Fractions at the block, over the
    relation's denominator."""
    a, c = data.draw(carrier("a", min_size=0)), data.draw(carrier("c", min_size=0))
    b = data.draw(carrier("b"))
    r, s = data.draw(rel_any_denominators(a, b)), data.draw(rel_any_denominators(b, c))
    f = data.draw(function_between(a, b))
    eps = data.draw(st.one_of(unit_fraction(), st.sampled_from([0, 1])))
    rng = random.Random(seed)
    drawn, gr = rand_rel(rng, a, b), graph(f, a, b, eps)
    for built in (r, converse(r), s, converse(s), compose(r, s),
                  compose(drawn, converse(drawn)), converse(drawn), gr,
                  converse(gr), diagonal(a, eps), drawn, rand_hemimetric(rng, b, True),
                  rand_hemimetric(rng, b, False)):
        den, ints = built.scaled
        assert type(ints) is tuple and all(type(row) is tuple for row in ints)
        assert block_fractions(built.scaled) == [list(row) for row in built.values]
        view = built.view()
        for _ in range(3):
            xs = [x for x in built.source.elements if rng.random() < 0.7]
            ys = [y for y in built.target.elements if rng.random() < 0.7]
            rng.shuffle(ys)
            got = view.block(xs, ys)
            assert block_fractions(got) == [[built.at(x, y) for y in ys] for x in xs]
            assert got[0] == den
        if built.source.elements:
            with pytest.raises(StructureError):
                view.block(["outside"], list(built.target.elements))
            with pytest.raises(StructureError):
                view.block(built.source.elements[:1], ["outside"])


def test_checked_constructors_store_tuples_whatever_they_are_given():
    elements, rows = ["x", "y"], [[F(0), F(1)], [F(1, 2), 0]]
    listed = Carrier(elements)
    rel = FuzzyRel(listed, listed, rows)
    tupled = Carrier(("x", "y"))
    same = FuzzyRel(tupled, tupled, ((F(0), F(1)), (F(1, 2), F(0))))
    assert (listed, rel) == (tupled, same)
    assert hash(listed) == hash(tupled) and hash(rel) == hash(same)
    elements.append("z")
    rows[0][0] = F(1)
    rows.append([F(0), F(0)])
    assert listed == tupled and rel == same and rel.scaled == same.scaled
    # a certificate over a list-built carrier checks against a system over a tuple
    system = Coalgebra.of(PFin(Id()), tupled, {"x": fset([IdEl("y")]), "y": fset([IdEl("x")])})
    cert = Certificate(FuzzyRel(listed, listed, [[F(0), F(1)], [F(1), F(0)]]), "bisimulation")
    assert check_certificate(Hausdorff("sym", IdLift()), system, system, cert).ok


def test_compose_carrier_mismatch():
    a, b = Carrier.of("x"), Carrier.of("y")
    r = FuzzyRel(a, b, ((F(0),),))
    with pytest.raises(StructureError):
        compose(r, r)


def test_converse_examples():
    a = Carrier.of("a")
    b = Carrier.of("b1", "b2")
    r = FuzzyRel(a, b, ((F(1, 5), F(9, 10)),))
    assert converse(r).values == ((F(1, 5),), (F(9, 10),))
    assert converse(converse(r)) == r
    assert converse(diagonal(b)) == diagonal(b)


def test_graph_examples():
    a = Carrier.of("x", "y")
    assert graph({e: e for e in a.elements}, a, a) == diagonal(a)
    single_a, single_b = Carrier.of("a"), Carrier.of("b")
    g = graph({"a": "b"}, single_a, single_b, F(1, 4))
    assert g.values == ((F(1, 4),),)
    with pytest.raises(StructureError):
        graph({"x": "z", "y": "x"}, a, a)


def test_hemimetric_examples():
    a = Carrier.of("x", "y")
    assert is_hemimetric(diagonal(a))
    assert is_pseudometric(diagonal(a))
    asym = FuzzyRel(a, a, ((F(0), F(3, 10)), (F(4, 5), F(0))))
    assert is_hemimetric(asym)
    assert not is_pseudometric(asym)
    xyz = Carrier.of("x", "y", "z")
    broken = FuzzyRel(xyz, xyz, (
        (F(0), F(9, 10), F(1)),
        (F(0), F(0), F(1, 20)),
        (F(0), F(0), F(0)),
    ))
    # 1 > 9/10 (+) 1/20 = 19/20, so the triangle inequality fails
    assert not is_hemimetric(broken)


def test_integer_metric_checks_match_the_fraction_oracles():
    rng = random.Random("metric-checks")
    seen = set()
    for _ in range(300):
        c = Carrier(tuple(f"x{i}" for i in range(rng.randint(0, 4))))
        points = [F(rng.randint(0, d), d) for d in (rng.randint(1, 12) for _ in c)]
        # |p - q| is a pseudometric and (p - q) (-) 0 a hemimetric; one
        # redrawn entry often breaks either
        one_sided = rng.random() < 0.5
        rows = [[max(p - q, F(0)) if one_sided else abs(p - q) for q in points]
                for p in points]
        if rows and rng.random() < 0.5:
            den = rng.randint(1, 12)
            rows[rng.randrange(len(rows))][rng.randrange(len(rows))] = F(rng.randint(0, den), den)
        d = FuzzyRel(c, c, tuple(map(tuple, rows)))
        want = (fraction_is_hemimetric(d), fraction_is_pseudometric(d))
        assert (is_hemimetric(d), is_pseudometric(d)) == want
        seen.add(want)
    assert seen == {(False, False), (True, False), (True, True)}
    a, b = Carrier.of("x"), Carrier.of("y")
    for check in (is_hemimetric, is_pseudometric):
        with pytest.raises(StructureError, match="^hemimetric check needs a square relation$"):
            check(FuzzyRel(a, b, ((F(0),),)))


def test_companion_examples():
    a = Carrier.of("a1", "a2")
    b = Carrier.of("b")
    f = {"a1": F(9, 10), "a2": F(2, 5)}
    all_one = FuzzyRel.constant(a, b, F(1))
    assert companion(all_one, f) == {"b": F(0)}
    assert companion(diagonal(a), f) == f
    r = FuzzyRel(a, b, ((F(1, 5),), (F(1, 10),)))
    assert companion(r, f) == {"b": F(7, 10)}


def test_companion_empty_source():
    empty = Carrier(())
    b = Carrier.of("b")
    r = FuzzyRel(empty, b, ())
    assert companion(r, {}) == {"b": F(0)}


def test_sup_distance_examples():
    a = Carrier.of("x", "y")
    assert sup_distance(diagonal(a), diagonal(a)) == 0
    assert sup_distance(diagonal(a, F(1, 3)), diagonal(a)) == F(1, 3)
    r = FuzzyRel(a, a, ((F(0), F(1, 2)), (F(1), F(1, 4))))
    s = FuzzyRel(a, a, ((F(1, 8), F(1, 2)), (F(0), F(3, 4))))
    assert sup_distance(r, s) == max(
        abs(r.at(x, y) - s.at(x, y)) for x in a.elements for y in a.elements
    ) == 1


@settings(max_examples=60, deadline=None)
@given(rel_triple_chain())
def test_composition_associative(chain):
    r, s, t = chain
    assert compose(compose(r, s), t) == compose(r, compose(s, t))


@settings(max_examples=60, deadline=None)
@given(rel_pair_chain())
def test_diagonal_two_sided_unit(pair):
    r, _ = pair
    assert compose(r, diagonal(r.target)) == r
    assert compose(diagonal(r.source), r) == r


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph_composition_lemma(data):
    a = data.draw(carrier("a"))
    b = data.draw(carrier("b"))
    f = data.draw(function_between(a, b))
    gr = graph(f, a, b)
    assert diagonal(b).entrywise_le(compose(converse(gr), gr))
    assert compose(gr, converse(gr)).entrywise_le(diagonal(a))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reindexing_is_graph_sandwich(data):
    a, b = data.draw(carrier("a")), data.draw(carrier("b"))
    a2, b2 = data.draw(carrier("u")), data.draw(carrier("v"))
    f = data.draw(function_between(a, a2))
    g = data.draw(function_between(b, b2))
    r = data.draw(rel(a2, b2))
    reindexed = FuzzyRel.from_function(a, b, lambda x, y: r.at(f[x], g[y]))
    sandwich = compose(compose(graph(f, a, a2), r), converse(graph(g, b, b2)))
    assert reindexed == sandwich


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_companion_is_least_valid_completion(data):
    a, b = data.draw(carrier("a")), data.draw(carrier("b"))
    r = data.draw(rel(a, b))
    f = {x: data.draw(unit_fraction()) for x in a.elements}
    g = {y: data.draw(unit_fraction()) for y in b.elements}
    least = companion(r, f)
    assert is_nonexpansive_pair(r, f, g) == all(least[y] <= g[y] for y in b.elements)
    assert is_nonexpansive_pair(r, f, least)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composition_monotone(data):
    a, b, c = data.draw(carrier("a")), data.draw(carrier("b")), data.draw(carrier("c"))
    r2 = data.draw(rel(a, b))
    s = data.draw(rel(b, c))
    shrink = {x: data.draw(unit_fraction()) for x in a.elements}
    r1 = FuzzyRel.from_function(a, b, lambda x, y: sat_sub(r2.at(x, y), shrink[x]))
    assert compose(r1, s).entrywise_le(compose(r2, s))

import json
import random
from fractions import Fraction as F

import pytest

import laxkit as lk
from laxkit import (
    And,
    FormulaConst,
    FormulaSyntaxError,
    MinusC,
    Modal,
    MossDelta,
    Neg,
    Or,
    PlusC,
    evaluate,
    parse_formula,
    print_formula,
    push_negations,
    semantics,
)
from laxkit.jsonio import decode_functor
from tests.conftest import fixture_path


def plain_ts(edges):
    names = tuple(edges)
    carrier = lk.Carrier(names)
    return lk.Coalgebra.of(
        lk.PFin(lk.Id()), carrier,
        {s: lk.fset(lk.IdEl(t) for t in edges[s]) for s in names},
    )


def random_formula(rng, names_arities, depth):
    if depth == 0 or rng.random() < 0.2:
        return FormulaConst(F(rng.randint(0, 8), 8))
    roll = rng.randrange(5)
    if roll == 0:
        return And(random_formula(rng, names_arities, depth - 1),
                   random_formula(rng, names_arities, depth - 1))
    if roll == 1:
        return Or(random_formula(rng, names_arities, depth - 1),
                  random_formula(rng, names_arities, depth - 1))
    if roll == 2:
        return PlusC(random_formula(rng, names_arities, depth - 1), F(rng.randint(0, 4), 4))
    if roll == 3:
        return MinusC(random_formula(rng, names_arities, depth - 1), F(rng.randint(0, 4), 4))
    name, arity = rng.choice(names_arities)
    return Modal(name, tuple(
        random_formula(rng, names_arities, depth - 1) for _ in range(arity)
    ))


def test_constant_evaluation():
    system = plain_ts({"s": ["s"]})
    assert evaluate(FormulaConst(F(1, 3)), system, "s") == F(1, 3)


def test_formula_values_are_stored_as_fractions():
    system = plain_ts({"s": ["s"]})
    table = semantics(MinusC(FormulaConst(F(3, 4)), 0.5), system)
    assert table == {"s": F(1, 4)} and type(table["s"]) is F
    value = evaluate(FormulaConst(True), system, "s")
    assert value == 1 and type(value) is F
    assert type(PlusC(FormulaConst(F(0)), 1).value) is F
    assert len({FormulaConst(1), FormulaConst(F(1))}) == 1
    with pytest.raises(lk.StructureError):
        FormulaConst(F(3, 2))


def test_zadeh_connectives():
    system = plain_ts({"s": []})
    third, half = FormulaConst(F(1, 3)), FormulaConst(F(1, 2))
    assert evaluate(And(third, half), system, "s") == F(1, 3)
    assert evaluate(Or(third, half), system, "s") == F(1, 2)
    assert evaluate(PlusC(half, F(3, 4)), system, "s") == 1
    assert evaluate(MinusC(third, F(1, 2)), system, "s") == 0


def test_sup_inf_modalities():
    system = plain_ts({"s": ["p", "q"], "p": [], "q": []})
    # value table p -> 1, q -> 1/4 expressed through successors' branching
    phi = Modal("dia", (Modal("box", (FormulaConst(F(1, 4)),)),))
    # box over the empty successor set is 1; dia picks the best successor
    assert evaluate(phi, system, "s") == 1
    assert evaluate(Modal("dia", (FormulaConst(F(1, 4)),)), system, "s") == F(1, 4)
    assert evaluate(Modal("dia", (FormulaConst(F(1),),)), system, "p") == 0
    assert evaluate(Modal("box", (FormulaConst(F(0)),)), system, "p") == 1


def test_probabilistic_modalities(prob_deadlock):
    system, _, _ = prob_deadlock
    half = FormulaConst(F(1, 2))
    # deadlock conventions
    assert evaluate(Modal("dia", (half,)), system, "u2") == 0
    assert evaluate(Modal("box", (half,)), system, "u2") == 1
    # expectation on a real branch: u0 -> 1/3 u1 + 2/3 u2
    succ_val = Modal("dia", (FormulaConst(F(3, 4)),))
    table = semantics(succ_val, system)
    assert table["u1"] == F(3, 4) and table["u2"] == 0
    assert evaluate(Modal("dia", (succ_val,)), system, "u0") == F(1, 3) * F(3, 4)


def test_label_readout_modalities(labelled_frames):
    sys_a, _, functor, _, _ = labelled_frames
    mods = functor.standard_modalities()
    assert "at-7/10" in mods and "dia" in mods
    # readout of the state's own label is 1; distance shrinks it elsewhere
    assert evaluate(Modal("at-7/10", ()), sys_a, "a1") == 1
    assert evaluate(Modal("at-7/10", ()), sys_a, "a2") == 1 - F(1, 2)
    assert evaluate(Modal("dia", (Modal("at-1/5", ()),)), sys_a, "a1") == 1


def test_rank():
    phi = Modal("dia", (And(FormulaConst(F(1)), Modal("box", (FormulaConst(F(0)),))),))
    assert FormulaConst(F(1)).rank() == 0
    assert phi.rank() == 2
    assert PlusC(phi, F(1, 2)).rank() == 2


def test_rank_of_structural_modality(labelled_frames):
    sys_a, _, _, lifting, _ = labelled_frames
    phi = lk.synthesize(sys_a, "a1", 2)
    assert isinstance(phi, MossDelta)
    assert phi.rank() == 2


def test_negation_duality_exact():
    system = plain_ts({"s": ["p", "q"], "p": ["s"], "q": []})
    rng = random.Random("neg")
    mods = [("dia", 1), ("box", 1)]
    for _ in range(150):
        phi = random_formula(rng, mods, 3)
        for state in system.carrier.elements:
            assert evaluate(Neg(phi), system, state) == 1 - evaluate(phi, system, state)


def test_negation_needs_duals(prob_deadlock, labelled_frames):
    system, _, _ = prob_deadlock
    # dia/box on optional distributions are dual: exact complement
    phi = Modal("dia", (FormulaConst(F(1, 4)),))
    assert evaluate(Neg(phi), system, "u0") == 1 - evaluate(phi, system, "u0")
    # asymmetric label metrics leave readouts without duals
    asym_labels = lk.Carrier.of("lo", "hi")
    metric = lk.FuzzyRel(asym_labels, asym_labels,
                         ((F(0), F(1, 2)), (F(0), F(0))))
    functor = lk.Const(asym_labels, metric)
    with pytest.raises(lk.StructureError):
        push_negations(Neg(Modal("at-lo", ())), functor)


def test_negation_through_structural_modality(labelled_frames):
    sys_a, _, _, lifting, _ = labelled_frames
    phi = lk.synthesize(sys_a, "a1", 2)
    for state in sys_a.carrier.elements:
        assert evaluate(Neg(phi), sys_a, state, lifting) == \
            1 - evaluate(phi, sys_a, state, lifting)


def test_unknown_modality_and_arity_errors():
    system = plain_ts({"s": []})
    with pytest.raises(lk.StructureError):
        evaluate(Modal("zap", ()), system, "s")
    with pytest.raises(lk.StructureError):
        evaluate(Modal("dia", ()), system, "s")


def test_parse_worked_example():
    phi = parse_formula("(<>( 1/2 ) /\\ 0.3) (+) 1/4")
    assert phi == PlusC(
        And(Modal("<>", (FormulaConst(F(1, 2)),)), FormulaConst(F(3, 10))),
        F(1, 4),
    )


def test_a_modality_of_two_arguments_parses_and_prints():
    phi = parse_formula("f(1, 0)")
    assert phi == Modal("f", (FormulaConst(F(1)), FormulaConst(F(0))))
    assert print_formula(phi) == "f(1, 0)"


def test_parse_exact_decimals():
    assert parse_formula("0.2") == FormulaConst(F(1, 5))
    assert parse_formula("0.2").value == F(1, 5)


def test_print_reproduces_input_up_to_whitespace():
    text = "(<>( 1/2 ) /\\ 0.3) (+) 1/4"
    printed = print_formula(parse_formula(text))
    assert printed.replace(" ", "") == text.replace(" ", "")


def test_parse_print_round_trip():
    rng = random.Random("round")
    mods = [("dia", 1), ("box", 1), ("at-0", 0)]
    for _ in range(100):
        phi = random_formula(rng, mods, 3)
        assert parse_formula(print_formula(phi)) == phi


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(0.5 /\\ ")
    assert "position" in str(err.value)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("0.5 ? 1")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("3/2")  # outside the unit interval


def test_operator_precedence_and_associativity():
    # shifts bind loosest and associate left; /\ binds tighter than \/
    phi = parse_formula("0 \\/ 1 /\\ 0 (+) 1/2 (-) 1/4")
    assert phi == MinusC(
        PlusC(Or(FormulaConst(F(0)), And(FormulaConst(F(1)), FormulaConst(F(0)))), F(1, 2)),
        F(1, 4),
    )


def test_structural_modality_has_no_text_form(labelled_frames):
    sys_a, *_ = labelled_frames
    phi = lk.synthesize(sys_a, "a1", 1)
    with pytest.raises(lk.LaxkitError):
        print_formula(phi)


def test_every_labelled_modality_prints_and_reparses():
    functor = decode_functor(json.load(open(fixture_path("labelled_kripke_functor.json"))))
    mods = functor.standard_modalities()
    assert {"at-1/5", "far-7/10"} <= set(mods)
    for name, lam in mods.items():
        phi = Modal(name, tuple(FormulaConst(F(1, 2)) for _ in range(lam.arity)))
        assert parse_formula(print_formula(phi)) == phi
    assert parse_formula("at-1/5/\\far-0") == And(Modal("at-1/5", ()), Modal("far-0", ()))


@pytest.mark.parametrize("name", ["at-x y", "dia(", "2nd", "at-a,b", ""])
def test_names_that_are_not_one_token_have_no_text_form(name):
    with pytest.raises(lk.LaxkitError) as err:
        print_formula(Or(FormulaConst(F(0)), Modal(name, ())))
    assert str(err.value) == f"modality name {name!r} has no text form; use the JSON encoding"

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import tempfile
import time
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from laxkit import cli, logic
from laxkit.axioms import MAX_SIZE, MAX_TRIALS
from laxkit.cli import main
from laxkit.core import FuzzyRel, format_unit, parse_unit
from laxkit.distance import (
    MAX_ITER, Certificate, CertificateVerdict, SlackRow, check_certificate)
from laxkit.functors import DFin, FUNCTOR_KINDS
from laxkit.jsonio import MAX_NESTING
from laxkit.liftings import LIFTING_KINDS
from laxkit.moss import MAX_RANK, MAX_TREE_NODES
from tests.conftest import count_modality_tables, fixture_path, json_values, mutants


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def frames_args():
    return [
        "--system", fixture_path("labelled_kripke_a.json"),
        "--system", fixture_path("labelled_kripke_b.json"),
        "--lifting", fixture_path("half_label_hausdorff.json"),
    ]


def test_check_cert_ok(capsys):
    code, out, _ = run_cli(
        capsys, "check-cert", "--cert", fixture_path("labelled_kripke_cert.json"),
        *frames_args(),
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "ok"
    assert len(report["forward"]) == 3
    assert all(row["slack"] == "0" for row in report["forward"])
    assert report["tool"] == "laxkit" and "version" in report
    assert len(report["inputs"]) == 4


UNITS = st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=10**9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(UNITS, UNITS), min_size=1, max_size=8))
def test_certificate_rows_format_claimed_lifted_and_slack(values):
    forward = tuple(SlackRow((f"a{i}", f"b{i}"), c, lifted)
                    for i, (c, lifted) in enumerate(values))
    rows, backward = cli.certificate_rows(CertificateVerdict(True, forward, None))
    assert backward is None
    assert rows == [
        {"pair": [f"a{i}", f"b{i}"], "claimed": format_unit(c), "lifted": format_unit(lifted),
         "slack": str(c - lifted)}
        for i, (c, lifted) in enumerate(values)
    ]


def test_transposed_backward_rows_carry_their_forward_twins_strings(labelled_frames):
    sys_a, sys_b, _, lifting, _ = labelled_frames
    rng = random.Random(5)
    grades = [F(0), F(1, 5), F(1, 4), F(1, 2), F(17, 20), F(1)]
    for _ in range(20):
        rel = FuzzyRel.from_function(sys_a.carrier, sys_b.carrier,
                                     lambda a, b: rng.choice(grades))
        verdict = check_certificate(lifting, sys_a, sys_b, Certificate(rel, "bisimulation"))
        forward, backward = cli.certificate_rows(verdict)
        twins = {tuple(row["pair"]): row for row in forward}
        assert len(backward) == len(forward)
        for row in backward:
            twin = twins[tuple(reversed(row["pair"]))]
            assert all(row[key] is twin[key] for key in ("claimed", "lifted", "slack"))


def test_dist_report(capsys):
    code, out, _ = run_cli(capsys, "dist", *frames_args())
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["residual"] == "0"
    assert report["iterations"] <= 3
    matrix = report["matrix"]
    assert matrix["values"][0][0] == "1/5"


def test_dist_trace_and_tol(capsys):
    code, out, _ = run_cli(
        capsys, "dist",
        "--system", fixture_path("weighted_loop_a.json"),
        "--system", fixture_path("weighted_loop_b.json"),
        "--lifting", fixture_path("weighted_step_lifting.json"),
        "--tol", "1/64", "--trace",
    )
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert len(report["trace"]) == report["iterations"] + 1
    assert report["trace"][1]["values"][0][0] == "1/4"


def test_byte_identical_reports(capsys):
    _, first, _ = run_cli(capsys, "dist", *frames_args())
    _, second, _ = run_cli(capsys, "dist", *frames_args())
    assert first == second


def test_axioms_finds_converse_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "axioms", "--lifting", fixture_path("hausdorff_left.json"),
        "--trials", "80",
    )
    assert code == 1
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["L0"]["passed"]
    assert by_name["L0"]["counterexample"]["data"]
    assert all(by_name[n]["passed"] for n in ("L1", "L2", "L3", "L4"))
    assert report["consistent"] is True


def test_axioms_pass_symmetric_variant(capsys):
    code, out, _ = run_cli(
        capsys, "axioms", "--lifting", fixture_path("hausdorff_sym.json"),
        "--trials", "60",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_axioms_needs_functor_for_labels(capsys):
    code, _, err = run_cli(
        capsys, "axioms", "--lifting", fixture_path("half_label_hausdorff.json"),
        "--trials", "10",
    )
    assert code == 2
    assert "--functor" in err
    code, out, _ = run_cli(
        capsys, "axioms", "--lifting", fixture_path("half_label_hausdorff.json"),
        "--functor", fixture_path("labelled_kripke_functor.json"),
        "--trials", "30",
    )
    assert code == 0


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"functor": ')
    code, _, err = run_cli(
        capsys, "dist", "--system", str(bad), "--system", str(bad),
        "--lifting", fixture_path("hausdorff_sym.json"),
    )
    assert code == 2
    assert "broken.json" in err


def test_semantic_errors_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "badmass.json"
    bad.write_text(json.dumps({
        "functor": {"kind": "dfin", "sub": {"kind": "id"}},
        "states": ["s"],
        "alpha": {"s": [["s", "1/2"]]},
    }))
    code, _, err = run_cli(
        capsys, "dist", "--system", str(bad), "--system", str(bad),
        "--lifting", fixture_path("kantorovich_discrete.json"),
    )
    assert code == 2
    assert "mass" in err


@pytest.mark.parametrize("argv, text", [
    (["--functor", "DEEP", "--lifting", fixture_path("hausdorff_sym.json")],
     "[" * 1500 + "]" * 1500),  # too deep for the JSON parser
    (["--lifting", "DEEP"],
     '{"kind": "discount", "factor": "1/2", "sub": ' * 300 + '{"kind": "id"}' + "}" * 300),
])
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, argv, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    argv = [str(deep) if arg == "DEEP" else arg for arg in argv]
    code, _, err = run_cli(capsys, "axioms", "--trials", "1", *argv)
    assert code == 2
    assert err == f"error: {deep}: JSON nested deeper than 100 levels\n"


def test_non_string_ids_are_usage_errors(tmp_path, capsys):
    with open(fixture_path("labelled_kripke_cert.json")) as handle:
        cert = json.load(handle)
    cert["relation"]["source"][0] = ["a1"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, _, err = run_cli(capsys, "check-cert", "--cert", str(path), *frames_args())
    assert code == 2
    assert "relation.source: source must be a list of ids" in err
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "kantorovich-grid", "modalities": [["dia"]],
                                "step": "1/2"}))
    code, _, err = run_cli(capsys, "axioms", "--lifting", str(grid),
                           "--functor", fixture_path("weighted_loop_functor.json"))
    assert code == 2
    assert "needs a list of modality names" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--max-size", "0", "max_size must be at least 1, got 0"),
    ("--trials", "-3", "trials must be at least 1, got -3"),
    ("--trials", str(MAX_TRIALS + 1),
     f"trials must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
])
def test_axioms_bounds_are_usage_errors(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "axioms", "--lifting", fixture_path("hausdorff_sym.json"),
                             flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_axioms_max_size_has_an_upper_bound(tmp_path, capsys):
    lifting = fixture_path("hausdorff_sym.json")
    code, out, _ = run_cli(capsys, "axioms", "--lifting", lifting, "--trials", "2",
                           "--max-size", str(MAX_SIZE))
    assert code == 0 and json.loads(out)["consistent"]
    # refused before any file is read: a missing lifting file is not reported
    for path in (lifting, str(tmp_path / "missing.json")):
        code, out, err = run_cli(capsys, "axioms", "--lifting", path, "--trials", "2",
                                 "--max-size", str(MAX_SIZE + 1))
        assert (code, out, err) == (
            2, "", f"error: max_size must be at most {MAX_SIZE}, got {MAX_SIZE + 1}\n")


def test_dist_max_iter_has_an_upper_bound(capsys):
    code, out, _ = run_cli(capsys, "dist", *frames_args(), "--max-iter", str(MAX_ITER))
    assert code == 0 and json.loads(out)["converged"]
    code, out, err = run_cli(capsys, "dist", *frames_args(), "--max-iter", str(MAX_ITER + 1))
    assert (code, out, err) == (
        2, "", f"error: max_iter must be at most {MAX_ITER}, got {MAX_ITER + 1}\n")


def test_an_over_long_json_integer_is_invalid_json(tmp_path, capsys):
    # Python refuses to convert an integer literal of more than 4300 digits
    lifting = tmp_path / "long.json"
    lifting.write_text('{"kind": "discount", "factor": ' + "7" * 5000
                       + ', "sub": {"kind": "id"}}')
    code, out, err = run_cli(capsys, "axioms", "--lifting", str(lifting))
    assert (code, out) == (2, "")
    assert err == (f"error: {lifting}: invalid JSON: Exceeds the limit (4300 digits) for "
                   "integer string conversion: value has 5000 digits; use "
                   "sys.set_int_max_str_digits() to increase the limit\n")


def test_a_report_value_past_the_integer_text_limit_is_a_usage_error(monkeypatch, capsys):
    # no reader could parse such a value back, so it is refused, not a crash
    real = cli.behavioural_distance

    def long_residual(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), residual=F(1, 3 ** 9100))

    monkeypatch.setattr(cli, "behavioural_distance", long_residual)
    code, out, err = run_cli(capsys, "dist", "--system", fixture_path("prob_deadlock.json"),
                             "--lifting", fixture_path("prob_lifting.json"))
    assert (code, out) == (2, "")
    assert err == ("error: a value with a 4342-digit integer exceeds the limit of 4300 digits "
                   "for integer text\n")


def item_two_files(tmp_path):
    """s -> 1/2 a1 + 1/2 a2 against t -> b (a1, a2 and b loop), and the
    simulation certificate with rows s: 1/12, a1: 1/3, a2: 0."""
    dfin = {"kind": "dfin", "sub": {"kind": "id"}}
    files = {
        "a.json": {"functor": dfin, "states": ["s", "a1", "a2"],
                   "alpha": {"s": [["a1", "1/2"], ["a2", "1/2"]], "a1": [["a1", "1"]],
                             "a2": [["a2", "1"]]}},
        "b.json": {"functor": dfin, "states": ["t", "b"],
                   "alpha": {"t": [["b", "1"]], "b": [["b", "1"]]}},
        "cert.json": {"kind": "simulation", "relation": {
            "source": ["s", "a1", "a2"], "target": ["t", "b"],
            "values": [["1/12", "1/12"], ["1/3", "1/3"], ["0", "0"]]}},
        "grid.json": {"kind": "kantorovich-grid", "modalities": ["E"], "step": "1/2"},
        "kantorovich.json": {"kind": "kantorovich", "sub": {"kind": "id"}},
    }
    for name, body in files.items():
        (tmp_path / name).write_text(json.dumps(body))
    return lambda lifting: ["check-cert", "--system", str(tmp_path / "a.json"),
                            "--system", str(tmp_path / "b.json"),
                            "--cert", str(tmp_path / "cert.json"),
                            "--lifting", str(tmp_path / lifting)]


def test_a_grid_certificate_within_the_slack_is_undecided(tmp_path, capsys):
    args = item_two_files(tmp_path)
    code, out, _ = run_cli(capsys, *args("kantorovich.json"))
    report = json.loads(out)
    assert (code, report["verdict"]) == (1, "violation")
    assert report["forward"][0] == {"pair": ["s", "t"], "claimed": "1/12", "lifted": "1/6",
                                    "slack": "-1/12"}
    assert "undecided" not in report and "approximation-slack" not in report
    code, out, _ = run_cli(capsys, *args("grid.json"))
    report = json.loads(out)
    assert (code, report["verdict"], report["undecided"]) == (1, "undecided", 6)
    assert report["approximation-slack"] == "1/2"
    assert report["forward"][0] == {"pair": ["s", "t"], "claimed": "1/12", "lifted": "1/12",
                                    "slack": "0"}


def test_a_grid_certificate_without_an_error_bound_is_a_usage_error(tmp_path, capsys,
                                                                    monkeypatch):
    real = DFin._modalities
    monkeypatch.setattr(DFin, "_modalities", lambda self: {
        name: dataclasses.replace(lam, nonexpansive=False) for name, lam in real(self).items()})
    code, out, err = run_cli(capsys, *item_two_files(tmp_path)("grid.json"))
    assert (code, out) == (2, "")
    assert err == ("error: modality E is not flagged nonexpansive; the grid oracle carries "
                   "no error bound for it\n")


def item_two_dist(tmp_path, lifting):
    item_two_files(tmp_path)
    return ["dist", "--system", str(tmp_path / "a.json"), "--system", str(tmp_path / "b.json"),
            "--lifting", str(tmp_path / lifting)]


def test_a_grid_distance_reports_its_approximation_slack(tmp_path, capsys):
    # the grid's matrix bounds the exact lifting's fixpoint from below, and
    # says so; an exact lifting's report has no such key
    code, out, _ = run_cli(capsys, *item_two_dist(tmp_path, "grid.json"))
    grid = json.loads(out)
    assert (code, grid["approximation-slack"], grid["converged"]) == (0, "1/2", True)
    code, out, _ = run_cli(capsys, *item_two_dist(tmp_path, "kantorovich.json"))
    exact = json.loads(out)
    assert code == 0 and "approximation-slack" not in exact
    assert set(grid) - set(exact) == {"approximation-slack"}
    for low, high in zip(grid["matrix"]["values"], exact["matrix"]["values"]):
        assert all(F(g) <= F(e) for g, e in zip(low, high))


def test_a_grid_distance_without_an_error_bound_is_a_usage_error(tmp_path, capsys,
                                                                  monkeypatch):
    real = DFin._modalities
    monkeypatch.setattr(DFin, "_modalities", lambda self: {
        name: dataclasses.replace(lam, nonexpansive=False) for name, lam in real(self).items()})
    code, out, err = run_cli(capsys, *item_two_dist(tmp_path, "grid.json"))
    assert (code, out) == (2, "")
    assert err == ("error: modality E is not flagged nonexpansive; the grid oracle carries "
                   "no error bound for it\n")


def test_systems_outside_their_functor_are_usage_errors(tmp_path, capsys):
    with open(fixture_path("labelled_kripke_a.json")) as handle:
        labelled = json.load(handle)
    labelled["alpha"]["a2"][0] = "9/10"
    with open(fixture_path("prob_deadlock.json")) as handle:
        prob = json.load(handle)
    prob["alpha"]["u0"] = [["u1", "0"], ["u2", "1"]]
    path = tmp_path / "system.json"
    for raw, other, lifting, issue in (
            (labelled, "labelled_kripke_b.json", "half_label_hausdorff.json",
             "alpha[a2].fst: label '9/10' is not in the label set"),
            (prob, "prob_deadlock.json", "prob_lifting.json",
             "alpha[u0].just.dist[0]: probability 0 is not positive")):
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "dist", "--system", str(path), "--system",
                                 fixture_path(other), "--lifting", fixture_path(lifting))
        assert (code, out, err) == (2, "", f"error: {path}: system does not validate: {issue}\n")


def test_a_grid_modality_the_functor_lacks_is_a_usage_error(tmp_path, capsys):
    system, grid = tmp_path / "kripke.json", tmp_path / "grid.json"
    system.write_text(json.dumps({"states": ["s", "t"], "functor": {
        "kind": "pfin", "sub": {"kind": "id"}}, "alpha": {"s": ["t"], "t": []}}))
    grid.write_text(json.dumps({"kind": "kantorovich-grid", "modalities": ["E"],
                                "step": "1/2"}))
    code, out, err = run_cli(capsys, "dist", "--system", str(system), "--system", str(system),
                             "--lifting", str(grid))
    assert (code, out, err) == (
        2, "", f"error: {grid}: lifting does not fit the system functor: <root>: "
        "unknown modality 'E'; available: box, dia\n")


@pytest.mark.parametrize("flag", ["--output", "--out"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, flag):
    target = str(tmp_path / "missing" / "out.json")
    code, _, err = run_cli(capsys, "synth", *frames_args(), "--target", "b1",
                           "--rank", "1", flag, target)
    assert code == 2
    assert err.startswith(f"error: {target}: ")


def test_logic_eval_text_formula(capsys):
    code, out, _ = run_cli(
        capsys, "logic", "eval",
        "--formula", fixture_path("dia_shift.txt"),
        "--system", fixture_path("prob_deadlock.json"),
        "--state", "u2",
    )
    assert code == 0
    report = json.loads(out)
    # deadlock: dia(1/2) = 0, /\ 0.3 = 0, (+) 1/4 = 1/4
    assert report["value"] == "1/4"
    assert report["rank"] == 1


def test_logic_distance_matches_dist_at_fixpoint(capsys):
    code, out, _ = run_cli(capsys, "logic", "distance", "--rank", "3", *frames_args())
    assert code == 0
    logical = json.loads(out)["matrix"]
    code, out, _ = run_cli(capsys, "dist", *frames_args())
    fixpoint = json.loads(out)["matrix"]
    assert logical == fixpoint


def test_synth_writes_formula(tmp_path, capsys):
    out_path = str(tmp_path / "formula.json")
    code, out, _ = run_cli(
        capsys, "synth", *frames_args(),
        "--target", "b1", "--rank", "2", "--out", out_path,
    )
    assert code == 0
    report = json.loads(out)
    assert report["values"]["a1"] == "1/5"
    assert report["values"]["b1"] == "0"
    assert os.path.exists(out_path)
    stored = json.load(open(out_path))
    assert stored == report["formula"]


def test_synth_computes_the_semantics_table_once(monkeypatch, capsys):
    calls = []
    real = logic.semantics

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # evaluate reaches semantics through laxkit.logic, the CLI through its own name
    monkeypatch.setattr(logic, "semantics", counted)
    monkeypatch.setattr(cli, "semantics", counted, raising=False)
    code, out, _ = run_cli(capsys, "synth", *frames_args(), "--target", "b1", "--rank", "2")
    assert code == 0
    assert len(json.loads(out)["values"]) == 6
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["logic", "distance", "--rank", "3"],
    ["synth", "--target", "b1", "--rank", "3"],
])
def test_synthesized_formulas_build_no_modality_table(monkeypatch, capsys, argv):
    tables = count_modality_tables(monkeypatch)
    code, _, _ = run_cli(capsys, *argv, *frames_args())
    assert code == 0
    assert tables == []


def test_logic_eval_builds_the_modality_table_once(monkeypatch, capsys):
    tables = count_modality_tables(monkeypatch)
    code, out, _ = run_cli(
        capsys, "logic", "eval",
        "--formula", fixture_path("dia_shift.txt"),
        "--system", fixture_path("prob_deadlock.json"),
        "--state", "u0",
    )
    assert code == 0
    assert len(tables) == 1


def test_synth_then_eval_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "prob_formula.json")
    code, out, _ = run_cli(
        capsys, "synth",
        "--system", fixture_path("prob_deadlock.json"),
        "--lifting", fixture_path("prob_lifting.json"),
        "--target", "u1", "--rank", "3", "--out", out_path,
    )
    assert code == 0
    claimed = json.loads(out)["values"]
    for state in ("u0", "u1", "u2"):
        code, out, _ = run_cli(
            capsys, "logic", "eval",
            "--formula", out_path,
            "--system", fixture_path("prob_deadlock.json"),
            "--lifting", fixture_path("prob_lifting.json"),
            "--state", state,
        )
        assert code == 0
        assert json.loads(out)["value"] == claimed[state]


def test_catalog_lists_modalities(capsys):
    code, out, _ = run_cli(
        capsys, "catalog", "--system", fixture_path("prob_deadlock.json")
    )
    assert code == 0
    report = json.loads(out)
    names = {m["name"] for m in report["modalities"]}
    assert names == {"dia", "box"}
    assert "hausdorff" in report["lifting-kinds"]


def test_catalog_refuses_an_invalid_system(tmp_path, capsys):
    bad = tmp_path / "unknown_state.json"
    bad.write_text(json.dumps({
        "functor": {"kind": "pfin", "sub": {"kind": "id"}},
        "states": ["s"],
        "alpha": {"s": ["t"]},
    }))
    code, out, err = run_cli(capsys, "catalog", "--system", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: system does not validate: ")


def test_catalog_takes_a_functor_or_a_system_not_both(capsys):
    functor = fixture_path("labelled_kripke_functor.json")
    system = fixture_path("labelled_kripke_a.json")
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--functor", functor, "--system", system])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --system: not allowed with argument --functor" in out.err
    for flag, path in (("--functor", functor), ("--system", system)):
        code, out, _ = run_cli(capsys, "catalog", flag, path)
        assert code == 0 and list(json.loads(out)["inputs"]) == [path]


def test_internal_errors_exit_3_with_a_traceback(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli, "cmd_catalog", broken)
    code, out, err = run_cli(capsys, "catalog")
    assert (code, out) == (cli.EXIT_INTERNAL, "") and cli.EXIT_INTERNAL == 3
    assert err.startswith("internal error: RuntimeError: kaput\nTraceback (most recent call last):")
    assert err.rstrip().endswith("RuntimeError: kaput")


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "dist", "--format", "table", *frames_args())
    assert code == 0
    assert "matrix:" in out and "1/5" in out
    assert "sha256:" in out
    code, again, _ = run_cli(capsys, "dist", "--format", "table", *frames_args())
    assert out == again  # byte-identical in table mode too
    code, out, _ = run_cli(
        capsys, "check-cert", "--format", "table",
        "--cert", fixture_path("labelled_kripke_cert.json"), *frames_args(),
    )
    assert code == 0
    assert "verdict: ok" in out
    assert "a1 -> b1: claimed 1/5, lifted 1/5, slack 0" in out


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LAXKIT_SEED", "99")
    code, out, _ = run_cli(
        capsys, "axioms", "--lifting", fixture_path("hausdorff_sym.json"),
        "--trials", "5", "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 99


# ---------------------------------------------------------------------------
# Resource bounds on formulas: refused as usage errors before the work starts


def weighted_loop_args():
    return ["--system", fixture_path("weighted_loop_a.json"),
            "--system", fixture_path("weighted_loop_b.json"),
            "--lifting", fixture_path("weighted_step_lifting.json")]


def deadlock_loop_args(tmp_path):
    """A one-state maybe(dfin(pair(const, id))) loop and its lifting."""
    functor = {"kind": "maybe", "sub": {"kind": "dfin", "sub": {
        "kind": "pair", "left": {"kind": "const", "labels": ["0", "1"],
                                 "metric": [["0", "1"], ["1", "0"]]},
        "right": {"kind": "id"}}}}
    system = tmp_path / "deadlock_loop.json"
    system.write_text(json.dumps({"functor": functor, "states": ["s"],
                                  "alpha": {"s": [[["1", "s"], "1"]]}}))
    lifting = tmp_path / "deadlock_loop_lifting.json"
    lifting.write_text(json.dumps({"kind": "maybe", "sub": {"kind": "kantorovich", "sub": {
        "kind": "pair-max", "left": {"kind": "const"}, "right": {"kind": "id"}}}}))
    return ["--system", str(system), "--lifting", str(lifting)]


@pytest.mark.parametrize("command", [["synth", "--target", "t"], ["logic", "distance"]])
def test_rank_bound_on_weighted_loops(capsys, command):
    code, out, _ = run_cli(capsys, *command, *weighted_loop_args(),
                           "--rank", str(MAX_RANK))
    assert code == 0 and json.loads(out)["rank"] == MAX_RANK
    code, out, err = run_cli(capsys, *command, *weighted_loop_args(),
                             "--rank", str(MAX_RANK + 1))
    assert (code, out) == (2, "")
    assert err == f"error: rank {MAX_RANK + 1} exceeds the limit {MAX_RANK}\n"


@pytest.mark.parametrize("command", [["synth", "--target", "s"], ["logic", "distance"]])
def test_rank_bound_on_a_deadlock_loop(tmp_path, capsys, command):
    args = deadlock_loop_args(tmp_path)
    code, _, _ = run_cli(capsys, *command, *args, "--rank", str(MAX_RANK))
    assert code == 0
    code, out, _ = run_cli(capsys, *command, *args, "--rank", str(MAX_RANK + 1))
    assert (code, out) == (2, "")


def branching_pair_args(tmp_path):
    """s, labelled 0, and t, labelled 1, each step to {s, t}: the rank-n
    formula for s shares 2n + 1 distinct nodes and, for n >= 1, has
    3 * 2^(n-1) - 1 as a tree."""
    labels = {"kind": "const", "labels": ["0", "1"], "metric": [["0", "1"], ["1", "0"]]}
    functor = {"kind": "pair", "left": labels, "right": {"kind": "pfin", "sub": {"kind": "id"}}}
    system = tmp_path / "branching.json"
    system.write_text(json.dumps({"functor": functor, "states": ["s", "t"],
                                  "alpha": {"s": ["0", ["s", "t"]], "t": ["1", ["s", "t"]]}}))
    return ["synth", "--system", str(system),
            "--lifting", fixture_path("half_label_hausdorff.json"), "--target", "s"]


def test_synth_refuses_a_tree_too_large_to_write(tmp_path, capsys):
    args = branching_pair_args(tmp_path)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *args, "--rank", "20")
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert err == (f"error: the rank-20 formula has {3 * 2 ** 19 - 1} nodes written out as a "
                   f"tree, more than the {MAX_TREE_NODES} a report may hold; lower the rank\n")


def test_synth_writes_a_tree_up_to_the_cap(tmp_path, capsys, monkeypatch):
    # rank 3 has 11 nodes: a cap of 11 writes the very report of no cap, 10 refuses it
    args = branching_pair_args(tmp_path) + ["--rank", "3"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.dumps(json.loads(out)["formula"]).count('"kind"') == 11
    monkeypatch.setattr(cli, "MAX_TREE_NODES", 11)
    assert run_cli(capsys, *args) == (0, out, "")
    monkeypatch.setattr(cli, "MAX_TREE_NODES", 10)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "") and "has 11 nodes" in err


@pytest.mark.parametrize("depth, ok", [(MAX_NESTING, True), (MAX_NESTING + 1, False), (250, False)])
@pytest.mark.parametrize("shape", [
    lambda n: "(" * n + "1" + ")" * n,
    lambda n: " /\\ ".join(["1"] * n),
    lambda n: " (+) ".join(["1"] + ["0"] * (n - 1)),
], ids=["parentheses", "conjunctions", "shifts"])
def test_deep_text_formulas_are_usage_errors(tmp_path, capsys, shape, depth, ok):
    formula = tmp_path / "deep.txt"
    formula.write_text(shape(depth))
    code, out, err = run_cli(capsys, "logic", "eval", "--formula", str(formula),
                             "--system", fixture_path("prob_deadlock.json"), "--state", "u0")
    if ok:
        assert code == 0 and json.loads(out)["value"] == "1"
    else:
        assert (code, out) == (2, "")
        assert err.endswith(f"formula nested deeper than {MAX_NESTING} levels\n")


def test_synth_out_refuses_a_formula_laxkit_cannot_read(tmp_path, capsys):
    readable = tmp_path / "rank32.json"
    code, out, _ = run_cli(capsys, "synth", *weighted_loop_args(), "--target", "t",
                           "--rank", "32", "--out", str(readable))
    assert code == 0
    claimed = json.loads(out)["values"]["s"]
    code, out, _ = run_cli(capsys, "logic", "eval", "--formula", str(readable),
                           "--system", fixture_path("weighted_loop_a.json"), "--state", "s",
                           "--lifting", fixture_path("weighted_step_lifting.json"))
    assert code == 0 and json.loads(out)["value"] == claimed
    too_deep = tmp_path / "rank33.json"
    code, out, err = run_cli(capsys, "synth", *weighted_loop_args(), "--target", "t",
                             "--rank", "33", "--out", str(too_deep))
    assert (code, out) == (2, "")
    assert err == f"error: {too_deep}: JSON nested deeper than {MAX_NESTING} levels\n"
    assert not too_deep.exists()


def test_label_modalities_with_a_slash_evaluate_from_text(tmp_path, capsys):
    system = ["--system", fixture_path("labelled_kripke_a.json"), "--state", "a1"]
    values = []
    for name, text in (("at.txt", "at-1/5 \\/ far-7/10"),
                       ("at.json", json.dumps({"kind": "or", "left": {
                           "kind": "modal", "name": "at-1/5", "args": []}, "right": {
                           "kind": "modal", "name": "far-7/10", "args": []}}))):
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run_cli(capsys, "logic", "eval", "--formula", str(path), *system)
        assert code == 0
        values.append(json.loads(out)["value"])
    assert values == ["1/2", "1/2"]


def test_a_non_utf8_text_formula_is_a_usage_error(tmp_path, capsys):
    formula = tmp_path / "latin1.txt"
    formula.write_bytes("dia(1/2) é".encode("latin-1"))
    code, out, err = run_cli(capsys, "logic", "eval", "--formula", str(formula),
                             "--system", fixture_path("prob_deadlock.json"), "--state", "u0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {formula}: not UTF-8 text: ")


@pytest.mark.parametrize("argv", [
    ["check-cert", "--cert", fixture_path("labelled_kripke_cert.json"), *frames_args()],
    ["logic", "eval", "--formula", fixture_path("dia_shift.txt"),
     "--system", fixture_path("prob_deadlock.json"), "--state", "u0"],
    ["synth", "--system", fixture_path("prob_deadlock.json"),
     "--lifting", fixture_path("prob_lifting.json"), "--target", "u1", "--rank", "2"],
], ids=["check-cert", "text-formula", "one-system"])
def test_each_input_file_is_opened_once(monkeypatch, capsys, argv):
    cli.build_parser()  # the parser's own set-up is not an input
    opened = []
    real_open = open

    def counted_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert sorted(opened) == sorted(inputs)


def test_one_system_is_decoded_once(monkeypatch, capsys):
    decoded = []
    real = cli.decode_system

    def counted(*args, **kwargs):
        decoded.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "decode_system", counted)
    for command in (["synth", "--target", "u1", "--rank", "2"], ["dist"],
                    ["logic", "distance", "--rank", "2"]):
        decoded.clear()
        code, _, _ = run_cli(capsys, *command, "--system", fixture_path("prob_deadlock.json"),
                             "--lifting", fixture_path("prob_lifting.json"))
        assert code == 0
        assert decoded == [fixture_path("prob_deadlock.json")]


def test_the_reused_parser_keeps_no_state_between_calls(monkeypatch):
    """Each call's arguments equal a fresh parser's: appends, flags and
    per-subcommand defaults do not carry over from the call before."""
    monkeypatch.delenv("LAXKIT_SEED", raising=False)
    seen = []
    for name in ("cmd_dist", "cmd_synth", "cmd_axioms", "cmd_logic_eval", "cmd_catalog"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    calls = [
        ["dist", "--system", "a.json", "--system", "b.json", "--lifting", "l.json",
         "--trace", "--tol", "1/8", "--max-iter", "7", "--seed", "5", "--format", "table",
         "--output", "o.json"],
        ["dist", "--system", "c.json", "--lifting", "l.json"],
        ["synth", "--system", "a.json", "--system", "b.json", "--lifting", "l.json",
         "--target", "t", "--rank", "2", "--out", "f.json"],
        ["synth", "--system", "c.json", "--lifting", "l.json", "--target", "t", "--rank", "1"],
        ["axioms", "--lifting", "l.json", "--trials", "3", "--max-size", "2", "--functor", "f"],
        ["axioms", "--lifting", "l.json"],
        ["logic", "eval", "--formula", "p.txt", "--system", "a.json", "--state", "s"],
        ["catalog"],
    ]
    for argv in calls:
        assert main(argv) == 0
        fresh = vars(cli.build_parser.__wrapped__().parse_args(argv))
        if "tol" in fresh:
            fresh["tol"] = parse_unit(fresh["tol"])
        assert seen[-1] == fresh
    second_dist = seen[1]
    assert second_dist["system"] == ["c.json"]
    assert (second_dist["trace"], second_dist["max_iter"], second_dist["tol"]) == (False, 100, 0)
    assert (second_dist["seed"], second_dist["format"], second_dist["output"]) == (0, "json", None)
    assert (seen[5]["trials"], seen[5]["max_size"], seen[5]["functor"]) == (500, 5, None)


def test_no_parser_is_built_after_the_first_call(monkeypatch, capsys):
    run_cli(capsys, "catalog")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for argv in (["dist", *frames_args()], ["logic", "distance", "--rank", "1", *frames_args()],
                 ["catalog", "--system", fixture_path("prob_deadlock.json")]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert built == []


def test_internal_errors_exit_3_after_an_earlier_call(capsys, monkeypatch):
    assert run_cli(capsys, "catalog")[0] == 0
    test_internal_errors_exit_3_with_a_traceback(capsys, monkeypatch)


# ---------------------------------------------------------------------------
# Validation warnings, table rendering and argument errors


def _with_duplicate(tmp_path, name, state, entry):
    """A copy of a fixture system whose `state` lists `entry` in place of its
    successors; the copy means the same system as the fixture."""
    raw = json.load(open(fixture_path(name)))
    raw["alpha"][state] = entry
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("name, state, entry, lifting, warning", [
    ("prob_deadlock.json", "u0", [["u1", "1/6"], ["u1", "1/6"], ["u2", "2/3"]],
     "prob_lifting.json", "duplicate support entry at {path}.alpha[u0].just[1] merged"),
    ("labelled_kripke_a.json", "a1", ["7/10", ["a2", "a3", "a2"]], "half_label_hausdorff.json",
     "duplicate set member 'a2' at {path}.alpha[a1][1][2] deduplicated"),
], ids=["merged-support-entry", "deduplicated-set-member"])
def test_validation_warnings_go_to_stderr(tmp_path, capsys, name, state, entry, lifting,
                                          warning):
    path = _with_duplicate(tmp_path, name, state, entry)
    code, out, err = run_cli(capsys, "dist", "--system", path,
                             "--lifting", fixture_path(lifting))
    assert code == 0
    assert err == f"warning: {warning.format(path=path)}\n"
    _, clean, _ = run_cli(capsys, "dist", "--system", fixture_path(name),
                          "--lifting", fixture_path(lifting))
    assert json.loads(out)["matrix"] == json.loads(clean)["matrix"]


def test_a_system_given_twice_warns_once_per_note(tmp_path, capsys, monkeypatch):
    path = _with_duplicate(tmp_path, "labelled_kripke_a.json", "a1",
                           ["7/10", ["a2", "a3", "a2", "a3"]])
    _, once, _ = run_cli(capsys, "dist", "--system", path,
                         "--lifting", fixture_path("half_label_hausdorff.json"))
    monkeypatch.chdir(tmp_path)
    # the same spelling twice, then a second spelling of the same file
    for again in (path, "./labelled_kripke_a.json"):
        code, out, err = run_cli(capsys, "dist", "--system", path, "--system", again,
                                 "--lifting", fixture_path("half_label_hausdorff.json"))
        assert code == 0
        assert err.splitlines() == [
            f"warning: duplicate set member 'a2' at {path}.alpha[a1][1][2] deduplicated",
            f"warning: duplicate set member 'a3' at {path}.alpha[a1][1][3] deduplicated",
        ]
        report = json.loads(out)
        assert report["matrix"] == json.loads(once)["matrix"]
        assert report["inputs"][again] == report["inputs"][path]


def _section(lines, title):
    """The indented lines that follow the line `title` in a table report."""
    start = lines.index(title) + 1
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith(" ")),
               len(lines))
    return lines[start:end]


def test_table_format_renders_axioms_checks(capsys):
    argv = ["axioms", "--trials", "40", "--lifting", fixture_path("hausdorff_left.json")]
    code, out, _ = run_cli(capsys, *argv)
    checks = json.loads(out)["checks"]
    assert code == 1 and not all(c["passed"] for c in checks)
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 1
    expected, data = [], []  # the JSON report sorts each counterexample's data
    for c in checks:
        claim = "" if c["claimed"] else "  [not claimed]"
        expected.append(f"  {c['name']:<11} {'pass' if c['passed'] else 'FAIL'}{claim}")
        if c["counterexample"]:
            cex = c["counterexample"]
            expected.append(f"    trial {cex['trial']}: {cex['description']}")
            data += [f"      {k} = {v}" for k, v in cex["data"].items()]
    section = _section(out.splitlines(), "checks:")
    assert [line for line in section if line not in data] == expected
    assert sorted(line for line in section if line in data) == sorted(data)


def test_table_format_renders_catalog_modalities(capsys):
    argv = ["catalog", "--system", fixture_path("prob_deadlock.json")]
    _, out, _ = run_cli(capsys, *argv)
    modalities = json.loads(out)["modalities"]
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    assert _section(out.splitlines(), "modalities:") == [
        f"  {m['name']}/{m['arity']} (monotone, nonexpansive, dual {m['dual']})"
        for m in modalities]


def test_table_format_renders_each_traced_step(capsys):
    argv = ["dist", *weighted_loop_args(), "--tol", "1/64", "--trace"]
    _, out, _ = run_cli(capsys, *argv)
    trace = json.loads(out)["trace"]
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    lines = out.splitlines()
    for n, step in enumerate(trace):
        header, *rows = _section(lines, f"step {n}:")
        assert header.split() == step["target"]
        assert [row.split() for row in rows] == [
            [a, *values] for a, values in zip(step["source"], step["values"])]
    assert f"step {len(trace)}:" not in lines


def test_synth_over_one_system_given_twice_targets_its_copy(capsys):
    system = fixture_path("labelled_kripke_a.json")
    code, out, _ = run_cli(capsys, "synth", "--system", system, "--system", system,
                           "--lifting", fixture_path("half_label_hausdorff.json"),
                           "--target", "a1", "--rank", "2")
    assert code == 0
    report = json.loads(out)
    assert report["target"] == "a1'"
    values = report["values"]
    assert values["a1"] == values["a1'"] == "0"
    assert all(values[s] == values[s + "'"] for s in ("a1", "a2", "a3"))


@pytest.mark.parametrize("second, target", [("labelled_kripke_b.json", "a1"),
                                            ("labelled_kripke_a.json", "a1'")])
def test_synth_target_must_be_in_the_second_system(capsys, second, target):
    # a1 is a state of the first system only; a1' is the union's name for
    # the second copy of a1, not a state of the second system
    code, out, err = run_cli(capsys, "synth", "--system", fixture_path("labelled_kripke_a.json"),
                             "--system", fixture_path(second),
                             "--lifting", fixture_path("half_label_hausdorff.json"),
                             "--target", target, "--rank", "1")
    assert (code, out, err) == (
        2, "", f"error: state {target!r} is not in the second system\n")


def test_three_systems_are_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "dist", *frames_args(),
                             "--system", fixture_path("labelled_kripke_a.json"))
    assert (code, out) == (2, "")
    assert err == "error: --system: give one or two --system files\n"


def test_a_non_integer_seed_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LAXKIT_SEED", "0x10")
    code, out, err = run_cli(capsys, "dist", *frames_args())
    assert (code, out) == (2, "")
    assert err == "error: LAXKIT_SEED must be an integer, got '0x10'\n"


# ---------------------------------------------------------------------------
# The exit-code contract on damaged input: a command whose JSON input is
# changed at one place exits 0, 1 or 2, never 3 (an internal error).

KRIPKE_FILES = ["--system", "labelled_kripke_a.json", "--system", "labelled_kripke_b.json",
                "--lifting", "half_label_hausdorff.json"]
DAMAGED_RUNS = [
    ["dist", *KRIPKE_FILES],
    ["check-cert", "--cert", "labelled_kripke_cert.json", *KRIPKE_FILES],
    ["dist", "--system", "prob_deadlock.json", "--lifting", "prob_lifting.json"],
    ["axioms", "--trials", "3", "--lifting", "half_label_hausdorff.json",
     "--functor", "labelled_kripke_functor.json"],
    ["logic", "eval", "--formula", "neg_modalities.json", "--state", "a1",
     "--system", "labelled_kripke_a.json", "--lifting", "half_label_hausdorff.json"],
    ["logic", "distance", "--rank", "2", *KRIPKE_FILES],
    ["synth", "--target", "b1", "--rank", "2", *KRIPKE_FILES],
    ["catalog", "--system", "prob_deadlock.json"],
]
DAMAGE = json_values(["sub", "left", "right", "labels", "metric", "variant", "weights",
                      "factor", "modalities", "step", "source", "target", "values",
                      "functor", "states", "alpha", "relation", "name", "args", "element"],
                     [*FUNCTOR_KINDS, *LIFTING_KINDS, "modal", "neg", "and", "warp"])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_inputs_never_exit_3(data):
    argv = data.draw(st.sampled_from(DAMAGED_RUNS))
    at = data.draw(st.sampled_from([i for i, a in enumerate(argv) if a.endswith(".json")]))
    damaged = data.draw(mutants(json.load(open(fixture_path(argv[at]))), DAMAGE))
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, argv[at])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(damaged, handle)
        args = [path if i == at else fixture_path(a) if a.endswith(".json") else a
                for i, a in enumerate(argv)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2), err.getvalue()

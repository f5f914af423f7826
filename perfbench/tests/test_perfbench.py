"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def written(workload, seed, path) -> dict:
    os.makedirs(path)
    for call in workloads.round_calls(workload, seed, 0):
        call.write(path)
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            out[name] = handle.read()
    return out


@pytest.mark.parametrize("workload", sorted(workloads.LADDERS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = written(workload, 7, tmp_path / "a")
    again = written(workload, 7, tmp_path / "b")
    other = written(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


def test_reference_transport_matches_the_program_simplex():
    from laxkit.transport import min_cost_transport

    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mu = [Fraction(w) for w in (rng.randint(1, 4) for _ in range(m))]
        nu = [Fraction(w) for w in (rng.randint(1, 4) for _ in range(n))]
        mu = [w / sum(mu) for w in mu]
        nu = [w / sum(nu) for w in nu]
        cost = [[Fraction(rng.randint(0, 12), rng.choice((1, 3, 8, 12))) for _ in range(n)]
                for _ in range(m)]
        assert reference.transport(mu, nu, cost) == min_cost_transport(mu, nu, cost).value


def cli_answer(call, tmp_path):
    cli = run.load_cli()
    os.makedirs(tmp_path, exist_ok=True)
    code, stdout, error = run.invoke(cli, call.write(str(tmp_path)))
    assert code is not None, error
    return code, stdout


def test_checker_accepts_the_program_and_rejects_a_wrong_matrix(tmp_path):
    rng = random.Random(11)
    for family, n, width in (("lmc", 4, 2), ("kf", 5, 2), ("dlm", 4, 2)):
        call = workloads.dist(rng, "small", f"d{family}", family, n, width,
                              12 if family == "dlm" else None)
        code, stdout = cli_answer(call, tmp_path)
        assert reference.check("dist", call.spec, code, stdout) is None
        report = json.loads(stdout)
        value = Fraction(report["matrix"]["values"][0][0])
        report["matrix"]["values"][0][0] = str(value / 2 if value else Fraction(1, 3))
        assert reference.check("dist", call.spec, code, json.dumps(report))


def test_checker_rejects_a_wrong_verdict_and_exit_code(tmp_path):
    rng = random.Random(12)
    verdicts = set()
    for i in range(6):
        call = workloads.cert(rng, "small", f"c{i}", "lkf", 4, 2,
                              ("simulation", "bisimulation")[i % 2])
        code, stdout = cli_answer(call, tmp_path)
        assert reference.check("cert", call.spec, code, stdout) is None
        report = json.loads(stdout)
        verdicts.add(report["verdict"])
        flipped = dict(report, verdict="violation" if report["verdict"] == "ok" else "ok")
        assert reference.check("cert", call.spec, code, json.dumps(flipped))
        assert reference.check("cert", call.spec, 1 - code, stdout)
    assert verdicts == {"ok", "violation"}


def test_checker_rejects_wrong_logic_and_synth_answers(tmp_path):
    rng = random.Random(13)
    call = workloads.logic(rng, "small", "l", "lkf", 4, 2, 2)
    code, stdout = cli_answer(call, tmp_path)
    assert reference.check("logic", call.spec, code, stdout) is None
    call.spec["rank"] = 1
    assert reference.check("logic", call.spec, code, stdout)
    call = workloads.synth(rng, "small", "s", "lmc", 3, 2, 2)
    code, stdout = cli_answer(call, tmp_path)
    assert reference.check("synth", call.spec, code, stdout) is None
    report = json.loads(stdout)
    state = next(s for s in report["values"] if s != call.spec["target"])
    report["values"][state] = "1" if report["values"][state] != "1" else "0"
    assert reference.check("synth", call.spec, code, json.dumps(report))


def test_every_end_to_end_metric_is_emitted():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "law_suite", "--seed", "3", "--seconds", "1"]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


def test_traced_counters_repeat_exactly_and_every_layer_metric_is_emitted():
    counted = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "bits")}
    runs = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            record, metrics, _ = run.trace_run("kripke_logic", 4, rounds=1)
        assert not record.failures
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        runs.append({name: metrics[name] for name in counted})
    assert runs[0] == runs[1]
    assert runs[0]["transport.solves"][0] == 0
    assert runs[0]["liftings.lift_calls"][0] > 0


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "law_suite", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

"""The scripts under scripts/ stay runnable against the package's API.

No other test runs them, yet they call the public functions of laxkit.
Each one here runs in well under a second.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import laxkit as lk
from tests.conftest import FIXTURES

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")


def run_script(path: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, path, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_demo_and_law_suite_scripts_exit_zero():
    for name, args in (("demo_labelled_frames.py", ()), ("run_law_suites.py", ("5", "0"))):
        proc = run_script(os.path.join(SCRIPTS, name), *args)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"


def test_make_fixtures_reproduces_the_bundled_fixtures(tmp_path):
    # a copy of the script writes next to itself, into tmp_path/fixtures
    (tmp_path / "scripts").mkdir()
    script = shutil.copy(os.path.join(SCRIPTS, "make_fixtures.py"), tmp_path / "scripts")
    proc = run_script(str(script))
    assert proc.returncode == 0, proc.stderr
    written = sorted(os.listdir(tmp_path / "fixtures"))
    assert written
    for name in written:
        with open(os.path.join(FIXTURES, name), "rb") as handle:
            assert (tmp_path / "fixtures" / name).read_bytes() == handle.read(), name


def load_bench_pair():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", os.path.join(SCRIPTS, "bench_pair.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_digests_the_measured_code(tmp_path):
    tree_digest = load_bench_pair().tree_digest
    one = tmp_path / "one"
    for rel, data in {"src/laxkit/core.py": b"x = 1\n", "src/laxkit/__init__.py": b"",
                      "perfbench/run.py": b"print(1)\n", "README.md": b"words\n"}.items():
        (one / rel).parent.mkdir(parents=True, exist_ok=True)
        (one / rel).write_bytes(data)
    two = tmp_path / "two"
    shutil.copytree(one, two)
    assert not (one / ".git").exists()
    digest = tree_digest(str(one))
    assert len(digest) == 64 and tree_digest(str(two)) == digest
    # files outside src/ and perfbench/, and byte code caches, are not code a run measures
    (two / "README.md").write_bytes(b"other words\n")
    (two / "src" / "laxkit" / "__pycache__").mkdir()
    (two / "src" / "laxkit" / "__pycache__" / "core.pyc").write_bytes(b"\0")
    assert tree_digest(str(two)) == digest
    (two / "src" / "laxkit" / "core.py").write_bytes(b"x = 2\n")
    assert tree_digest(str(two)) != digest


def test_bench_pair_reports_a_spread_past_the_bound_as_unresolved():
    bench_pair = load_bench_pair()
    tight = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # IQR 0.5 of the median 1
    cases = {  # workload: (parent runs, change runs, verdict on "t_s" and on "rate")
        "within": (tight, [x * 1.1 for x in tight], "within", "within"),
        "beyond": (tight, [x * 1.4 for x in tight], "WORSE beyond", "WORSE beyond"),
        "spread": (wide, [x * 1.05 for x in wide], "unresolved", "unresolved"),
        "clear": (wide, [x * 0.4 for x in wide], "within", "within"),
    }
    pairs = [{"workload": workload, "seed": seed, "first": "parent",
              **{side: {"failed": 0, "attempted": 1,
                        "metrics": {"t_s": {"value": v}, "rate": {"value": 1 / v}}}
                 for side, v in (("parent", p), ("change", c))}}
             for workload, (parent, change, _, _) in cases.items()
             for seed, (p, c) in enumerate(zip(parent, change))]
    end_to_end = {"t_s": {"name": "t_s", "better": "lower", "bound": 0.25},
                  "rate": {"name": "rate", "better": "higher", "bound": 0.25}}
    summary = bench_pair.summarise(pairs, end_to_end)
    assert {w: (row["metrics"]["t_s"]["verdict"], row["metrics"]["rate"]["verdict"])
            for w, row in summary.items()} == {w: c[2:] for w, c in cases.items()}
    lines = bench_pair.summary_lines(summary)
    assert len(lines) == 8 and "change won 0/10 pairs, unresolved (bound 25%)" in lines[4]


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reads_a_relation_view():
    # the tracer counts grid tables off a grid call's relation argument,
    # len(args[2].source), and counts every lift_value call
    spans = load_spans()
    a, b = lk.Carrier.of("x1", "x2", "x3"), lk.Carrier.of("y1", "y2")
    rel = lk.FuzzyRel.constant(a, b, F(1, 2))
    set_functor = lk.PFin(lk.Id())
    dia = set_functor.standard_modalities()["dia"]
    grid = lk.KantorovichGrid(("dia",), F(1, 2))
    t1, t2 = lk.fset([lk.IdEl("x1"), lk.IdEl("x3")]), lk.fset([lk.IdEl("y2")])
    index_rows = lk.RelView.of_rows(
        range(3), {i: dict(enumerate(row)) for i, row in enumerate(rel.values)}, {})
    counts = Counter()
    for view, u, v in ((rel.view(), t1, t2), (index_rows, t1.map(a.index), t2.map(b.index))):
        args = ([dia], F(1, 2), view, u, v)
        value = lk.grid_kantorovich_value(*args)
        assert spans._grid_tables(args) == 3 ** 3
        spans._on_return("liftings.grid", args, value, counts)
        lifted = lk.lift_value(grid, set_functor, view, u, v)
        spans._on_return("liftings.lift", (grid, set_functor, view, u, v), lifted, counts)
        assert lifted == value
    assert counts == {"liftings.grid_calls": 2, "liftings.grid_tables": 2 * 3 ** 3,
                      "liftings.lift_calls": 2}
    # installed, the tracer wraps lift_value around a law-suite run
    tracer = spans.Tracer()
    tracer.install()
    try:
        lk.check_axioms(lk.KantorovichGrid(("dia", "box"), F(1, 2)), set_functor,
                        lk.AxiomConfig(trials=3, max_size=2))
    finally:
        tracer.uninstall()
    assert tracer.counts["liftings.lift_calls"] > 0 and tracer.counts["liftings.grid_calls"] > 0


def test_compare_reports_tells_a_changed_lifting_apart(tmp_path):
    script = os.path.join(SCRIPTS, "compare_reports.py")
    args = ("--workloads", "kripke_logic", "--seeds", "7", "--rounds", "1")
    proc = run_script(script, ROOT, ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "40 calls: same exit codes, stdout and stderr\n"
    # a copy whose Hausdorff lifting reads its left-to-right half as an inf
    mutant = tmp_path / "mutant"
    for top in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, top), mutant / top,
                        ignore=shutil.ignore_patterns("__pycache__"))
    liftings_py = mutant / "src" / "laxkit" / "liftings.py"
    source = liftings_py.read_text()
    assert source.count("max(map(min, rows))") == 1
    liftings_py.write_text(source.replace("max(map(min, rows))", "min(map(min, rows))"))
    proc = run_script(script, ROOT, str(mutant), *args)
    assert proc.returncode == 1, proc.stderr
    assert "call differs in" in proc.stdout

"""The scripts under scripts/ stay runnable against the package's API.

No other test runs them, yet they call the public functions of laxkit.
Each one here runs in well under a second.
"""

import importlib.util
import os
import shutil
import subprocess
import sys

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

#!/usr/bin/env python3
"""Check that two checkouts answer every benchmark call alike.

    python3 scripts/compare_reports.py PARENT_DIR CHANGE_DIR --workloads kripke_logic,law_suite \\
        --seeds 7,11 --rounds 4

For every workload and seed it builds the calls of rounds 0 .. ROUNDS-1
with the change checkout's perfbench/workloads.round_calls and writes
their input files into one directory, which both sides then read, so the
`inputs` keys of their reports name the same paths.  Each side runs every
call as `laxkit.cli.main(argv)` in a child process of its own that
imports laxkit from that checkout's src/.  The script exits 1 at the
first call whose exit code, standard output or standard error differ
between the sides, naming the call and its first differing line, and 0
once every call agreed.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def seed_list(text: str) -> list:
    """'3-7' or '3,5,9'."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def serve(src: str) -> None:
    """The child's side: argv lists as JSON on stdin, and for each call
    [exit code, stdout, stderr] as JSON on stdout."""
    sys.path.insert(0, src)
    import laxkit.cli

    answers = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = laxkit.cli.main(argv)
            except SystemExit as exc:  # argparse refusing its arguments
                code = exc.code if isinstance(exc.code, int) else 2
        answers.append([code, out.getvalue(), err.getvalue()])
    json.dump(answers, sys.stdout)


def answers(root: str, argvs: list) -> list:
    """Every call's [exit code, stdout, stderr], run against root's src/."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--serve", os.path.join(root, "src")],
        input=json.dumps(argvs), capture_output=True, text=True, timeout=3600)
    if proc.returncode != 0:
        raise RuntimeError(f"the calls against {root} did not run:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(left: str, right: str) -> str:
    lines = zip(left.splitlines() + ["<end>"], right.splitlines() + ["<end>"])
    for number, (a, b) in enumerate(lines, 1):
        if a != b:
            return f"line {number}: parent {a!r}, change {b!r}"
    return "line endings differ"


def compare(roots: dict, workloads, names: list, seeds: list, rounds: int, workdir: str) -> int:
    total = 0
    for name in names:
        for seed in seeds:
            path = os.path.join(workdir, f"{name}-{seed}")
            os.makedirs(path)
            calls = [(number, call) for number in range(rounds)
                     for call in workloads.round_calls(name, seed, number)]
            argvs = [call.write(path) for _, call in calls]
            got = {side: answers(roots[side], argvs) for side in SIDES}
            for (number, call), argv, parent, change in zip(calls, argvs, *got.values()):
                for what, a, b in zip(("exit code", "stdout", "stderr"), parent, change):
                    if a != b:
                        detail = (f"parent {a}, change {b}" if what == "exit code"
                                  else first_difference(a, b))
                        print(f"{name} seed {seed} round {number}: {call.kind} call differs in "
                              f"{what}: {detail}\n  argv: {' '.join(argv)}")
                        return 1
            total += len(calls)
            shutil.rmtree(path)
    print(f"{total} calls: same exit codes, stdout and stderr")
    return 0


def main() -> int:
    if sys.argv[1:2] == ["--serve"]:
        serve(sys.argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the change checkout")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=seed_list, required=True, help="'a-b' or 'a,b,c'")
    parser.add_argument("--rounds", type=int, default=1, help="rounds 0 .. N-1 (default 1)")
    args = parser.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    sys.path.insert(0, os.path.join(roots["change"], "perfbench"))
    import workloads

    workdir = tempfile.mkdtemp(prefix="compare-reports-")
    try:
        return compare(roots, workloads, args.workloads.split(","), args.seeds, args.rounds,
                       workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark a parent checkout against a change checkout, pair by pair.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --workloads kripke_logic[,law_suite] \\
        --seeds 905-914 [--seconds 35] [--out BENCH.json]

--workloads takes a comma-separated list of workload names.  For every
workload and seed it runs `python3 perfbench/run.py --trace 0`
once in each checkout, one right after the other; which side goes first
alternates from pair to pair, starting with the parent.  Each checkout
runs its own perfbench and its own src.  The output JSON records each
side's commit, if the checkout is a git work tree, and a sha256 over the
files under its src/ and perfbench/ (see tree_digest), and holds every
pair's two result lines and, per workload and end-to-end metric, each
side's median and quartiles (statistics.quantiles, n=4), the change of
the median in percent, how many pairs the change won (ties count for
neither side) and its verdict against the metric's bound in
BENCHMARK.json, a share of the parent's median (see verdict), plus the
failed and attempted calls summed over each side's runs.  The file is
rewritten after every pair, so a cut run keeps the pairs it finished.  At the end, one line per workload and end-to-end
metric gives the two medians, the change in percent, the pairs won and
the verdict against the bound.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
DIGESTED = ("src", "perfbench")  # the code a run executes


def seed_list(text: str) -> list:
    """'3-7' or '3,5,9'."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def commit_of(root: str) -> str | None:
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_digest(root: str) -> str:
    """sha256 over the sorted relative paths and bytes of the files under
    root's src/ and perfbench/, skipping __pycache__.  It names the code a
    side ran even where the checkout is an export without a commit."""
    paths = []
    for top in DIGESTED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            paths += [os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
                      for name in filenames]
    digest = hashlib.sha256()
    for rel in sorted(paths):
        with open(os.path.join(root, rel), "rb") as handle:
            data = handle.read()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in a checkout:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def beyond_bound(parent: float, change: float, better: str, bound: float) -> bool:
    """Whether change is worse than parent by more than bound * |parent|."""
    worse_by = change - parent if better == "lower" else parent - change
    return worse_by > bound * abs(parent)


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """'unresolved' when the parent's runs spread wider than the bound (an
    interquartile range above bound * |median|), unless every change run
    beats every parent run; else 'WORSE beyond' when the change's median is
    worse than the parent's by more than the bound, and 'within' if not."""
    clear = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    base = quartiles(parent)
    if base["q3"] - base["q1"] > bound * abs(base["median"]) and not clear:
        return "unresolved"
    if beyond_bound(base["median"], statistics.median(change), better, bound):
        return "WORSE beyond"
    return "within"


def summarise(pairs: list, end_to_end: dict) -> dict:
    """Per workload and metric, each side's quartiles; end_to_end maps each
    end-to-end metric's name to its BENCHMARK.json entry."""
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        row = {"pairs": len(runs)}
        for side in SIDES:
            row[f"failed_{side}"] = sum(p[side]["failed"] for p in runs)
            row[f"attempted_{side}"] = sum(p[side]["attempted"] for p in runs)
        metrics = {}
        for name in runs[0]["parent"]["metrics"]:
            values = {side: [p[side]["metrics"][name]["value"] for p in runs] for side in SIDES}
            entry = {side: quartiles(values[side]) for side in SIDES}
            base = entry["parent"]["median"]
            entry["change_pct"] = (100 * (entry["change"]["median"] - base) / base
                                   if base else None)
            spec = end_to_end.get(name)
            if spec is not None:
                sign = -1 if spec["better"] == "lower" else 1
                entry["better"], entry["bound"] = spec["better"], spec["bound"]
                entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in
                                           zip(values["parent"], values["change"]))
                entry["verdict"] = verdict(values["parent"], values["change"],
                                           spec["better"], spec["bound"])
            metrics[name] = entry
        row["metrics"] = metrics
        out[workload] = row
    return out


def summary_lines(summary: dict) -> list:
    """One line per workload and end-to-end metric: parent median -> change
    median, the change in percent, the pairs the change won, and the
    verdict against the metric's bound."""
    lines = []
    for workload, row in summary.items():
        for name, entry in row["metrics"].items():
            if "better" not in entry:
                continue
            pct = "n/a" if entry["change_pct"] is None else f"{entry['change_pct']:+.1f}%"
            lines.append(f"{workload} {name}: {entry['parent']['median']:.6g} -> "
                         f"{entry['change']['median']:.6g} ({pct}, {entry['better']} is better),"
                         f" change won {entry['change_wins']}/{row['pairs']} pairs,"
                         f" {entry['verdict']} (bound {entry['bound']:.0%})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the change checkout")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=seed_list, required=True, help="'a-b' or 'a,b,c'")
    parser.add_argument("--seconds", type=float,
                        help="measuring window per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    report = {
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "commits": {side: commit_of(roots[side]) for side in SIDES},
        "trees": {side: tree_digest(roots[side]) for side in SIDES},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "pairs": [],
    }
    index = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed, seconds)
            report["pairs"].append(pair)
            report["summary"] = summarise(report["pairs"], end_to_end)
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=1)
                handle.write("\n")
            print(f"{workload} seed {seed} ({order[0]} first): "
                  + "  ".join(f"{side} failed {pair[side]['failed']}/{pair[side]['attempted']}"
                              for side in SIDES), flush=True)
            index += 1
    for line in summary_lines(report.get("summary", {})):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload markov_dist --seeds 1-10 [--seconds 35] [--trace 0]

Prints, per metric, the median, the quartiles as `statistics.quantiles(n=4)`
gives them, and the interquartile spread as a share of the median, next to
the metric's bound from BENCHMARK.json.  The raw results go to
.perfbench/spread-<workload>.jsonl, one run per line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    log = os.path.join(ROOT, ".perfbench", f"spread-{args.workload}.jsonl")
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}" + ("  WIDE" if share > bound / 3 else "")
        print(f"{name:26s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {share:.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

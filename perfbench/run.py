#!/usr/bin/env python3
"""Benchmark of the laxkit command line.

    python3 perfbench/run.py --workload markov_dist --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout (it imports laxkit from src/).
One process, one thread, a closed loop with one client: each call is
`laxkit.cli.main(argv)` in-process on freshly generated JSON files, and the
next call starts only after the previous one returned.  Calls run round by
round (see workloads.py); between rounds, outside every timed span, the
next round's inputs are generated and the finished round's answers are
checked by the independent reference in reference.py.  The measuring
window of --seconds covers the rounds including that work; a latency
covers one call.  Times are scaled to a reference speed, because the
machine's own speed drifts: each call is bracketed by calibrate(), and
its latency is wall * CALIBRATION_REF / mean(calibrations) (README.md,
"Machine speed").  Unscaled wall-clock percentiles are printed above the
result line.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  setup_s        median over seven fresh interpreters, spawned between
                 rounds, of the time from spawning the process to the
                 first call that could be timed (start-up,
                 `import laxkit.cli`, writing the warm-up inputs and
                 running one warm-up call per kind)
  calls_per_s    successful calls per second spent inside calls
  peak_rss_mb    peak resident memory of the benchmark process
  <kind>_p50_s, <kind>_p90_s
                 nearest-rank latency percentiles per kind of call; a
                 failed call counts as slower than every successful one
                 (if a percentile lands on one, it reads --seconds)
  dist_converged_frac
                 share of dist calls whose report says converged

--trace 1 runs three fixed rounds three times (--seconds does not apply):
untraced, with the tracer of spans.py installed, and untraced again; it
reports the per-layer metrics of the traced pass (unscaled span seconds)
and the overhead against the mean of the untraced ones.
Spans and counters are written to .perfbench/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
TRACE_ROUNDS = 3
# Seconds that calibration_work() takes on an uncontended core of the
# machine the benchmark was written on (see "Machine speed" in README.md).
CALIBRATION_REF = 3e-4


def calibration_work():
    """A fixed slice of interpreter work like laxkit's: Fractions, dicts, calls."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 40):
        x = Fraction(i, i + 7) * Fraction(3, 5)
        seen[i] = x
        total = max(total, x + seen.get(i - 1, total) / 2)
    return total


def calibrate() -> float:
    """Seconds for calibration_work(), the faster of two tries."""
    best = math.inf
    for _ in range(2):
        started = time.perf_counter()
        calibration_work()
        best = min(best, time.perf_counter() - started)
    return best


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "laxkit", "cli.py")):
        raise SystemExit("error: no laxkit sources under src/; run from a laxkit checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import laxkit.cli

    return laxkit.cli


@contextlib.contextmanager
def workdir():
    path = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def invoke(cli, argv) -> tuple:
    """Run one CLI call; returns (exit code or None if it raised, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed call, not a benchmark error
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue().strip()


class Record:
    """Outcome of the calls issued so far, per kind."""

    def __init__(self):
        self.latency = {kind: [] for kind in workloads.KINDS}
        self.wall = {kind: [] for kind in workloads.KINDS}
        self.converged = []
        self.busy = 0.0  # scaled seconds inside calls
        self.wall_busy = 0.0  # unscaled seconds inside calls
        self.failures = []

    def add(self, call, code, stdout, error, seconds, wall) -> None:
        self.busy += seconds
        self.wall_busy += wall
        self.wall[call.kind].append(wall)
        reason = error if code is None else reference.check(call.kind, call.spec, code, stdout)
        if reason:
            self.failures.append(f"{call.kind}/{call.size} {' '.join(call.argv)}: {reason}")
        self.latency[call.kind].append(math.inf if reason else seconds)
        if call.kind == "dist":
            self.converged.append(not reason and json.loads(stdout)["converged"])

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latency.values())


def run_calls(cli, calls, argvs, record, deadline=math.inf) -> int:
    """Issue calls back to back, then check them; returns how many ran.

    Each call is bracketed by calibrations, and its latency is its wall
    time scaled to the reference speed: wall * CALIBRATION_REF / (mean of
    the two calibrations).
    """
    gc.collect()
    done = []
    before = calibrate()
    for call, argv in zip(calls, argvs):
        if time.perf_counter() >= deadline:
            break
        started = time.perf_counter()
        code, stdout, error = invoke(cli, argv)
        wall = time.perf_counter() - started
        after = calibrate()
        scaled = wall * CALIBRATION_REF * 2 / (before + after)
        done.append((call, code, stdout, error, scaled, wall))
        before = after
    for outcome in done:
        record.add(*outcome)
    return len(done)


def warm_up(cli, name, seed, path) -> None:
    calls = workloads.warmup_calls(name, seed)
    for call in calls:
        invoke(cli, call.write(path))


def percentile(values, q) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_probe(args) -> int:
    """Child mode: set up as a timed run would, then report when ready."""
    cli = load_cli()
    with workdir() as path:
        warm_up(cli, args.workload, args.seed, path)
        print(time.monotonic(), flush=True)
    return 0


def measure_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to time
    calls.  time.monotonic() is one system-wide clock on Linux."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    started = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("error: set-up probe did not finish in 120 s")
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {err.strip()}")
    return float(out.split()[0]) - started


def scaled_setup(args) -> float:
    """measure_setup(), scaled to the reference speed like a call."""
    before = calibrate()
    seconds = measure_setup(args)
    return seconds * CALIBRATION_REF * 2 / (before + calibrate())


def timed_run(args) -> dict:
    cli = load_cli()
    measure_setup(args)  # not counted: fills the bytecode cache as a first run would
    setup = []
    record = Record()
    with workdir() as path:
        warm_up(cli, args.workload, args.seed, path)
        deadline = time.perf_counter() + args.seconds
        number = 0
        while time.perf_counter() < deadline:
            calls = workloads.round_calls(args.workload, args.seed, number)
            argvs = [call.write(path) for call in calls]
            run_calls(cli, calls, argvs, record, deadline)
            for name in os.listdir(path):
                os.remove(os.path.join(path, name))
            number += 1
            # Set-up probes are spread over the run, which samples the
            # machine's speed at several moments; the window is extended
            # by the time they take.
            if len(setup) < SETUP_SAMPLES:
                paused = time.perf_counter()
                setup.append(scaled_setup(args))
                deadline += time.perf_counter() - paused
    while len(setup) < SETUP_SAMPLES:
        setup.append(scaled_setup(args))
    ok = sum(not math.isinf(x) for v in record.latency.values() for x in v)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "calls_per_s": (ok / record.busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "dist_converged_frac": (sum(record.converged) / max(1, len(record.converged)), "ratio"),
    }
    for kind in workloads.KINDS:
        for q in (50, 90):
            value = percentile(record.latency[kind], q / 100)
            metrics[f"{kind}_p{q}_s"] = (args.seconds if math.isinf(value) else value, "s")
    for kind in workloads.KINDS:
        wall = record.wall[kind]
        print(f"{kind}: {len(wall)} calls, unscaled wall time p50 "
              f"{percentile(wall, 0.5):.6f} s, p90 {percentile(wall, 0.9):.6f} s")
    return finish(record, metrics)


def trace_run(name: str, seed: int, rounds: int = TRACE_ROUNDS) -> tuple:
    """Untraced, traced and untraced passes over the same fixed calls.

    Returns (record, metrics, tracer); the metrics are the per-layer ones.
    """
    from spans import Tracer

    cli = load_cli()
    calls = [c for n in range(rounds) for c in workloads.round_calls(name, seed, n)]
    record = Record()
    tracer = Tracer()
    with workdir() as path:
        warm_up(cli, name, seed, path)
        argvs = [call.write(path) for call in calls]
        # Untraced passes before and after the traced one, so that the
        # overhead is not skewed by which pass comes first.
        run_calls(cli, calls, argvs, record)
        before, wall_before = record.busy, record.wall_busy
        tracer.install()
        try:
            run_calls(cli, calls, argvs, record)
        finally:
            tracer.uninstall()
        traced, traced_wall = record.busy - before, record.wall_busy - wall_before
        run_calls(cli, calls, argvs, record)
        plain = (record.busy - traced) / 2
    busy, own = tracer.layer_times()
    counts = tracer.counts
    seconds = {
        "cli.self_s": own["cli"],
        "jsonio.decode_s": busy["jsonio.decode"],
        "jsonio.encode_s": busy["jsonio.encode"],
        "systems.validate_s": busy["systems.validate"],
        "distance.solve_s": busy["distance.solve"],
        "distance.solve_self_s": own["distance.solve"],
        "distance.cert_s": busy["distance.cert"],
        "transport.busy_s": busy["transport.solve"],
        "liftings.self_s": own["liftings.lift"],
        "liftings.grid_s": busy["liftings.grid"],
        "axioms.busy_s": busy["axioms.check"],
        "axioms.self_s": own["axioms.check"],
        "core.compose_s": busy["core.compose"],
        "logic.synth_s": busy["logic.synth"],
        "logic.semantics_s": busy["logic.semantics"],
    }
    metrics = {key: (value, "s") for key, value in seconds.items()}
    metrics["jsonio.bytes_out"] = (counts["jsonio.bytes_out"], "bytes")
    metrics["distance.den_bits_max"] = (counts["distance.den_bits_max"], "bits")
    for key in ("distance.iterations", "distance.cert_pairs", "transport.solves",
                "transport.cells", "liftings.lift_calls", "liftings.grid_calls",
                "liftings.grid_tables", "axioms.trials", "axioms.counterexamples",
                "core.rel_builds", "core.compose_calls", "core.companion_calls",
                "logic.semantics_calls"):
        metrics[key] = (counts[key], "count")
    metrics["trace.overhead_frac"] = (traced / plain - 1, "ratio")
    metrics["trace.coverage_frac"] = (tracer.covered() / traced_wall, "ratio")
    if busy["distance.solve"]:
        share = tracer.nested("distance.solve", "transport.solve") / busy["distance.solve"]
        print(f"transport spans cover {share:.3f} of distance.solve time")
    return record, metrics, tracer


def finish(record, metrics) -> dict:
    for line in record.failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    return {
        "correct": not record.failures,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.LADDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.trace:
        record, metrics, tracer = trace_run(args.workload, args.seed)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        result = finish(record, metrics)
    else:
        result = timed_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

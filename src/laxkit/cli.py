"""Command-line front end.

Subcommands: dist, check-cert, axioms, logic (eval | distance), synth,
catalog.  Reports come as JSON (default) or an aligned text table, both
carrying the tool version, the effective seed, and sha256 digests of all
input files; identical inputs and seed produce byte-identical output.
Exit codes: 0 on success or a holding verdict, 1 when a verdict fails
(certificate violation or undecided rows, law counterexample), 2 on
usage, file-format or file-access errors, 3 on an internal error (a bug;
the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from math import gcd

from . import __version__
from .axioms import AxiomConfig, check_axioms
from .core import LaxkitError, StructureError, format_ratio, format_unit, parse_unit
from .distance import behavioural_distance, check_certificate
from .formparse import parse_formula
from .functors import FUNCTOR_KINDS
from .jsonio import (
    JsonFormatError,
    check_nesting,
    decode_certificate,
    decode_formula,
    decode_functor,
    decode_lifting,
    decode_system,
    dump_json,
    encode_formula,
    encode_rel,
    load_json,
    load_text,
    write_text,
)
from .liftings import LIFTING_KINDS, require_match
from .logic import evaluate, semantics
from .moss import MAX_TREE_NODES, logical_distance, synthesize, tree_size
from .systems import disjoint_union, validate

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _envelope(args, digests: dict, body: dict) -> dict:
    """The report: tool, version, seed and the sha256 digest of every input
    file, which load_json and load_text record as they read each file once."""
    report = {
        "tool": "laxkit",
        "version": __version__,
        "seed": args.seed,
        "inputs": digests,
    }
    report.update(body)
    return report


def _emit(args, report: dict) -> None:
    text = _render_table(report) if args.format == "table" else dump_json(report)
    if args.output:
        write_text(text, args.output)
    else:
        sys.stdout.write(text)


def _matrix_lines(matrix: dict, indent="  "):
    source, target, values = matrix["source"], matrix["target"], matrix["values"]
    width = max(
        [len(str(v)) for row in values for v in row] + [len(str(b)) for b in target] + [1]
    )
    label = max([len(str(a)) for a in source] + [1])
    yield indent + " " * label + "  " + "  ".join(f"{b:>{width}}" for b in target)
    for a, row in zip(source, values):
        yield indent + f"{a:>{label}}  " + "  ".join(f"{v:>{width}}" for v in row)


def _slack_lines(rows, indent="  "):
    for row in rows:
        pair = " -> ".join(row["pair"])
        yield (f"{indent}{pair}: claimed {row['claimed']}, "
               f"lifted {row['lifted']}, slack {row['slack']}")


def _render_table(report: dict) -> str:
    lines = [f"laxkit {report.get('version', '')}  seed={report.get('seed', '')}"]
    for path, digest in sorted(report.get("inputs", {}).items()):
        lines.append(f"  input {path}  sha256:{digest[:12]}")
    special = {"tool", "version", "seed", "inputs", "matrix", "trace",
               "forward", "backward", "checks", "values", "modalities", "formula"}
    for key in sorted(k for k in report if k not in special):
        lines.append(f"{key}: {report[key]}")
    if "checks" in report:
        lines.append("checks:")
        for check in report["checks"]:
            verdict = "pass" if check["passed"] else "FAIL"
            claim = "" if check["claimed"] else "  [not claimed]"
            lines.append(f"  {check['name']:<11} {verdict}{claim}")
            if check["counterexample"]:
                cex = check["counterexample"]
                lines.append(f"    trial {cex['trial']}: {cex['description']}")
                for name, value in cex["data"].items():
                    lines.append(f"      {name} = {value}")
    for direction in ("forward", "backward"):
        if direction in report:
            lines.append(f"{direction}:")
            lines.extend(_slack_lines(report[direction]))
    if "values" in report:
        lines.append("values:")
        for state, value in report["values"].items():
            lines.append(f"  {state}: {value}")
    if "modalities" in report:
        lines.append("modalities:")
        for lam in report["modalities"]:
            dual = f", dual {lam['dual']}" if lam["dual"] else ""
            flags = [name for name in ("monotone", "nonexpansive") if lam[name]]
            lines.append(f"  {lam['name']}/{lam['arity']} ({', '.join(flags)}{dual})")
    if "formula" in report:
        lines.append("formula: " + json.dumps(report["formula"], sort_keys=True))
    if "matrix" in report:
        lines.append("matrix:")
        lines.extend(_matrix_lines(report["matrix"]))
    if "trace" in report:
        for n, step in enumerate(report["trace"]):
            lines.append(f"step {n}:")
            lines.extend(_matrix_lines(step))
    return "\n".join(lines) + "\n"


def _load_system(digests: dict, path: str):
    """Decode and validate a system file; each validation warning, such as
    a merged support entry, goes to stderr as one line naming its JSON
    path, and any error is a format error at the file's path."""
    system, notes = decode_system(load_json(path, digests), path)
    report = validate(system, notes)
    for _, _, message in report.warnings():
        print(f"warning: {message}", file=sys.stderr)
    if not report.ok:
        lines = "; ".join(f"{p}: {m}" for _, p, m in report.errors())
        raise JsonFormatError(f"system does not validate: {lines}", path)
    return system


def _load_two_systems(digests: dict, paths) -> tuple:
    if len(paths) not in (1, 2):
        raise JsonFormatError("give one or two --system files", "--system")
    # a file given twice, under any spelling, loads once; each spelling keeps its digest
    first, last = paths[0], paths[-1]
    system = _load_system(digests, first)
    if os.path.realpath(first) != os.path.realpath(last):
        return system, _load_system(digests, last)
    digests[last] = digests[first]
    return system, system


def _load_lifting(digests: dict, path: str, functor):
    lifting = decode_lifting(load_json(path, digests), path)
    _check_fit(lifting, functor, path)
    return lifting


def _check_fit(lifting, functor, path: str) -> None:
    """require_match, its refusal reported at the lifting file's path."""
    try:
        require_match(lifting, functor)
    except StructureError as exc:
        raise JsonFormatError(str(exc), path) from None


def cmd_dist(args) -> int:
    digests = {}
    sys_a, sys_b = _load_two_systems(digests, args.system)
    lifting = _load_lifting(digests, args.lifting, sys_a.functor)
    result = behavioural_distance(
        lifting, sys_a, sys_b, tol=args.tol, max_iter=args.max_iter,
        keep_trace=args.trace,
    )
    body = {
        "matrix": encode_rel(result.matrix),
        "iterations": result.iterations,
        "residual": format_unit(result.residual),
        "converged": result.converged,
    }
    if result.gap_bound is not None:
        body["gap-bound"] = format_unit(result.gap_bound)
    if result.slack:
        # an approximate lifting: the matrix bounds the exact lifting's fixpoint from below
        body["approximation-slack"] = format_unit(result.slack)
    if args.trace:
        body["trace"] = [encode_rel(step) for step in result.trace]
    _emit(args, _envelope(args, digests, body))
    return EXIT_OK


def certificate_rows(verdict) -> tuple:
    """The forward and backward (or None) report rows of a verdict.  Each
    row's claimed, lifted and slack (claimed - lifted, as str(Fraction)
    renders it) are formatted from numerators and denominators, once per
    distinct (claimed, lifted) of the call, so the rows of a transposed
    bisimulation carry the very strings of their forward twins."""
    cells = {}

    def rows(direction):
        out = []
        for row in direction:
            claimed, lifted = row.claimed, row.lifted
            key = (claimed.numerator, claimed.denominator, lifted.numerator, lifted.denominator)
            strings = cells.get(key)
            if strings is None:
                cn, cd, ln, ld = key
                sn, sd = cn * ld - ln * cd, cd * ld
                g = gcd(sn, sd)
                strings = cells[key] = (format_ratio(cn, cd), format_ratio(ln, ld),
                                        format_ratio(sn // g, sd // g))
            out.append({"pair": list(row.pair), "claimed": strings[0],
                        "lifted": strings[1], "slack": strings[2]})
        return out

    return rows(verdict.forward), None if verdict.backward is None else rows(verdict.backward)


def cmd_check_cert(args) -> int:
    digests = {}
    sys_a, sys_b = _load_two_systems(digests, args.system)
    lifting = _load_lifting(digests, args.lifting, sys_a.functor)
    cert = decode_certificate(load_json(args.cert, digests), args.cert)
    verdict = check_certificate(lifting, sys_a, sys_b, cert)
    forward, backward = certificate_rows(verdict)
    outcome = "ok" if verdict.ok else "violation"
    if verdict.undecided and all(r.claimed >= r.lifted
                                 for r in verdict.forward + (verdict.backward or ())):
        outcome = "undecided"
    body = {
        "verdict": outcome,
        "kind": cert.kind,
        "forward": forward,
    }
    if backward is not None:
        body["backward"] = backward
    if verdict.slack:
        # an approximate lifting: rows within its slack above the lifted value are undecided
        body["approximation-slack"] = format_unit(verdict.slack)
        body["undecided"] = verdict.undecided
    _emit(args, _envelope(args, digests, body))
    return EXIT_OK if verdict.ok else EXIT_VIOLATION


def cmd_axioms(args) -> int:
    axiom_cfg = AxiomConfig(trials=args.trials, max_size=args.max_size, seed=args.seed)
    digests = {}
    if args.functor:
        functor = decode_functor(load_json(args.functor, digests), args.functor)
    lifting = decode_lifting(load_json(args.lifting, digests), args.lifting)
    if not args.functor:
        try:
            functor = lifting.default_functor()
        except StructureError as exc:
            raise StructureError(f"{exc}; pass --functor") from None
    _check_fit(lifting, functor, args.lifting)
    report = check_axioms(lifting, functor, axiom_cfg)
    body = {
        "trials": args.trials,
        "ok": report.ok,
        "consistent": report.consistent,
        "checks": [
            {
                "name": c.name,
                "claimed": c.claimed,
                "trials": c.trials,
                "passed": c.passed,
                "counterexample": None if c.passed else {
                    "trial": c.counterexample.trial,
                    "description": c.counterexample.description,
                    "data": c.counterexample.data,
                },
            }
            for c in report.checks
        ],
    }
    _emit(args, _envelope(args, digests, body))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _load_formula(digests: dict, path: str, functor):
    if path.endswith(".json"):
        return decode_formula(load_json(path, digests), path, functor)
    return parse_formula(load_text(path, digests))


def cmd_logic_eval(args) -> int:
    digests = {}
    system = _load_system(digests, args.system)
    lifting = None
    if args.lifting:
        lifting = _load_lifting(digests, args.lifting, system.functor)
    formula = _load_formula(digests, args.formula, system.functor)
    value = evaluate(formula, system, args.state, lifting)
    body = {
        "state": args.state,
        "rank": formula.rank(),
        "value": format_unit(value),
    }
    _emit(args, _envelope(args, digests, body))
    return EXIT_OK


def cmd_logic_distance(args) -> int:
    digests = {}
    sys_a, sys_b = _load_two_systems(digests, args.system)
    lifting = _load_lifting(digests, args.lifting, sys_a.functor)
    matrix = logical_distance(sys_a, sys_b, lifting, args.rank)
    _emit(args, _envelope(args, digests, {"rank": args.rank, "matrix": encode_rel(matrix)}))
    return EXIT_OK


def cmd_synth(args) -> int:
    digests = {}
    if len(args.system) == 1:
        system = _load_system(digests, args.system[0])
    else:
        sys_a, sys_b = _load_two_systems(digests, args.system)
        system, _, inj2 = disjoint_union(sys_a, sys_b)
        if args.target not in inj2:
            raise StructureError(f"state {args.target!r} is not in the second system")
        args.target = inj2[args.target]
    lifting = _load_lifting(digests, args.lifting, system.functor)
    formula = synthesize(system, args.target, args.rank)
    # refuse, before encoding, a report too large to write
    size = tree_size(formula)
    if size > MAX_TREE_NODES:
        raise StructureError(
            f"the rank-{args.rank} formula has {size} nodes written out as a tree, "
            f"more than the {MAX_TREE_NODES} a report may hold; lower the rank")
    encoded = encode_formula(formula, system.functor)
    if args.out:
        # refuse, before anything is written, a file laxkit could not read
        check_nesting(encoded, args.out)
    values = semantics(formula, system, lifting)
    table = {s: format_unit(values[s]) for s in system.carrier.elements}
    body = {
        "target": args.target,
        "rank": args.rank,
        "formula": encoded,
        "values": table,
    }
    if args.out:
        dump_json(encoded, args.out)
        body["out"] = args.out
    _emit(args, _envelope(args, digests, body))
    return EXIT_OK


def cmd_catalog(args) -> int:
    digests = {}
    body = {
        "functor-kinds": list(FUNCTOR_KINDS),
        "lifting-kinds": list(LIFTING_KINDS),
    }
    functor = None
    if args.functor:
        functor = decode_functor(load_json(args.functor, digests), args.functor)
    elif args.system:
        functor = _load_system(digests, args.system).functor
    if functor is not None:
        body["modalities"] = [
            {
                "name": lam.name,
                "arity": lam.arity,
                "monotone": lam.monotone,
                "nonexpansive": lam.nonexpansive,
                "dual": lam.dual_name,
            }
            for _, lam in sorted(functor.standard_modalities().items())
        ]
    _emit(args, _envelope(args, digests, body))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one.  A subcommand's `run` default names its cmd_* function, which
    `main` looks up when it dispatches."""
    parser = argparse.ArgumentParser(
        prog="laxkit",
        description="Behavioural distances on finite coalgebras via relation liftings",
    )
    parser.add_argument("--version", action="version", version=f"laxkit {__version__}")

    def common(sub):
        sub.add_argument("--seed", type=int, default=0,
                         help="RNG seed (env LAXKIT_SEED overrides; default 0)")
        sub.add_argument("--output", help="write the report here instead of stdout")
        sub.add_argument("--format", choices=("json", "table"), default="json",
                         help="report format (default json)")

    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "dist", help="behavioural distance matrix by fixpoint iteration",
        description="Behavioural distance matrix by fixpoint iteration from zero.  Under an "
        "approximate lifting (kantorovich-grid) the report adds approximation-slack, the "
        "grid's certified slack s, and the matrix then bounds the exact lifting's fixpoint "
        "from below; a grid whose modalities are not flagged nonexpansive has no such "
        "bound and is refused (exit 2).")
    p.add_argument("--system", action="append", required=True)
    p.add_argument("--lifting", required=True)
    p.add_argument("--tol", default="0", help="residual tolerance as p/q (0 = exact)")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--trace", action="store_true", help="include every iterate")
    common(p)
    p.set_defaults(run="cmd_dist")

    p = subs.add_parser("check-cert", help="verify a (bi)simulation certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--system", action="append", required=True)
    p.add_argument("--lifting", required=True)
    common(p)
    p.set_defaults(run="cmd_check_cert")

    p = subs.add_parser("axioms", help="randomized law suite for a lifting")
    p.add_argument("--lifting", required=True)
    p.add_argument("--functor", help="functor file; derived from the lifting shape if omitted")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--max-size", type=int, default=5)
    common(p)
    p.set_defaults(run="cmd_axioms")

    logic = subs.add_parser("logic", help="formula evaluation and logical distance")
    logic_subs = logic.add_subparsers(dest="logic_command", required=True)

    p = logic_subs.add_parser("eval", help="evaluate a formula at a state")
    p.add_argument("--formula", required=True, help=".txt (text syntax) or .json")
    p.add_argument("--system", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--lifting", help="needed for structural-modality formulas")
    common(p)
    p.set_defaults(run="cmd_logic_eval")

    p = logic_subs.add_parser("distance", help="rank-n logical distance matrix")
    p.add_argument("--system", action="append", required=True)
    p.add_argument("--lifting", required=True)
    p.add_argument("--rank", type=int, required=True)
    common(p)
    p.set_defaults(run="cmd_logic_distance")

    p = subs.add_parser("synth", help="synthesize a distinguishing formula")
    p.add_argument("--system", action="append", required=True)
    p.add_argument("--lifting", required=True)
    p.add_argument("--target", required=True,
                   help="target state (resolved in the second system when two are given)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out", help="write the formula JSON here")
    common(p)
    p.set_defaults(run="cmd_synth")

    p = subs.add_parser("catalog", help="list supported grammar nodes and modalities")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--functor")
    source.add_argument("--system")
    common(p)
    p.set_defaults(run="cmd_catalog")

    return parser


def _seed(flag: int) -> int:
    """The effective seed: LAXKIT_SEED, when set, overrides --seed."""
    env_seed = os.environ.get("LAXKIT_SEED")
    if env_seed is None:
        return flag
    try:
        return int(env_seed)
    except ValueError:
        raise LaxkitError(f"LAXKIT_SEED must be an integer, got {env_seed!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.seed = _seed(args.seed)
        if "tol" in args:
            args.tol = parse_unit(args.tol)
        return globals()[args.run](args)
    except LaxkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A bug, not a verdict: exit 1 would read as "violation".
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

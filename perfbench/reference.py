"""Independent reference for checking laxkit's answers.

Standard library only; nothing here imports laxkit.  It reads the same
JSON specs the generators write and recomputes answers its own way: the
lifting is compiled into closures over integer-indexed successor lists,
each step scales the relation to integers over a common denominator, and
Kantorovich/Wasserstein nodes use successive shortest paths on integer
masses and costs instead of laxkit's rational simplex.

Supported lifting kinds: const, pair-sum, maybe, and hausdorff
(sym/left/right), kantorovich and wasserstein directly over id.  Each
`check_*` function returns None when an answer is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact transport by successive shortest paths


def transport(mu, nu, cost) -> Fraction:
    """Minimum of sum x_ij cost_ij over couplings x of mu and nu."""
    if sum(mu) != sum(nu):
        raise ValueError("transport needs equal masses")
    mass_den = math.lcm(*(p.denominator for p in list(mu) + list(nu)))
    cost_den = math.lcm(*(c.denominator for row in cost for c in row))
    total = _transport([p.numerator * (mass_den // p.denominator) for p in mu],
                       [q.numerator * (mass_den // q.denominator) for q in nu],
                       [[c.numerator * (cost_den // c.denominator) for c in row]
                        for row in cost])
    return Fraction(total, mass_den * cost_den)


def _transport(rem_mu: list, rem_nu: list, cost: list) -> int:
    """The same on integer masses of equal totals and integer costs."""
    m, n = len(rem_mu), len(rem_nu)
    flow = [[0] * n for _ in range(m)]
    inf = math.inf
    while any(rem_mu):
        # Bellman-Ford from every row with supply left; node m + j is column j.
        dist = [0 if r else inf for r in rem_mu] + [inf] * n
        prev = [-1] * (m + n)
        changed = True
        while changed:
            changed = False
            for i in range(m):
                di, row = dist[i], cost[i]
                if di == inf:
                    continue
                for j in range(n):
                    d = di + row[j]
                    if d < dist[m + j]:
                        dist[m + j], prev[m + j], changed = d, i, True
            for j in range(n):
                dj = dist[m + j]
                if dj == inf:
                    continue
                for i in range(m):
                    if flow[i][j]:
                        d = dj - cost[i][j]
                        if d < dist[i]:
                            dist[i], prev[i], changed = d, m + j, True
        end = min((j for j in range(n) if rem_nu[j]), key=lambda j: dist[m + j])
        forward, backward = [], []
        node = m + end
        while True:
            i = prev[node]
            forward.append((i, node - m))
            if prev[i] < 0:
                start = i
                break
            node = prev[i]
            backward.append((i, node - m))
        delta = min([rem_mu[start], rem_nu[end]] + [flow[i][j] for i, j in backward])
        for i, j in forward:
            flow[i][j] += delta
        for i, j in backward:
            flow[i][j] -= delta
        rem_mu[start] -= delta
        rem_nu[end] -= delta
    return sum(flow[i][j] * cost[i][j] for i in range(m) for j in range(n))


# ---------------------------------------------------------------------------
# Liftings, compiled against a functor


def contraction_factor(lifting: dict) -> Fraction:
    kind = lifting["kind"]
    if kind == "id":
        return ONE
    if kind == "const":
        return ZERO
    if kind in ("hausdorff", "kantorovich", "wasserstein", "maybe"):
        return contraction_factor(lifting["sub"])
    if kind == "pair-sum":
        w_left, w_right = (Fraction(w) for w in lifting["weights"])
        return (w_left * contraction_factor(lifting["left"])
                + w_right * contraction_factor(lifting["right"]))
    raise ValueError(f"reference does not support lifting kind {kind!r}")


def compile_lifting(lifting: dict, functor: dict):
    """A function (rel, t1, t2) -> Fraction.

    rel is (rows, den): the relation scaled to integers over one common
    denominator.  Set and distribution nodes must sit directly on id.
    """
    kind = lifting["kind"]
    if kind == "const":
        labels = functor["labels"]
        metric = {a: {b: Fraction(v) for b, v in zip(labels, row)}
                  for a, row in zip(labels, functor["metric"])}
        return lambda rel, x, y: metric[x][y]
    if kind == "pair-sum":
        w_left, w_right = (Fraction(w) for w in lifting["weights"])
        left = compile_lifting(lifting["left"], functor["left"])
        right = compile_lifting(lifting["right"], functor["right"])
        return lambda rel, x, y: w_left * left(rel, x[0], y[0]) + w_right * right(rel, x[1], y[1])
    if kind == "maybe":
        sub = compile_lifting(lifting["sub"], functor["sub"])

        def maybe(rel, x, y):
            if x is None or y is None:
                return ZERO if x is None and y is None else ONE
            return sub(rel, x, y)
        return maybe
    if kind in ("hausdorff", "kantorovich", "wasserstein") and lifting["sub"]["kind"] != "id":
        raise ValueError(f"reference supports {kind} only directly over id")
    if kind == "hausdorff":
        variant = lifting["variant"]

        def hausdorff(rel, xs, ys):
            rows, den = rel
            out = 0
            if variant in ("sym", "left"):
                out = max([min([rows[a][b] for b in ys], default=den) for a in xs], default=0)
            if variant in ("sym", "right"):
                out = max([out] + [min([rows[a][b] for a in xs], default=den) for b in ys])
            return Fraction(out, den)
        return hausdorff
    if kind in ("kantorovich", "wasserstein"):
        def kantorovich(rel, xs, ys):
            rows, den = rel
            (a_ids, a_mass, a_den), (b_ids, b_mass, b_den) = xs, ys
            mass_den = math.lcm(a_den, b_den)
            total = _transport([q * (mass_den // a_den) for q in a_mass],
                               [q * (mass_den // b_den) for q in b_mass],
                               [[rows[a][b] for b in b_ids] for a in a_ids])
            return Fraction(total, mass_den * den)
        return kantorovich
    raise ValueError(f"reference does not support lifting kind {kind!r}")


def parse_element(functor: dict, raw, index: dict):
    """Element JSON -> nested tuples; state ids become carrier indices."""
    kind = functor["kind"]
    if kind == "id":
        return index[raw]
    if kind == "const":
        return raw
    if kind == "pfin":
        return tuple(parse_element(functor["sub"], r, index) for r in raw)
    if kind == "dfin":  # (members, integer masses, their common denominator)
        masses = [Fraction(p) for _, p in raw]
        den = math.lcm(*(p.denominator for p in masses))
        return (tuple(parse_element(functor["sub"], r, index) for r, _ in raw),
                tuple(p.numerator * (den // p.denominator) for p in masses), den)
    if kind == "pair":
        return (parse_element(functor["left"], raw[0], index),
                parse_element(functor["right"], raw[1], index))
    if kind == "maybe":
        return None if raw is None else parse_element(functor["sub"], raw, index)
    raise ValueError(f"reference does not support functor kind {kind!r}")


def _steps(system: dict) -> list:
    index = {s: i for i, s in enumerate(system["states"])}
    return [parse_element(system["functor"], system["alpha"][s], index)
            for s in system["states"]]


class Problem:
    """One lifting between two systems: its Kleene step and chain."""

    def __init__(self, lifting: dict, sys_a: dict, sys_b: dict):
        self.lift = compile_lifting(lifting, sys_a["functor"])
        self.factor = contraction_factor(lifting)
        self.left = _steps(sys_a)
        self.right = _steps(sys_b)

    def zero(self) -> list:
        return [[ZERO] * len(self.right) for _ in self.left]

    def step(self, rel: list) -> list:
        den = math.lcm(*(x.denominator for row in rel for x in row))
        scaled = ([[x.numerator * (den // x.denominator) for x in row] for row in rel], den)
        lift = self.lift
        return [[lift(scaled, x, y) for y in self.right] for x in self.left]

    def entry(self, rel: list, i: int, j: int) -> Fraction:
        """One entry of step(rel)."""
        den = math.lcm(*(x.denominator for row in rel for x in row))
        scaled = ([[x.numerator * (den // x.denominator) for x in row] for row in rel], den)
        return self.lift(scaled, self.left[i], self.right[j])

    def chain(self, steps: int) -> list:
        """Iterates d_0 = 0, d_1, ..., d_steps."""
        out = [self.zero()]
        for _ in range(steps):
            out.append(self.step(out[-1]))
        return out


def residual(a: list, b: list) -> Fraction:
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def converse_rows(rows: list) -> list:
    return [list(col) for col in zip(*rows)]


def slack_rows(problem: Problem, rows: list, left_ids: list, right_ids: list) -> list:
    """(pair, claimed, lifted) for every non-vacuous entry, in report order."""
    lifted = problem.step(rows)
    return [((a, b), rows[i][j], lifted[i][j])
            for i, a in enumerate(left_ids) for j, b in enumerate(right_ids)
            if rows[i][j] != ONE]


# ---------------------------------------------------------------------------
# Checks of CLI answers


def _matrix(report_matrix: dict, sys_a: dict, sys_b: dict):
    if report_matrix["source"] != sys_a["states"] or report_matrix["target"] != sys_b["states"]:
        return None
    return [[Fraction(v) for v in row] for row in report_matrix["values"]]


def check_dist(spec: dict, code: int, report: dict):
    if code != 0:
        return f"dist exited {code}"
    problem = Problem(spec["lifting"], spec["sys_a"], spec["sys_b"])
    n = report["iterations"]
    tol, max_iter = spec["tol"], spec["max_iter"]
    if not 1 <= n <= max_iter:
        return f"iteration count {n} outside 1..{max_iter}"
    iterates = problem.chain(n)
    got = _matrix(report["matrix"], spec["sys_a"], spec["sys_b"])
    if got != iterates[n]:
        return f"matrix differs from the reference iterate {n}"
    residuals = [residual(iterates[k], iterates[k - 1]) for k in range(1, n + 1)]
    stops = [r == 0 or (tol > 0 and r <= tol) for r in residuals]
    if any(stops[:-1]):
        return "the chain met its stopping rule before the reported iteration"
    if Fraction(report["residual"]) != residuals[-1]:
        return "residual differs from the reference"
    if report["converged"] != stops[-1] or (not stops[-1] and n != max_iter):
        return "convergence flag disagrees with the reference chain"
    if residuals[-1] == 0 and problem.step(got) != got:
        return "claimed exact fixpoint moves under one reference step"
    if problem.factor < 1:
        gap = residuals[-1] * problem.factor / (1 - problem.factor)
        if Fraction(report.get("gap-bound", "-1")) != gap:
            return "gap bound differs from residual * c / (1 - c)"
    return None


def check_cert(spec: dict, code: int, report: dict):
    sys_a, sys_b = spec["sys_a"], spec["sys_b"]
    rel = spec["cert"]["relation"]
    rows = [[Fraction(v) for v in row] for row in rel["values"]]
    directions = {"forward": slack_rows(Problem(spec["lifting"], sys_a, sys_b), rows,
                                        sys_a["states"], sys_b["states"])}
    if spec["cert"]["kind"] == "bisimulation":
        directions["backward"] = slack_rows(
            Problem(spec["lifting"], sys_b, sys_a), converse_rows(rows),
            sys_b["states"], sys_a["states"])
    elif "backward" in report:
        return "simulation certificate reported a backward direction"
    ok = all(claimed >= lifted for rows_ in directions.values() for _, claimed, lifted in rows_)
    if ok != spec["planted_ok"]:
        return "reference verdict differs from the planted one"
    if report.get("verdict") != ("ok" if ok else "violation"):
        return f"verdict {report.get('verdict')!r}, reference says ok={ok}"
    if code != (0 if ok else 1):
        return f"exit code {code} for verdict ok={ok}"
    for name, expected in directions.items():
        got = [(tuple(r["pair"]), Fraction(r["claimed"]), Fraction(r["lifted"]),
                Fraction(r["slack"])) for r in report.get(name, [])]
        want = [(pair, c, l, c - l) for pair, c, l in expected]
        if got != want:
            return f"{name} slack rows differ from one reference step"
    return None


def check_logic(spec: dict, code: int, report: dict):
    if code != 0:
        return f"logic distance exited {code}"
    problem = Problem(spec["lifting"], spec["sys_a"], spec["sys_b"])
    if report.get("rank") != spec["rank"]:
        return "rank differs"
    got = _matrix(report["matrix"], spec["sys_a"], spec["sys_b"])
    if got != problem.chain(spec["rank"])[-1]:
        return f"logical distance differs from the rank-{spec['rank']} iterate"
    return None


def check_synth(spec: dict, code: int, report: dict):
    if code != 0:
        return f"synth exited {code}"
    system, target = spec["union"], spec["target"]
    values = report.get("values", {})
    if sorted(values) != sorted(system["states"]):
        return "value table does not cover the union's states"
    if Fraction(values[target]) != 0:
        return "formula is not 0 at its target"
    problem = Problem(spec["lifting"], system, system)
    column = system["states"].index(target)
    distances = problem.chain(spec["rank"])[-1]
    for i, state in enumerate(system["states"]):
        if Fraction(values[state]) - Fraction(values[target]) != distances[i][column]:
            return f"value gap at {state} differs from the {spec['rank']}-step distance"
    return None


def check_axioms(spec: dict, code: int, report: dict):
    if report.get("consistent") is not True:
        return "law suite found a counterexample to a claimed law"
    if report.get("trials") != spec["trials"]:
        return "trial count differs from the request"
    if code != (0 if report.get("ok") else 1):
        return f"exit code {code} with ok={report.get('ok')}"
    return None


CHECKS = {
    "dist": check_dist,
    "cert": check_cert,
    "logic": check_logic,
    "synth": check_synth,
    "axioms": check_axioms,
}


def check(kind: str, spec: dict, code: int, stdout: str):
    """None when the CLI's exit code and report are right, else a reason."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit code {code} with no JSON report"
    try:
        return CHECKS[kind](spec, code, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"

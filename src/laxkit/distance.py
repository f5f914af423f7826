"""Behavioural-distance engine: fixpoint iteration and certificates.

The distance chain starts at the zero matrix and repeatedly applies the
lifting across both transition maps.  With exact rationals, reaching the
fixpoint is decidable (two consecutive matrices coincide); a tolerance is
the fallback for contractive chains that approach but never attain their
limit.  The residual reported is the sup-norm of the last step, which
bounds the remaining gap only in the presence of a contraction factor, so
non-convergence within max_iter is reported honestly rather than rounded
away.

Both behavioural_distance and distance_chain take their iterates from one
routine, _chain.  It keeps the iterate as one row per left state, a dict
keyed by the right states, and lifts the transition elements as they are
across a RelView of the rows; certificate checks lift them across the
certificate's FuzzyRel.view().  The chain re-lifts only what moved, by a
dependency rule: pair (i, j) reads the iterate only at base(alpha(i)) x
base(beta(j)), the states its two successor elements mention, so if none
of those entries changed in the last step, its next value equals its
current one and is copied forward.  The first step lifts every pair;
reverse lists over carrier indices (which rows read state k of the left
system, which columns read state l of the right one) turn each step's
changed entries into the next step's pairs to re-lift, so the iterates
are exactly those of a full recompute.
Every re-lifted value passes the monotonicity check, which keeps it at or
above its old entry.  Its upper bound is the lifting's: each kind's
`lift_ratio` stays within [0, 1] by construction, but for PairSum, which
range-checks its weighted sum on integers, and `lift` builds one reduced
Fraction of it, so the chain runs no second unit check.  The final
matrix and every traced iterate are validated FuzzyRels over the
systems' carriers.  The step compares each
re-lifted value with the old one by one integer cross-product of
numerators and denominators, which tells unchanged, grown and decreased
apart, and keeps the residual as an integer numerator and denominator
until the step ends, so it builds one residual Fraction per step.

Each step's view holds the iterate as integers over one common
denominator, which every lift reads, Hausdorff and transport nodes in
blocks (see RelView and LiftingSpec.lift_block).  RelView.of_rows scales
the rows of every left state once per step, as it makes the view.

Every view carries an explicit dict of transport warm starts, where a
transport node keeps, per pair of distribution elements, the last solve's
TransportResult: its masses, their scale, its optimal basis and that
basis's tree.  The chain shares one dict across its steps: its masses
stay put and only the costs move, so each solve resumes from the previous
step's basis instead of the northwest corner, and a basis that is still
optimal costs one pass over its stored tree (see laxkit.transport);
unique optimal values leave the iterates unchanged.  A certificate check
lifts each pair once in a fresh dict per direction, so its solves stay
cold.

A certificate is a fuzzy relation claimed to simulate one system by
another; checking it means verifying that the lifted relation applied to
the transition structure never exceeds it.  Pairs sitting at 1 are
vacuous and skipped.  A bisimulation certificate r also claims that its
converse r° simulates the other way.  Under an exact lifting that claims
converse, L(r°) = L(r)°, so the backward check is the forward one
transposed: its rows are read off the forward lifts, and each pair is
lifted once.  Every other lifting lifts r° in a second pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .core import Carrier, FuzzyRel, ONE, RelView, StructureError, ZERO, converse, unit_over
from .functors import base
from .liftings import LiftingSpec, lift_value, require_match
from .systems import Coalgebra


@dataclass(frozen=True)
class Certificate:
    relation: FuzzyRel
    kind: str  # 'simulation' | 'bisimulation'

    def __post_init__(self):
        if self.kind not in ("simulation", "bisimulation"):
            raise StructureError(f"unknown certificate kind {self.kind!r}")


@dataclass(frozen=True)
class SlackRow:
    pair: tuple
    claimed: Fraction
    lifted: Fraction


@dataclass(frozen=True)
class CertificateVerdict:
    ok: bool
    forward: tuple  # SlackRow per non-vacuous pair
    backward: tuple | None  # converse direction, for bisimulation certificates
    # the lifting's certified slack s, and the rows it leaves undecided:
    # lifted <= claimed < lifted + s (none when s is 0)
    slack: Fraction = ZERO
    undecided: int = 0


@dataclass(frozen=True)
class DistanceResult:
    matrix: FuzzyRel
    iterations: int
    residual: Fraction
    converged: bool
    trace: tuple | None = None
    # bound on the remaining gap below the limit; only available when the
    # lifting contracts (factor < 1), None otherwise
    gap_bound: Fraction | None = None
    # the lifting's certified slack s: 0 for an exact lifting; under a grid
    # node, whose value is at most s below the lifting it approximates, the
    # iteration's fixpoint bounds the exact lifting's from below
    slack: Fraction = ZERO


def check_setup(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra) -> None:
    """Refuse two systems of different functors, or a lifting that does not
    fit their functor (see require_match), with a StructureError."""
    if sys_a.functor != sys_b.functor:
        raise StructureError("the two systems must share a functor")
    require_match(lifting, sys_a.functor)


def _zero(sys_a: Coalgebra, sys_b: Coalgebra) -> FuzzyRel:
    return FuzzyRel.constant(sys_a.carrier, sys_b.carrier, ZERO)


def _rel(sys_a: Coalgebra, sys_b: Coalgebra, rows: dict) -> FuzzyRel:
    # rows and each row keep their keys in the order they were built in: carrier order
    return FuzzyRel(sys_a.carrier, sys_b.carrier,
                    tuple(tuple(row.values()) for row in rows.values()))


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _chain(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra):
    """Iterates 1, 2, ... of the chain from zero, as (rows, residual) pairs.

    rows maps each state of A to its row, a dict over the states of B; it
    is never changed once yielded, and a row in which nothing moved is
    shared with the previous iterate.  The residual is the step's sup-norm.
    """
    functor, alpha_a, alpha_b = sys_a.functor, sys_a.alpha, sys_b.alpha
    n_a, n_b = len(alpha_a), len(alpha_b)
    # readers_a[k]: the rows whose successor element mentions state k of A;
    # readers_b[l]: bitmask of the columns whose successor mentions l of B
    readers_a = [[] for _ in range(n_a)]
    for i, (_, t1) in enumerate(alpha_a):
        for k in base(t1):
            readers_a[sys_a.carrier.index(k)].append(i)
    readers_b = [0] * n_b
    for j, (_, t2) in enumerate(alpha_b):
        for l in base(t2):
            readers_b[sys_b.carrier.index(l)] |= 1 << j
    rows = {a: dict.fromkeys(sys_b.carrier.elements, ZERO) for a, _ in alpha_a}
    dirty = [(1 << n_b) - 1] * n_a  # bitmask of the columns to re-lift, per row
    starts = {}  # transport warm starts, kept across the steps
    while True:
        view = RelView.of_rows(sys_a.carrier, rows, starts)
        nxt = dict(rows)
        moved = {}  # row -> bitmask of the columns that changed
        top, top_den = 0, 1  # the residual so far, as top / top_den
        for i, mask in enumerate(dirty):
            if not mask:
                continue
            a, t1 = alpha_a[i]
            old, new, changed = rows[a], None, 0
            for j in _bits(mask):
                b, t2 = alpha_b[j]
                value = lift_value(lifting, functor, view, t1, t2)
                # value - old[b] = (up - down) / den, compared on integers
                prev = old[b]
                up, down = value.numerator * prev.denominator, prev.numerator * value.denominator
                if up == down:
                    continue
                if up < down:
                    raise StructureError(
                        "iteration chain decreased; the lifting violates monotonicity"
                    )
                if new is None:
                    new = nxt[a] = dict(old)
                new[b] = value
                changed |= 1 << j
                den = value.denominator * prev.denominator
                if (up - down) * top_den > top * den:
                    top, top_den = up - down, den
            if changed:
                moved[i] = changed
        rows = nxt
        yield rows, unit_over(top, top_den)
        dirty = [0] * n_a
        for k, columns in moved.items():
            readers = 0
            for l in _bits(columns):
                readers |= readers_b[l]
            if readers:
                for i in readers_a[k]:
                    dirty[i] |= readers


def distance_chain(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra,
                   steps: int) -> list:
    """The first entries of the iteration chain, starting at the zero matrix."""
    if steps < 0:
        raise StructureError("steps must be nonnegative")
    check_setup(lifting, sys_a, sys_b)
    chain = [_zero(sys_a, sys_b)]
    for rows, _ in islice(_chain(lifting, sys_a, sys_b), steps):
        chain.append(_rel(sys_a, sys_b, rows))
    return chain


# The most steps one run may take.  A chain short of its fixpoint grows its
# denominators every step: two 8-state chains under maybe(kantorovich) took
# 0.09 s at 100 steps and 2.18 s at 800 (2-CPU Intel Xeon, Python 3.11.7).
MAX_ITER = 1000


def behavioural_distance(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra,
                         tol: Fraction = ZERO, max_iter: int = 100,
                         keep_trace: bool = False) -> DistanceResult:
    """Iterate to the least fixpoint from below.

    Stops on an exact fixpoint (residual 0), on residual <= tol for a
    positive tol, or after max_iter steps (reported as not converged).
    The matrix always underapproximates the true distance from below;
    when the lifting contracts with factor c < 1, the result additionally
    carries gap_bound = residual * c / (1 - c), a bound on how far below
    the limit the matrix can be.  Without a contraction factor only the
    residual is reported.

    Under an approximate lifting (a kantorovich-grid node) the result
    carries its certified slack s > 0: each lifted value lies at most s
    below the exact lifting's, so the matrix bounds the exact lifting's
    fixpoint from below.  A grid over modalities not flagged
    nonexpansive has no such bound and is refused, as check_certificate
    refuses it.
    """
    if tol < 0:
        raise StructureError("tolerance must be nonnegative")
    if max_iter < 1:
        raise StructureError("max_iter must be at least 1")
    if max_iter > MAX_ITER:
        raise StructureError(f"max_iter must be at most {MAX_ITER}, got {max_iter}")
    check_setup(lifting, sys_a, sys_b)
    slack = lifting.certified_slack(sys_a.functor)
    factor = lifting.contraction_factor()
    trace = [_zero(sys_a, sys_b)] if keep_trace else None

    def finish(rows, n, residual, converged):
        matrix = trace[-1] if trace else _rel(sys_a, sys_b, rows)
        gap = residual * factor / (1 - factor) if factor < 1 else None
        return DistanceResult(matrix, n, residual, converged,
                              tuple(trace) if trace else None, gap, slack)

    # zip draws from range first, so no step is computed past max_iter
    for n, (rows, residual) in zip(range(1, max_iter + 1), _chain(lifting, sys_a, sys_b)):
        if trace is not None:
            trace.append(_rel(sys_a, sys_b, rows))
        if residual == 0:
            return finish(rows, n, ZERO, True)
        if tol > 0 and residual <= tol:
            return finish(rows, n, residual, True)
    return finish(rows, max_iter, residual, False)


def check_certificate(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra,
                      cert: Certificate) -> CertificateVerdict:
    """Verify a simulation or bisimulation certificate, with per-pair slack.

    The forward rows check r >= L(r) on every non-vacuous pair (a, b), in
    carrier order.  A bisimulation adds backward rows for r° >= L(r°), on
    pairs (b, a) ordered by b, then a.  When the lifting is exact
    (approximation_slack 0) and claims converse on the systems' functor,
    the backward rows are the forward rows transposed, with no second
    lift.  That is exact, not a heuristic: each such kind preserves
    converse by construction.  id reads the relation at the pair, which
    converse transposes, and a const over a pseudometric reads a symmetric
    table; symmetric Hausdorff takes the max of both one-sided
    values, which converse swaps; a kantorovich or wasserstein transport
    plan transposes into one of the same cost; and pair-sum, pair-max,
    discount and maybe combine children that preserve converse.  Under
    left or right Hausdorff, a const over a label metric that is not a
    pseudometric or any kantorovich-grid node, r° is lifted in a second
    pass.  A simulation certificate has no backward rows.

    An approximate lifting with certified slack s > 0 (a kantorovich-grid
    node, whose value G is at most s below the lifting L it approximates)
    accepts a row only when claimed >= lifted + s, which implies
    claimed >= L.  A row with lifted <= claimed < lifted + s is undecided:
    it fails the verdict and is counted on its own.  A grid over
    modalities not flagged nonexpansive has no such bound and is refused.
    """
    check_setup(lifting, sys_a, sys_b)
    slack = lifting.certified_slack(sys_a.functor)
    rel = cert.relation
    if rel.source != sys_a.carrier or rel.target != sys_b.carrier:
        raise StructureError("certificate carriers do not match the systems")

    def direction(r: FuzzyRel, left: Coalgebra, right: Coalgebra):
        view = r.view()
        rows = []
        for (a, t1), row in zip(left.alpha, r.values):
            for (b, t2), claimed in zip(right.alpha, row):
                if claimed == ONE:
                    continue  # vacuously satisfied
                lifted = lift_value(lifting, left.functor, view, t1, t2)
                rows.append(SlackRow((a, b), claimed, lifted))
        return tuple(rows)

    forward = direction(rel, sys_a, sys_b)
    ok = all(r.claimed >= r.lifted for r in forward)
    backward = None
    if cert.kind == "bisimulation":
        if slack == 0 and lifting.claims_converse(sys_a.functor):
            backward = _transposed(forward, sys_b.carrier)
        else:
            backward = direction(converse(rel), sys_b, sys_a)
            ok = ok and all(r.claimed >= r.lifted for r in backward)
    if not slack:
        return CertificateVerdict(ok, forward, backward)
    undecided = sum(r.lifted <= r.claimed < r.lifted + slack for r in forward + (backward or ()))
    return CertificateVerdict(ok and not undecided, forward, backward, slack, undecided)


def _transposed(forward: tuple, target: Carrier) -> tuple:
    """The backward rows of a converse-preserving lifting: row ((a, b), c, l)
    becomes ((b, a), c, l), ordered as the second pass lifts them, by b in
    target order, then by a in source order (as forward already is)."""
    columns = {b: [] for b in target.elements}
    for row in forward:
        a, b = row.pair
        columns[b].append(SlackRow((b, a), row.claimed, row.lifted))
    return tuple(row for column in columns.values() for row in column)

"""Brute-force oracles that the tests cross-check the solvers against.

Enumeration of all basic solutions of a transportation problem (spanning
trees of the bipartite supply/demand graph), and enumeration of all set
couplings for the finite-powerset case.  Both are exponential and meant
for supports of at most four points.  Also the transportation simplex on
Fractions (Bland's rule on both cells), which the integer kernel of
laxkit.transport must match pivot for pivot; the Kleene loop that
re-lifts every pair on every step, which laxkit.distance must match
iterate for iterate; the grid search over left tables on the whole
source, and the support-restricted one on Fractions, which
laxkit.liftings' search on integers must match; the Hausdorff lifting that lifts each pair once per direction; the
certificate check that lifts a bisimulation's converse in a second pass,
which laxkit.distance.check_certificate must match row for row; and the
logical distance that evaluates each target formula on its own, which
laxkit.moss.logical_distance must match entry for entry; and relation
composition and the random hemimetric's triangle closure on Fractions,
which laxkit.core.compose and laxkit.axioms.rand_hemimetric must match on
their integers; and the distribution factory summing Fractions, which
laxkit.functors.fdist must match on its integers; and the weighted pair
sum and the hemimetric and pseudometric checks on Fractions, which
laxkit.liftings.PairSum and laxkit.core.is_hemimetric and is_pseudometric
must match on their integers.  Also the law suite's random draws on
randint, building a Fraction and a Carrier per draw, which laxkit.axioms'
and the functors' table draws must match value for value and rng state
for rng state; and the nonexpansive-pair check of a companion, the
sup-norm between two relations, and the gap between a valid certificate
and the distance matrix.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from laxkit.core import (
    Carrier,
    FuzzyRel,
    ONE,
    RelView,
    StructureError,
    ZERO,
    as_unit,
    companion,
    converse,
    diagonal,
    inf,
    sat_add,
    sat_sub,
    sup,
)
from laxkit.distance import (
    Certificate,
    CertificateVerdict,
    DistanceResult,
    SlackRow,
    behavioural_distance,
    check_certificate,
    check_setup,
)
from laxkit.functors import (
    Const,
    ConstEl,
    DFin,
    DistEl,
    FunctorElement,
    FunctorSpec,
    Id,
    IdEl,
    Maybe,
    NOTHING,
    PFin,
    Pair,
    PairEl,
    base,
    fdist,
    fset,
    just,
)
from laxkit.liftings import (
    Hausdorff,
    LiftingSpec,
    PairSum,
    _GRID_CAP,
    lift_value,
)
from laxkit.logic import semantics
from laxkit.moss import synthesize_levels
from laxkit.systems import Coalgebra, disjoint_union


def transport_value_by_vertex_enumeration(mu, nu, cost) -> Fraction:
    """Brute-force oracle: minimum cost over all basic solutions.

    Every vertex of the transportation polytope is the solution of a
    spanning tree of the bipartite graph, so enumerating trees and peeling
    leaves visits them all.  Exponential; intended for supports <= 4.
    """
    m, n = len(mu), len(nu)
    if m == 0 or n == 0:
        raise StructureError("transport requires nonempty supports")
    cells = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for tree in combinations(cells, m + n - 1):
        degree = {}
        for (i, j) in tree:
            degree[("r", i)] = degree.get(("r", i), 0) + 1
            degree[("c", j)] = degree.get(("c", j), 0) + 1
        if len(degree) != m + n:
            continue  # not spanning
        balance = {("r", i): mu[i] for i in range(m)}
        balance.update({("c", j): nu[j] for j in range(n)})
        remaining = set(tree)
        alloc = {}
        progress = True
        while remaining and progress:
            progress = False
            for cell in list(remaining):
                r, c = ("r", cell[0]), ("c", cell[1])
                if degree[r] == 1 or degree[c] == 1:
                    leaf, other = (r, c) if degree[r] == 1 else (c, r)
                    q = balance[leaf]
                    alloc[cell] = q
                    balance[leaf] = ZERO
                    balance[other] -= q
                    degree[r] -= 1
                    degree[c] -= 1
                    remaining.discard(cell)
                    progress = True
        if remaining:
            continue  # contained a cycle
        if any(b != 0 for b in balance.values()):
            continue
        if any(q < 0 for q in alloc.values()):
            continue  # basic but infeasible
        value = sum((q * cost[i][j] for (i, j), q in alloc.items()), ZERO)
        if best is None or value < best:
            best = value
    if best is None:
        raise StructureError("no feasible basic solution found")
    return best


def min_sup_over_set_couplings(nu: int, nv: int, weight) -> Fraction:
    """Minimum over set couplings Z of the largest weight occurring in Z.

    A set coupling of {0..nu-1} and {0..nv-1} is a subset of the product
    with full projections.  With no couplings (exactly one side empty) the
    infimum over the empty family is 1.  Exponential; supports <= 4.
    """
    if nu == 0 and nv == 0:
        return ZERO
    if nu == 0 or nv == 0:
        return ONE
    cells = [(i, j) for i in range(nu) for j in range(nv)]
    if len(cells) > 20:
        raise StructureError("set-coupling enumeration capped at 20 product cells")
    weights = [weight(i, j) for (i, j) in cells]
    row_mask = [0] * nu
    col_mask = [0] * nv
    for bit, (i, j) in enumerate(cells):
        row_mask[i] |= 1 << bit
        col_mask[j] |= 1 << bit
    best = None
    for mask in range(1, 1 << len(cells)):
        if any(not mask & rm for rm in row_mask):
            continue
        if any(not mask & cm for cm in col_mask):
            continue
        top = ZERO
        rest = mask
        while rest:
            bit = (rest & -rest).bit_length() - 1
            if weights[bit] > top:
                top = weights[bit]
            rest &= rest - 1
        if best is None or top < best:
            best = top
            if best == 0:
                break
    return best


def _northwest_corner(mu, nu):
    """Initial basic feasible solution; exactly m+n-1 basis cells."""
    m, n = len(mu), len(nu)
    supply = list(mu)
    demand = list(nu)
    alloc = {}
    basis = []
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        alloc[(i, j)] = q
        basis.append((i, j))
        supply[i] -= q
        demand[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if supply[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1
    return alloc, basis


def _duals(m, n, basis, cost):
    """Solve u_i + v_j = c_ij over the basis tree, anchored at u_0 = 0."""
    adj = {("r", i): [] for i in range(m)}
    adj.update({("c", j): [] for j in range(n)})
    for (i, j) in basis:
        adj[("r", i)].append(("c", j))
        adj[("c", j)].append(("r", i))
    u = [None] * m
    v = [None] * n
    u[0] = ZERO
    stack = [("r", 0)]
    seen = {("r", 0)}
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt in seen:
                continue
            seen.add(nxt)
            if node[0] == "r":
                v[nxt[1]] = cost[node[1]][nxt[1]] - u[node[1]]
            else:
                u[nxt[1]] = cost[nxt[1]][node[1]] - v[node[1]]
            stack.append(nxt)
    return u, v


def _tree_path(basis, start, goal):
    """Unique path between two nodes of the basis tree, as a list of cells."""
    adj = {}
    for (i, j) in basis:
        adj.setdefault(("r", i), []).append((("c", j), (i, j)))
        adj.setdefault(("c", j), []).append((("r", i), (i, j)))
    parent = {start: (None, None)}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt, cell in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, cell)
                stack.append(nxt)
    path = []
    node = goal
    while parent[node][0] is not None:
        node, cell = parent[node]
        path.append(cell)
    path.reverse()
    return path


def rational_transport_simplex(mu, nu, cost) -> tuple:
    """Minimize sum x_ij c_ij subject to row sums mu and column sums nu.

    The transportation simplex on Fractions that laxkit.transport ran
    before it pivoted on integers, kept as the oracle the integer kernel
    is diffed against: both must make the same pivots.

    mu and nu are sequences of positive Fractions with equal totals; cost is
    an m-by-n matrix of Fractions.  Infeasibility cannot occur for valid
    distributions, so any internal inconsistency raises.  Returns the pair
    (value, plan), the plan as TransportResult.plan gives it.
    """
    m, n = len(mu), len(nu)
    if m == 0 or n == 0:
        raise StructureError("transport requires nonempty supports")
    if sum(mu) != sum(nu):
        raise StructureError("transport requires equal total mass")
    if any(q <= 0 for q in mu) or any(q <= 0 for q in nu):
        raise StructureError("transport requires positive masses")

    alloc, basis = _northwest_corner(mu, nu)
    basis_set = set(basis)
    while True:
        u, v = _duals(m, n, basis, cost)
        entering = None
        for i in range(m):
            for j in range(n):
                if (i, j) not in basis_set and cost[i][j] - u[i] - v[j] < 0:
                    entering = (i, j)
                    break
            if entering:
                break
        if entering is None:
            break
        path = _tree_path(basis, ("c", entering[1]), ("r", entering[0]))
        # Cycle: entering gets +theta; cells along the path alternate -, +, ...
        minus = path[0::2]
        plus = path[1::2]
        theta = min(alloc[c] for c in minus)
        leaving = min(c for c in minus if alloc[c] == theta)
        alloc[entering] = theta
        for c in minus:
            alloc[c] -= theta
        for c in plus:
            alloc[c] += theta
        del alloc[leaving]
        basis_set.discard(leaving)
        basis_set.add(entering)
        basis = sorted(basis_set)

    value = sum((alloc[c] * cost[c[0]][c[1]] for c in alloc), ZERO)
    plan = tuple((i, j, q) for (i, j), q in sorted(alloc.items()) if q > 0)
    return value, plan


def _zero(sys_a: Coalgebra, sys_b: Coalgebra) -> FuzzyRel:
    return FuzzyRel.constant(sys_a.carrier, sys_b.carrier, ZERO)


def _full_step(lifting, functor, sys_a, sys_b, current: FuzzyRel) -> FuzzyRel:
    rows = tuple(
        tuple(
            lift_value(lifting, functor, current.view(), sys_a.step(a), sys_b.step(b))
            for b in sys_b.carrier.elements
        )
        for a in sys_a.carrier.elements
    )
    return FuzzyRel(sys_a.carrier, sys_b.carrier, rows)


def full_recompute_chain(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra,
                         steps: int) -> list:
    """The first entries of the iteration chain, starting at the zero matrix.

    The loop laxkit.distance.distance_chain ran before it re-lifted only
    the pairs whose inputs moved: every step lifts every pair.
    """
    if steps < 0:
        raise StructureError("steps must be nonnegative")
    check_setup(lifting, sys_a, sys_b)
    chain = [_zero(sys_a, sys_b)]
    for _ in range(steps):
        chain.append(_full_step(lifting, sys_a.functor, sys_a, sys_b, chain[-1]))
    return chain


def full_recompute_distance(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra,
                            tol: Fraction = ZERO, max_iter: int = 100,
                            keep_trace: bool = False) -> DistanceResult:
    """Iterate to the least fixpoint from below, re-lifting every pair.

    The loop laxkit.distance.behavioural_distance ran before it re-lifted
    only the pairs whose inputs moved, kept as the oracle it is diffed
    against: results, traces included, must be equal.

    Stops on an exact fixpoint (residual 0), on residual <= tol for a
    positive tol, or after max_iter steps (reported as not converged).
    The matrix always underapproximates the true distance from below;
    when the lifting contracts with factor c < 1, the result additionally
    carries gap_bound = residual * c / (1 - c), a bound on how far below
    the limit the matrix can be.  Without a contraction factor only the
    residual is reported.  The result carries the lifting's certified slack.
    """
    if tol < 0:
        raise StructureError("tolerance must be nonnegative")
    if max_iter < 1:
        raise StructureError("max_iter must be at least 1")
    check_setup(lifting, sys_a, sys_b)
    slack = lifting.certified_slack(sys_a.functor)
    factor = lifting.contraction_factor()

    def finish(matrix, n, residual, converged, trace):
        gap = residual * factor / (1 - factor) if factor < 1 else None
        return DistanceResult(matrix, n, residual, converged,
                              tuple(trace) if trace else None, gap, slack)

    current = _zero(sys_a, sys_b)
    trace = [current] if keep_trace else None
    residual = ONE
    for n in range(1, max_iter + 1):
        nxt = _full_step(lifting, sys_a.functor, sys_a, sys_b, current)
        if not current.entrywise_le(nxt):
            raise StructureError(
                "iteration chain decreased; the lifting violates monotonicity"
            )
        residual = sup_distance(nxt, current)
        current = nxt
        if trace is not None:
            trace.append(current)
        if residual == 0:
            return finish(current, n, ZERO, True, trace)
        if tol > 0 and residual <= tol:
            return finish(current, n, residual, True, trace)
    return finish(current, max_iter, residual, False, trace)


def two_pass_certificate(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra,
                         cert: Certificate) -> CertificateVerdict:
    """Verify a certificate, lifting a bisimulation's converse in a second pass.

    The check laxkit.distance.check_certificate ran before it read the
    backward rows of a converse-preserving lifting off its forward lifts,
    kept as the oracle it is diffed against: verdicts, rows and their
    order included, must be equal.  Under an approximate lifting, rows
    within its slack above the lifted value are undecided and fail it.
    """
    check_setup(lifting, sys_a, sys_b)
    rel = cert.relation
    if rel.source != sys_a.carrier or rel.target != sys_b.carrier:
        raise StructureError("certificate carriers do not match the systems")

    def direction(r: FuzzyRel, left: Coalgebra, right: Coalgebra):
        rows = []
        for a in left.carrier.elements:
            for b in right.carrier.elements:
                claimed = r.at(a, b)
                if claimed == ONE:
                    continue  # vacuously satisfied
                lifted = lift_value(lifting, left.functor, r.view(), left.step(a), right.step(b))
                rows.append(SlackRow((a, b), claimed, lifted))
        return tuple(rows)

    forward = direction(rel, sys_a, sys_b)
    backward = None
    if cert.kind == "bisimulation":
        backward = direction(converse(rel), sys_b, sys_a)
    rows = forward + (backward or ())
    # an approximate lifting accepts a row only above its slack
    slack = lifting.approximation_slack()
    undecided = sum(r.lifted <= r.claimed < r.lifted + slack for r in rows)
    ok = all(r.claimed >= r.lifted for r in rows) and not undecided
    return CertificateVerdict(ok, forward, backward, slack, undecided)


def unrestricted_grid_value(modalities, step: Fraction, rel: FuzzyRel,
                            t1: FunctorElement, t2: FunctorElement) -> Fraction:
    """Sup over modalities and grid-valued left tables, right = companion.

    The search laxkit.liftings.grid_kantorovich_value ran before it
    restricted left tables to base(t1): every table over the whole source.

    Returns a value in [true - step, true] when all modalities are
    nonexpansive (see grid_error_bound); exact whenever the optimum is
    attained on the grid.
    """
    levels = []
    k = 0
    while True:
        v = k * step
        if v > 1:
            break
        levels.append(v)
        k += 1
    if levels[-1] != 1:
        levels.append(ONE)
    source = rel.source.elements
    best = ZERO
    for lam in modalities:
        if not lam.monotone:
            raise StructureError(
                f"modality {lam.name} is not monotone; refusing the companion-"
                "restricted grid search"
            )
        dims = lam.arity * len(source)
        if len(levels) ** dims > _GRID_CAP:
            raise StructureError(
                f"grid search over {len(levels)}^{dims} tables exceeds the cap; "
                "use a coarser step or smaller carriers"
            )
        for combo in product(levels, repeat=dims):
            fs = tuple(
                dict(zip(source, combo[i * len(source):(i + 1) * len(source)]))
                for i in range(lam.arity)
            )
            gs = tuple(companion(rel, f) for f in fs)
            value = sat_sub(lam.evaluator(t1, fs), lam.evaluator(t2, gs))
            if value > best:
                best = value
    return best


def view_entry(rel: RelView, x, y) -> Fraction:
    """A relation view's entry at the ids x, y, as the Fraction its
    integers stand for."""
    return Fraction(rel.ints[x][y], rel.den)


def fraction_grid_value(modalities, step: Fraction, rel: RelView,
                        t1: FunctorElement, t2: FunctorElement) -> Fraction:
    """The support-restricted grid search on Fractions, once per modality.

    The search laxkit.liftings.grid_kantorovich_value ran before it moved
    to integers: for each modality and each combination of grid-valued
    left tables on base(t1), it builds the companions on base(t2) with
    Fraction sat_sub and compares Fraction values.
    """
    left, right = base(t1), base(t2)
    width = len(left)
    n_levels = step.denominator + 1
    # refuse before any work: the level list alone grows with the step
    searches = []  # (modality, table entries per combination)
    for lam in modalities:
        if not lam.monotone:
            raise StructureError(
                f"modality {lam.name} is not monotone; refusing the companion-"
                "restricted grid search"
            )
        dims = lam.arity * width
        if n_levels ** dims > _GRID_CAP:
            raise StructureError(
                f"grid search over {n_levels}^{dims} tables exceeds the cap; "
                "use a coarser step or smaller carriers"
            )
        searches.append((lam, dims))
    # a search over no entries has one empty combination and reads no level
    levels = [k * step for k in range(n_levels)] if any(d for _, d in searches) else []
    block = [[view_entry(rel, a, b) for b in right] for a in left]
    best = ZERO
    for lam, dims in searches:
        for combo in product(levels, repeat=dims):
            tables = [combo[i * width:(i + 1) * width] for i in range(lam.arity)]
            fs = tuple(dict(zip(left, f)) for f in tables)
            # the companion of each left table, on base(t2) only
            gs = tuple({b: sup(sat_sub(x, row[jb]) for x, row in zip(f, block))
                        for jb, b in enumerate(right)} for f in tables)
            value = sat_sub(lam.evaluator(t1, fs), lam.evaluator(t2, gs))
            if value > best:
                best = value
    return best


def two_pass_hausdorff(lifting: Hausdorff, functor: FunctorSpec, rel: RelView,
                       t1: FunctorElement, t2: FunctorElement) -> Fraction:
    """The Hausdorff lifting with each one-sided distance lifting its own pairs.

    The definition laxkit.liftings.Hausdorff.lift used before it lifted
    each pair once for both directions: the symmetric variant lifts every
    pair twice.
    """
    sub, sub_functor = lifting.sub, functor.sub
    d = lambda a, b: sub.lift(sub_functor, rel, a, b)
    left = lambda: sup(inf(d(a, b) for b in t2.members) for a in t1.members)
    right = lambda: sup(inf(d(a, b) for a in t1.members) for b in t2.members)
    if lifting.variant == "left":
        return left()
    if lifting.variant == "right":
        return right()
    return max(left(), right())


def fraction_pair_sum(lifting: PairSum, functor: FunctorSpec, rel: RelView,
                      t1: FunctorElement, t2: FunctorElement) -> Fraction:
    """w_l * x + w_r * y on Fractions, checked into the unit interval."""
    return as_unit(
        lifting.w_left * lifting.left.lift(functor.left, rel, t1.left, t2.left)
        + lifting.w_right * lifting.right.lift(functor.right, rel, t1.right, t2.right)
    )


def per_target_logical_distance(sys_a: Coalgebra, sys_b: Coalgebra,
                                lifting: LiftingSpec, rank_n: int) -> FuzzyRel:
    """Rank-n logical distance matrix, one semantics call per target state.

    The route laxkit.moss.logical_distance took before it ran every target
    formula through one evaluator: each call starts from a fresh memo, so
    the lower-rank formulas the targets share are evaluated once per target.
    """
    check_setup(lifting, sys_a, sys_b)
    union, inj1, inj2 = disjoint_union(sys_a, sys_b)
    formulas = synthesize_levels(union, rank_n)[rank_n]
    tables = {
        b: semantics(formulas[inj2[b]], union, lifting)
        for b in sys_b.carrier.elements
    }
    rows = tuple(
        tuple(
            sat_sub(tables[b][inj1[a]], tables[b][inj2[b]])
            for b in sys_b.carrier.elements
        )
        for a in sys_a.carrier.elements
    )
    return FuzzyRel(sys_a.carrier, sys_b.carrier, rows)


def fraction_compose(r: FuzzyRel, s: FuzzyRel) -> FuzzyRel:
    """Relation composition r;s entry by entry: inf_b r(a,b) (+) s(b,c) on Fractions."""
    if r.target != s.source:
        raise StructureError("composition: middle carriers disagree")
    mid = range(len(r.target))
    rows = tuple(
        tuple(
            inf(sat_add(r.values[i][k], s.values[k][j]) for k in mid)
            for j in range(len(s.target))
        )
        for i in range(len(r.source))
    )
    return FuzzyRel(r.source, s.target, rows)


_DRAW_DENOMS = (1, 2, 3, 4, 5, 6, 8, 10)


def randint_unit(rng: random.Random) -> Fraction:
    """A random unit value: 0 or 1 with probability 0.15 each, else k/den
    for a den drawn from _DRAW_DENOMS and k drawn from 0..den."""
    roll = rng.random()
    if roll < 0.15:
        return ZERO
    if roll < 0.3:
        return ONE
    den = rng.choice(_DRAW_DENOMS)
    return Fraction(rng.randint(0, den), den)


def randint_carrier(rng: random.Random, prefix: str, max_size: int) -> Carrier:
    size = rng.randint(1, max_size)
    return Carrier(tuple(f"{prefix}{i}" for i in range(size)))


def randint_rel(rng: random.Random, source: Carrier, target: Carrier) -> FuzzyRel:
    return FuzzyRel(source, target, tuple(
        tuple(randint_unit(rng) for _ in target.elements) for _ in source.elements))


def randint_element(rng: random.Random, functor: FunctorSpec, carrier: Carrier):
    """A random element of functor over carrier, one grammar node at a time,
    as the draws were first made: by randint, a fresh IdEl or ConstEl per
    draw, and each distribution through fdist on its weights' Fractions."""
    if isinstance(functor, Id):
        return IdEl(rng.choice(carrier.elements))
    if isinstance(functor, Const):
        return ConstEl(rng.choice(functor.labels.elements))
    if isinstance(functor, PFin):
        size = rng.randint(0, min(3, len(carrier)))
        return fset(randint_element(rng, functor.sub, carrier) for _ in range(size))
    if isinstance(functor, DFin):
        size = rng.randint(1, min(3, len(carrier)))
        members = [randint_element(rng, functor.sub, carrier) for _ in range(size)]
        weights = [rng.randint(1, 6) for _ in members]
        total = sum(weights)
        return fdist((m, Fraction(w, total)) for m, w in zip(members, weights))
    if isinstance(functor, Pair):
        return PairEl(randint_element(rng, functor.left, carrier),
                      randint_element(rng, functor.right, carrier))
    if isinstance(functor, Maybe):
        if rng.random() < 0.25:
            return NOTHING
        return just(randint_element(rng, functor.sub, carrier))
    raise TypeError(f"no draw for {functor!r}")


def fraction_rand_hemimetric(rng: random.Random, carrier: Carrier,
                             symmetric: bool) -> FuzzyRel:
    """rand_hemimetric's draws (randint_unit), symmetrized and closed with
    Fraction sat_add."""
    n = len(carrier)
    d = [[randint_unit(rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d[i][i] = ZERO
    if symmetric:
        for i in range(n):
            for j in range(n):
                if d[i][j] != d[j][i]:
                    low = min(d[i][j], d[j][i])
                    d[i][j] = d[j][i] = low
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = sat_add(d[i][k], d[k][j])
                if via < d[i][j]:
                    d[i][j] = via
    return FuzzyRel(carrier, carrier, tuple(tuple(row) for row in d))


def fraction_fdist(pairs) -> DistEl:
    """fdist with the merge and the mass check on Fraction sums."""
    merged: dict = {}
    elements: dict = {}
    for el, p in pairs:
        if not isinstance(p, Fraction):
            p = Fraction(p)
        if p <= 0:
            raise StructureError("distribution probabilities must be positive")
        key = el._canonical_key()
        merged[key] = merged.get(key, ZERO) + p
        elements[key] = el
    total = sum(merged.values(), ZERO)
    if total != 1:
        raise StructureError(f"distribution mass {total} is not 1")
    return DistEl(tuple((elements[k], merged[k]) for k in sorted(merged)))


def fraction_is_hemimetric(d: FuzzyRel) -> bool:
    """d <= diagonal and d <= d;d, with both relations built on Fractions."""
    if not d.is_square():
        raise StructureError("hemimetric check needs a square relation")
    return d.entrywise_le(diagonal(d.source)) and d.entrywise_le(fraction_compose(d, d))


def fraction_is_pseudometric(d: FuzzyRel) -> bool:
    """fraction_is_hemimetric and equal to its converse."""
    return fraction_is_hemimetric(d) and converse(d) == d


def sup_distance(r: FuzzyRel, s: FuzzyRel) -> Fraction:
    """Largest entrywise absolute difference (exact)."""
    if r.source != s.source or r.target != s.target:
        raise StructureError("relations live between different carriers")
    return sup(
        abs(x - y)
        for row_x, row_y in zip(r.values, s.values)
        for x, y in zip(row_x, row_y)
    )


def least_certificate_gap(lifting: LiftingSpec, sys_a: Coalgebra, sys_b: Coalgebra,
                          cert: Certificate, tol: Fraction = ZERO,
                          max_iter: int = 100) -> Fraction:
    """Sup-norm between a valid certificate and the computed distance matrix.

    Valid certificates bound the distance from above pointwise, so the gap
    is nonnegative; it measures how much slack the certificate wastes.
    """
    verdict = check_certificate(lifting, sys_a, sys_b, cert)
    if not verdict.ok:
        raise StructureError("certificate does not hold; gap is undefined")
    result = behavioural_distance(lifting, sys_a, sys_b, tol=tol, max_iter=max_iter)
    return sup_distance(cert.relation, result.matrix)


def is_nonexpansive_pair(r: FuzzyRel, f, g) -> bool:
    """f(a) - g(b) <= r(a,b) for all a, b."""
    return all(
        f[a] - g[b] <= r.values[i][j]
        for i, a in enumerate(r.source.elements)
        for j, b in enumerate(r.target.elements)
    )

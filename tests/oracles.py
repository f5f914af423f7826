"""Brute-force oracles that the tests cross-check the solvers against.

Enumeration of all basic solutions of a transportation problem (spanning
trees of the bipartite supply/demand graph), and enumeration of all set
couplings for the finite-powerset case.  Both are exponential and meant
for supports of at most four points.
"""

from fractions import Fraction
from itertools import combinations

from laxkit.core import ONE, StructureError, ZERO


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

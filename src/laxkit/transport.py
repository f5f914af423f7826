"""Exact optimal transport between finite discrete distributions.

A primal transportation simplex over rationals with Bland's anti-cycling
rule on both the entering and the leaving cell, so runs are deterministic
and terminate.  The brute-force oracles it is cross-checked against on
small instances live with the tests (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import StructureError, ZERO


@dataclass(frozen=True)
class TransportResult:
    value: Fraction
    plan: tuple  # ((i, j, mass), ...), positive cells in lexicographic order


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


def min_cost_transport(mu, nu, cost) -> TransportResult:
    """Minimize sum x_ij c_ij subject to row sums mu and column sums nu.

    mu and nu are sequences of positive Fractions with equal totals; cost is
    an m-by-n matrix of Fractions.  Infeasibility cannot occur for valid
    distributions, so any internal inconsistency raises.
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
    return TransportResult(value, plan)

"""Exact optimal transport between finite discrete distributions.

A primal transportation simplex with Bland's anti-cycling rule on both the
entering and the leaving cell, so runs are deterministic and terminate.
It pivots on integers: masses are scaled by the least common multiple of
their denominators and costs by that of theirs.  Scaling by positive
constants keeps every sign and every tie, so the pivots, the plan and the
value are those of the same simplex run on the Fractions themselves.  The
rational simplex and the brute-force oracles it is cross-checked against
live with the tests (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import StructureError


@dataclass(frozen=True)
class TransportResult:
    value: Fraction
    plan: tuple  # ((i, j, mass), ...), positive cells in lexicographic order


def _scaled(values):
    """(den, ints): den is the lcm of the denominators, ints[k] = values[k] * den."""
    den = lcm(*[q.denominator for q in values])
    return den, [q.numerator * (den // q.denominator) for q in values]


def _northwest_corner(m, n, supply, demand):
    """Initial basic feasible solution: exactly m+n-1 basis cells."""
    supply = list(supply)
    demand = list(demand)
    flow = {}
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        flow[i, j] = q
        supply[i] -= q
        demand[j] -= q
        if i == m - 1 and j == n - 1:
            return flow
        if supply[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1


def _simplex(m, n, supply, demand, cost):
    """Optimal basis {(i, j): mass} of the integer transportation problem.

    The basis is a spanning tree over the nodes 0..m-1 (rows) and
    m..m+n-1 (columns).  Each pivot hangs the tree from row 0 to get the
    potentials (u_i + v_j = c_ij on basis cells) and the parent links,
    enters the first cell in row-major order whose reduced cost is
    negative, and leaves the least cell, in lexicographic order, among
    those of the cycle's minus cells that reach the step size first.
    """
    flow = _northwest_corner(m, n, supply, demand)
    adj = [[] for _ in range(m + n)]
    for (i, j) in flow:
        adj[i].append(m + j)
        adj[m + j].append(i)
    while True:
        pot = [0] * (m + n)
        parent = [-1] * (m + n)
        depth = [0] * (m + n)
        stack = [0]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt == parent[node]:
                    continue
                parent[nxt] = node
                depth[nxt] = depth[node] + 1
                if node < m:
                    pot[nxt] = cost[node][nxt - m] - pot[node]
                else:
                    pot[nxt] = cost[nxt][node - m] - pot[node]
                stack.append(nxt)
        # Basis cells have reduced cost exactly 0, so they never enter.
        entering = next(
            ((i, j) for i in range(m) for j in range(n)
             if cost[i][j] - pot[i] - pot[m + j] < 0),
            None,
        )
        if entering is None:
            return flow
        ei, ej = entering
        # Tree path from column ej to row ei; its cells alternate -, +, ...
        up, down = [], []
        a, b = m + ej, ei
        while depth[a] > depth[b]:
            up.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            down.append(b)
            b = parent[b]
        while a != b:
            up.append(a)
            down.append(b)
            a, b = parent[a], parent[b]
        path = [
            (node, parent[node] - m) if node < m else (parent[node], node - m)
            for node in up + down[::-1]
        ]
        minus = path[0::2]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] == theta)
        flow[entering] = theta
        for c in minus:
            flow[c] -= theta
        for c in path[1::2]:
            flow[c] += theta
        del flow[leaving]
        li, lj = leaving
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)


def min_cost_transport(mu, nu, cost) -> TransportResult:
    """Minimize sum x_ij c_ij subject to row sums mu and column sums nu.

    mu and nu are sequences of positive rationals (Fractions or ints) with
    equal totals; cost is an m-by-n matrix of rationals.  Infeasibility
    cannot occur for valid distributions, so any internal inconsistency
    raises.
    """
    m, n = len(mu), len(nu)
    if m == 0 or n == 0:
        raise StructureError("transport requires nonempty supports")
    if len(cost) != m or any(len(row) != n for row in cost):
        raise StructureError(f"transport requires a {m}x{n} cost matrix")
    dm, supply_demand = _scaled([*mu, *nu])
    supply, demand = supply_demand[:m], supply_demand[m:]
    if sum(supply) != sum(demand):
        raise StructureError("transport requires equal total mass")
    if min(supply_demand) <= 0:
        raise StructureError("transport requires positive masses")
    dc, flat = _scaled([c for row in cost for c in row])
    scaled_cost = [flat[i * n:(i + 1) * n] for i in range(m)]

    flow = _simplex(m, n, supply, demand, scaled_cost)
    total = sum(q * scaled_cost[i][j] for (i, j), q in flow.items())
    plan = tuple((i, j, Fraction(q, dm)) for (i, j), q in sorted(flow.items()) if q > 0)
    return TransportResult(Fraction(total, dm * dc), plan)

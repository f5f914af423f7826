"""Exact optimal transport between finite discrete distributions.

A primal transportation simplex with Bland's anti-cycling rule on both the
entering and the leaving cell, so runs are deterministic and terminate.
It pivots on integers: masses are scaled by the least common multiple of
their denominators and costs by that of theirs.  Scaling by positive
constants keeps every sign and every tie, so the pivots, the plan and the
value are those of the same simplex run on the Fractions themselves.  The
rational simplex and the brute-force oracles it is cross-checked against
live with the tests (tests/oracles.py).

A solve starts cold from the northwest-corner basis, or warm from the
TransportResult of an earlier solve over the same masses.  The masses fix
the feasible set and the costs only move the objective, so that solve's
optimal basis is still feasible, often still optimal, and the simplex
resumes from a copy of it without rescaling the masses.  The optimal
value is unique, so a warm solve returns the cold solve's value; on ties
its plan may be another optimal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import StructureError, scaled_rows


@dataclass(frozen=True)
class TransportResult:
    """One solve: its optimal value, the masses as given, their scale dm
    and its optimal basis {(i, j): mass * dm}, m+n-1 cells over integers.

    Passed back to min_cost_transport as `warm`, it is the next solve's
    start; the plan is read off the basis when asked for.
    """

    value: Fraction
    mu: list
    nu: list
    dm: int
    basis: dict

    @property
    def plan(self) -> tuple:
        """((i, j, mass), ...): the positive basis cells in lexicographic order."""
        dm = self.dm
        return tuple((i, j, Fraction(q, dm)) for (i, j), q in sorted(self.basis.items()) if q > 0)


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


def _simplex(m, n, flow, cost):
    """Pivot the basis flow {(i, j): mass}, in place, to an optimal one.

    The basis is a spanning tree over the nodes 0..m-1 (rows) and
    m..m+n-1 (columns).  Each pivot hangs the tree from row 0 to get the
    potentials (u_i + v_j = c_ij on basis cells) and the parent links,
    enters the first cell in row-major order whose reduced cost is
    negative, and leaves the least cell, in lexicographic order, among
    those of the cycle's minus cells that reach the step size first.
    """
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
            return
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


def min_cost_transport(mu, nu, cost, warm: TransportResult | None = None) -> TransportResult:
    """Minimize sum x_ij c_ij subject to row sums mu and column sums nu.

    mu and nu are sequences of positive rationals (Fractions or ints) with
    equal totals; cost is an m-by-n matrix of rationals.  Infeasibility
    cannot occur for valid distributions, so any internal inconsistency
    raises.  The solve resumes from a copy of warm's basis when warm's
    masses equal mu and nu, and starts cold otherwise; it changes nothing
    it is given.
    """
    m, n = len(mu), len(nu)
    if m == 0 or n == 0:
        raise StructureError("transport requires nonempty supports")
    if len(cost) != m or any(len(row) != n for row in cost):
        raise StructureError(f"transport requires a {m}x{n} cost matrix")
    if warm is not None and warm.mu == mu and warm.nu == nu:
        dm, flow = warm.dm, dict(warm.basis)
    else:
        dm, [[supply, demand]] = scaled_rows([mu, nu])
        if sum(supply) != sum(demand):
            raise StructureError("transport requires equal total mass")
        if min(supply) <= 0 or min(demand) <= 0:
            raise StructureError("transport requires positive masses")
        flow = _northwest_corner(m, n, supply, demand)
    dc, [scaled_cost] = scaled_rows(cost)

    _simplex(m, n, flow, scaled_cost)
    total = sum(q * scaled_cost[i][j] for (i, j), q in flow.items())
    return TransportResult(Fraction(total, dm * dc), mu, nu, dm, flow)

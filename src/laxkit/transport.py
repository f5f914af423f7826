"""Exact optimal transport between finite discrete distributions.

A primal transportation simplex with Bland's anti-cycling rule on both the
entering and the leaving cell, so runs are deterministic and terminate.
It pivots on integers: masses are scaled by the least common multiple of
their denominators and costs by that of theirs.  Scaling by positive
constants keeps every sign and every tie, so the pivots, the plan and the
value are those of the same simplex run on the Fractions themselves.  The
rational simplex and the brute-force oracles it is cross-checked against
live with the tests (tests/oracles.py).

A solve starts cold from the northwest-corner basis, or warm from a
TransportStart that an earlier solve over the same masses filled in.  The
masses fix the feasible set and the costs only move the objective, so
that solve's optimal basis is still feasible, often still optimal, and
the simplex resumes from it without rescaling the masses.  The optimal
value is unique, so a warm solve returns the cold solve's value; on ties
its plan may be another optimal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import StructureError, scaled_rows


@dataclass(frozen=True)
class TransportResult:
    value: Fraction
    plan: tuple  # ((i, j, mass), ...), positive cells in lexicographic order


class TransportStart:
    """A warm start for repeated solves over the same masses.

    It is empty when made.  min_cost_transport, given it, solves from the
    basis it holds if its masses equal the ones asked for, and cold
    otherwise; either way it then holds that solve's masses (as given),
    their scale dm and its optimal basis {(i, j): mass * dm}.
    """

    __slots__ = ("mu", "nu", "dm", "flow")

    def __init__(self):
        self.mu = self.nu = self.dm = self.flow = None


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


def min_cost_transport(mu, nu, cost, start: TransportStart | None = None) -> TransportResult:
    """Minimize sum x_ij c_ij subject to row sums mu and column sums nu.

    mu and nu are sequences of positive rationals (Fractions or ints) with
    equal totals; cost is an m-by-n matrix of rationals.  Infeasibility
    cannot occur for valid distributions, so any internal inconsistency
    raises.  With a start, the solve resumes from its basis when its
    masses equal mu and nu, and leaves this solve's basis in it.
    """
    m, n = len(mu), len(nu)
    if m == 0 or n == 0:
        raise StructureError("transport requires nonempty supports")
    if len(cost) != m or any(len(row) != n for row in cost):
        raise StructureError(f"transport requires a {m}x{n} cost matrix")
    if start is not None and start.mu == mu and start.nu == nu:
        dm, flow = start.dm, start.flow
    else:
        dm, [[supply, demand]] = scaled_rows([mu, nu])
        if sum(supply) != sum(demand):
            raise StructureError("transport requires equal total mass")
        if min(supply) <= 0 or min(demand) <= 0:
            raise StructureError("transport requires positive masses")
        flow = _northwest_corner(m, n, supply, demand)
    dc, [scaled_cost] = scaled_rows(cost)

    _simplex(m, n, flow, scaled_cost)
    if start is not None:
        start.mu, start.nu, start.dm, start.flow = mu, nu, dm, flow
    total = sum(q * scaled_cost[i][j] for (i, j), q in flow.items())
    plan = tuple((i, j, Fraction(q, dm)) for (i, j), q in sorted(flow.items()) if q > 0)
    return TransportResult(Fraction(total, dm * dc), plan)
